//! "orec-lazy": commit-time locking with redo logging.
//!
//! Writes are buffered in the redo log (reads consult it first); at
//! commit the write-set orecs are acquired, the log is flushed and
//! sealed with the COMMITTED marker, and only then is program data
//! written back. **O(1)** fences per transaction: one after the log,
//! one with the COMMITTED marker, one after writeback, one with the
//! IDLE marker.

use pmem_sim::PAddr;

use trace::EventKind;

use crate::access::TxAccess;
use crate::config::Algo;
use crate::log::{
    committed_marker, is_committed, marker_count, prepared_count, prepared_marker, ALGO_REDO,
    STATE_IDLE, W_STATE,
};
use crate::phases::Phase;
use crate::recovery::RecoverCtx;
use crate::txn::TxResult;

use super::LogPolicy;

pub struct RedoPolicy;

/// Persist the redo log and seal it under `marker` (the COMMITTED
/// marker on the single-shard path, a PREPARED marker on the 2PC
/// prepare path — same flush/fence sequence either way).
fn seal_log(ax: &mut TxAccess, marker: u64) {
    // Alloc-new initialization and the redo log share one window: each
    // line flushed once (a fresh block the log pass also covered
    // dedupes under a plan), one fence for both.
    ax.offer_fresh_blocks();
    for i in 0..ax.entries.len() {
        ax.offer_adjacent(ax.log.entry_addr(i));
    }
    ax.close_window();
    ax.fence();
    ax.seal_header(ax.entries.len() as u64, marker);
}

/// The word entry `i` stores to.
fn target(ctx: &RecoverCtx<'_>, i: usize) -> Option<PAddr> {
    Some(PAddr(ctx.raw_entry(i).0))
}

/// Write the first `count` entries back to program data, durably.
fn replay(ctx: &mut RecoverCtx<'_>, count: usize) {
    for i in 0..count {
        let (a, v, _chk) = ctx.raw_entry(i);
        ctx.store_persist(PAddr(a), v);
        ctx.report.redo_entries += 1;
    }
}

impl LogPolicy for RedoPolicy {
    fn algo(&self) -> Algo {
        Algo::RedoLazy
    }

    fn persistent_tag(&self) -> u64 {
        ALGO_REDO
    }

    fn on_read(&self, ax: &mut TxAccess, addr: PAddr, _o: u32) -> Option<TxResult<u64>> {
        ax.buffered_read(addr)
    }

    fn on_write(&self, ax: &mut TxAccess, addr: PAddr, val: u64) -> TxResult<()> {
        if ax.ptm.config.tracing {
            // The orec lookup is pure address hashing; only pay for it
            // when the event is actually recorded.
            let o = ax.ptm.orecs.index_of(addr);
            ax.s.trace_event(EventKind::TxWrite, o as u64, addr.0);
        }
        ax.index_cost();
        let now = ax.s.now();
        let outer = ax.timer.switch(now, Phase::LogAppend);
        if let Some(i) = ax.redo_index.get(addr.0) {
            let i = i as usize;
            ax.entries[i].1 = val;
            let e = ax.log.entry_addr(i);
            ax.s.store(e.offset(1), val);
            let now = ax.s.now();
            ax.timer.switch(now, outer);
            return Ok(());
        }
        ax.expect_access(addr, 1);
        let i = ax.entries.len();
        assert!(i < ax.log.capacity, "redo log overflow ({i} entries)");
        ax.entries.push((addr.0, val));
        ax.redo_index.insert(addr.0, i as u64);
        let e = ax.log.entry_addr(i);
        ax.s.store(e, addr.0);
        ax.s.store(e.offset(1), val);
        ax.log_entry_appended(i);
        let now = ax.s.now();
        ax.timer.switch(now, outer);
        Ok(())
    }

    fn read_only(&self, ax: &TxAccess) -> bool {
        // Per-read validation against start_time already guarantees a
        // consistent snapshot.
        ax.entries.is_empty()
    }

    fn write_set_size(&self, ax: &TxAccess) -> u64 {
        ax.entries.len() as u64
    }

    /// Acquire all write-set orecs (commit-time locking).
    fn pre_commit_acquire(&self, ax: &mut TxAccess) -> bool {
        ax.acquire_each(ax.entries.len(), |ax, i| ax.entries[i].0)
    }

    fn make_durable(&self, ax: &mut TxAccess) {
        seal_log(ax, committed_marker(ax.entries.len() as u64));
    }

    fn make_prepared(&self, ax: &mut TxAccess, gtid: u64) {
        seal_log(ax, prepared_marker(ax.entries.len() as u64, gtid));
    }

    fn commit_publish(&self, ax: &mut TxAccess, wv: u64) {
        // Write back and persist program data. Under a plan the whole
        // write set is applied first and each dirty line flushed exactly
        // once; a direct store-then-flush per entry re-dirties a shared
        // line between flushes, so a line written by k entries pays k
        // writebacks.
        let now = ax.s.now();
        ax.timer.switch(now, Phase::Writeback);
        for i in 0..ax.entries.len() {
            let (a, v) = ax.entries[i];
            let addr = PAddr(a);
            ax.s.store(addr, v);
            ax.offer(addr);
        }
        ax.close_data_window();
        ax.fence();
        // Retire the log, then make the writes visible.
        ax.persist_state(STATE_IDLE);
        ax.release_owned(Phase::Validation, Some(wv));
    }

    /// Redo abort: nothing was written in place; restore pre-lock
    /// versions.
    fn abort_rollback(&self, ax: &mut TxAccess, _wv: Option<u64>) {
        ax.release_owned(Phase::Rollback, None);
    }

    fn recover_apply(&self, ctx: &mut RecoverCtx<'_>) {
        let state = ctx.primary.raw_load(W_STATE);
        if is_committed(state) && !ctx.opts.skip_redo_replay {
            let Some(count) = ctx.sealed_count("committed", marker_count(state), "replay", target)
            else {
                return;
            };
            replay(ctx, count);
            ctx.report.redo_replayed += 1;
        }
        ctx.retire();
    }

    fn resolve_prepared(&self, ctx: &mut RecoverCtx<'_>, committed: bool) {
        let state = ctx.primary.raw_load(W_STATE);
        if committed {
            // The coordinator decided commit: the prepared entries are a
            // complete redo log — replay like a committed one.
            let Some(count) = ctx.sealed_count("prepared", prepared_count(state), "replay", target)
            else {
                return;
            };
            replay(ctx, count);
        }
        // Presumed abort: nothing was written in place, retiring the
        // log is the whole rollback.
        ctx.retire();
    }
}
