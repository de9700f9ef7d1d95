//! "orec-eager": encounter-time locking with undo logging.
//!
//! Writes go in place after the stripe's orec is acquired and the old
//! value is persisted to the undo log — **O(W)** fences: every first
//! write to a location pays `clwb` + `sfence` before its in-place
//! store. Commit only has to flush the in-place data and truncate the
//! log; abort restores old values durably in reverse order.

use pmem_sim::PAddr;

use trace::EventKind;

use crate::access::TxAccess;
use crate::config::{Algo, INDEX_NS};
use crate::log::{prepared_marker, seal, ALGO_UNDO, STATE_IDLE, W_SEQ};
use crate::phases::Phase;
use crate::recovery::RecoverCtx;
use crate::txn::TxResult;

use super::LogPolicy;

pub struct UndoPolicy;

/// Truncate the undo log: entry 0's addr word zeroed, durable. Charged
/// to whatever phase the caller set.
fn truncate_log(ax: &mut TxAccess) {
    let e0 = ax.log.entry_addr(0);
    ax.s.store(e0, 0);
    ax.flush_line(e0);
    ax.fence();
}

/// Undo abort: restore old values (durably), truncate, release at a
/// fresh timestamp so concurrent readers of speculative values fail
/// validation.
fn rollback_undo(ax: &mut TxAccess, wv: u64) {
    let now = ax.s.now();
    ax.timer.switch(now, Phase::Rollback);
    for i in (0..ax.entries.len()).rev() {
        let (a, old) = ax.entries[i];
        let addr = PAddr(a);
        ax.s.store(addr, old);
        ax.flush_line(addr);
    }
    ax.fence();
    if !ax.entries.is_empty() {
        truncate_log(ax);
    }
    ax.release_owned(Phase::Rollback, Some(wv));
}

/// Flush the in-place data and alloc-new blocks, one fence: what commit
/// and 2PC prepare both need durable before touching the log.
fn persist_in_place(ax: &mut TxAccess) {
    ax.offer_fresh_blocks();
    for i in 0..ax.eager_writes.len() {
        ax.offer(PAddr(ax.eager_writes[i]));
    }
    ax.close_data_window();
    ax.fence();
}

impl LogPolicy for UndoPolicy {
    fn algo(&self) -> Algo {
        Algo::UndoEager
    }

    fn persistent_tag(&self) -> u64 {
        ALGO_UNDO
    }

    fn on_read(&self, ax: &mut TxAccess, addr: PAddr, o: u32) -> Option<TxResult<u64>> {
        if !ax.owned.is_empty() {
            ax.s.advance(INDEX_NS);
            if ax.owned_map.get(o as u64).is_some() {
                // We hold the stripe: in-place values are ours to read.
                return Some(Ok(ax.s.load(addr)));
            }
        }
        None
    }

    fn on_write(&self, ax: &mut TxAccess, addr: PAddr, val: u64) -> TxResult<()> {
        let o = ax.ptm.orecs.index_of(addr);
        ax.index_cost();
        ax.acquire(o, true)?;
        // First write to this address: persist the old value, fenced,
        // before the in-place store (the undo fence the paper measures).
        ax.index_cost();
        if ax.undo_logged.get(addr.0).is_none() {
            let now = ax.s.now();
            let outer = ax.timer.switch(now, Phase::LogAppend);
            ax.undo_logged.insert(addr.0, 1);
            let i = ax.entries.len();
            assert!(i < ax.log.capacity, "undo log overflow ({i} entries)");
            if i == 0 {
                // First entry of this transaction: persist the bumped
                // sequence number before any entry can become valid, so
                // recovery rejects stale entries from earlier
                // transactions that lie past ours.
                ax.undo_seq += 1;
                let seq_addr = ax.log.seq_addr();
                ax.s.store(seq_addr, ax.undo_seq);
                ax.flush_line(seq_addr);
                ax.fence();
            }
            let old = ax.s.load(addr);
            ax.entries.push((addr.0, old));
            let e = ax.log.entry_addr(i);
            ax.s.store(e, addr.0);
            ax.s.store(e.offset(1), old);
            ax.s.store(e.offset(2), seal(addr.0, old, ax.undo_seq));
            ax.flush_line(e);
            ax.fence();
            let now = ax.s.now();
            ax.timer.switch(now, outer);
            // One commit-time flush obligation per *unique* address:
            // repeat stores used to push a duplicate per store, inflating
            // the commit flush loop for write-hot transactions.
            ax.eager_writes.push(addr.0);
        }
        ax.s.store(addr, val);
        ax.trace(EventKind::TxWrite, o as u64, addr.0);
        Ok(())
    }

    fn read_only(&self, ax: &TxAccess) -> bool {
        ax.owned.is_empty() && ax.fresh_blocks.is_empty()
    }

    fn write_set_size(&self, ax: &TxAccess) -> u64 {
        ax.entries.len() as u64
    }

    /// Encounter-time locking already acquired everything.
    fn pre_commit_acquire(&self, _ax: &mut TxAccess) -> bool {
        true
    }

    fn make_durable(&self, ax: &mut TxAccess) {
        persist_in_place(ax);
        let now = ax.s.now();
        ax.timer.switch(now, Phase::LogAppend);
        truncate_log(ax);
    }

    fn commit_publish(&self, ax: &mut TxAccess, wv: u64) {
        ax.release_owned(Phase::Validation, Some(wv));
    }

    fn make_prepared(&self, ax: &mut TxAccess, gtid: u64) {
        persist_in_place(ax);
        // But do NOT truncate: the sealed undo entries are the only way
        // a decide-abort (or presumed-abort recovery) can restore the
        // in-place writes. Seal the in-doubt window with the PREPARED
        // marker instead.
        ax.persist_state(prepared_marker(ax.entries.len() as u64, gtid));
    }

    fn commit_prepared(&self, ax: &mut TxAccess, wv: u64) {
        // Decide-commit: truncate the undo log and fence it before the
        // marker is cleared (under one fence, IDLE could persist alone and
        // recovery would roll back a committed participant), then release
        // the orecs. In-place data is durable since prepare.
        let now = ax.s.now();
        ax.timer.switch(now, Phase::LogAppend);
        if !ax.entries.is_empty() {
            truncate_log(ax);
        }
        ax.persist_state(STATE_IDLE);
        self.commit_publish(ax, wv);
    }

    fn resolve_prepared(&self, ctx: &mut RecoverCtx<'_>, committed: bool) {
        if committed {
            // In-place data was durable at prepare; the entries hold old
            // values and must NOT be restored. Truncate and retire.
            ctx.truncate_entries();
            ctx.retire();
        } else {
            // Decide-abort: the ordinary crashed-undo repair — roll the
            // seal-valid prefix back, truncate, retire.
            self.recover_apply(ctx);
        }
    }

    fn abort_rollback(&self, ax: &mut TxAccess, wv: Option<u64>) {
        match wv {
            Some(wv) => rollback_undo(ax, wv),
            None => {
                // User abort: only bump the clock when in-place writes
                // actually happened (a read-only attempt rolls back to
                // nothing).
                if !ax.owned.is_empty() {
                    let wv = ax.ptm.clock.bump();
                    rollback_undo(ax, wv);
                }
            }
        }
    }

    fn recover_apply(&self, ctx: &mut RecoverCtx<'_>) {
        // Collect the valid prefix of entries, sealed under the
        // descriptor's persisted sequence number.
        let seq = ctx.primary.raw_load(W_SEQ);
        let mut valid = Vec::new();
        for i in 0..ctx.capacity() {
            let (a, old, chk) = ctx.raw_entry(i);
            if a == 0 {
                break;
            }
            if chk != seal(a, old, seq) {
                // Torn tail entry: its in-place store never happened
                // (the fence orders entry before data), so stopping
                // here is safe.
                ctx.report.torn_entries += 1;
                break;
            }
            valid.push((a, old));
        }
        // Nothing is stored unless every entry to roll back names a
        // pool word.
        let targets = |_: &RecoverCtx<'_>, i: usize| Some(PAddr(valid[i].0));
        if ctx
            .sealed_count("seal-valid", valid.len() as u64, "rollback", targets)
            .is_none()
        {
            return;
        }
        if !valid.is_empty() && !ctx.opts.skip_undo_rollback {
            for &(a, old) in valid.iter().rev() {
                ctx.store_persist(PAddr(a), old);
                ctx.report.undo_entries += 1;
            }
            ctx.report.undo_rolled_back += 1;
        }
        // Entries are only erased *after* every rollback store is
        // durable (see truncate_entries' ordering contract).
        ctx.truncate_entries();
        ctx.retire();
    }
}
