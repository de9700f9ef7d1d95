//! Durable HTM via aliased back-end logging (Giles et al., *Hardware
//! Transactional Persistent Memory*): the one hardware path, under
//! every durability domain.
//!
//! A `clwb` aborts a TSX transaction (the paper's §V observation), so
//! the body runs with buffered writes and no orec acquisition, flush or
//! fence inside the section. What follows the section depends on one
//! thing, `domain().requires_flushes()`:
//!
//! * **yes (ADR)** — the write set is persisted to a redo-style
//!   *back-end log* and sealed with the COMMITTED marker (two fences,
//!   both outside the contention window), then home locations are
//!   written back lazily with **no** writeback fence — a torn writeback
//!   is repaired by replaying the sealed log.
//! * **no (eADR, PDRAM, PDRAM-Lite)** — cache visibility *is*
//!   durability, so `xend` is the commit point: the write set is applied
//!   in place inside a crash-atomic section and the log is skipped. The
//!   software fallback still logs (its stores can tear) but retires its
//!   ring *before* releasing its orecs, so outside a software commit
//!   the ring is empty and no stale entry can replay over a later,
//!   unlogged hardware commit of the same word.
//!
//! The back-end log is a per-thread *ring*: sealed entries of earlier
//! transactions stay in place (slots `0..log_sealed`) and the COMMITTED
//! marker's count grows to cover the whole valid prefix, so replay
//! applies slots in order and later entries win. The ring is recycled
//! (fence, durable IDLE, `log_sealed = 0`) outside the section — from
//! [`LogPolicy::htm_prepare`] on the hardware path, from `make_durable`
//! on the software path.
//!
//! **Cross-log overlap.** Entries outlive their transaction's orec
//! release, so two threads' rings can both hold a committed entry for
//! the same word — recovery would then depend on cross-log replay
//! order. The shared pending table (`Ptm::pending_log`) restores the
//! one-covering-entry invariant at commit time: before a committer logs
//! a word a live entry (another ring's, or its own ring's from an
//! earlier transaction) still covers, it (a) makes the old committed
//! value durable at home (`clwb` + one batched `sfence` — the previous
//! commit deliberately skipped the writeback fence) and (b) *tombstones*
//! the superseded entry by flipping its checksum word, so the stale
//! value can never replay over the new one.
//!
//! **Lock discipline.** The table mutex guards *only* the DRAM lookup-
//! and-register pass: a holder must never issue a timed memory
//! operation, because timed ops can wait in the clock-domain lag window
//! for peers whose virtual clocks are frozen while they are parked on
//! this very mutex (deadlock). The timed tombstone work therefore runs
//! *after* the lock is dropped, covered by `Ptm::tombstones_in_flight`
//! — incremented under the lock before the stores begin, decremented
//! when they retire. Ring recycling deregisters a thread's records
//! before any slot reuse and, under the same lock hold as its check,
//! waits for in-flight tombstones to drain first, so a tombstone store
//! can never land in a recycled slot. (Orecs already serialize two
//! committers of the same word, so the table pass itself is race-free
//! per address; a tombstone landing on an already-retired ring is
//! harmless — its slots are not yet reused and its marker is IDLE.)
//!
//! Conflict detection on the hardware path is the section itself
//! ([`pmem_sim::MemSession::htm_commit`] checks the line-granular
//! footprint against concurrently published lines); the global clock is
//! only bumped, so unrelated hardware commits never serialize against
//! each other. Software commits of this policy publish their write
//! lines to the same conflict table before releasing their orecs, so an
//! overlapping open section aborts instead of reading a half-published
//! write set.

use std::sync::atomic::Ordering;

use pmem_sim::PAddr;

use trace::{EventKind, HtmAbortCause};

use crate::access::TxAccess;
use crate::config::{Algo, OREC_NS};
use crate::log::{
    committed_marker, is_committed, marker_count, prepared_count, prepared_marker, seal, ALGO_HTM,
    STATE_IDLE, W_STATE,
};
use crate::orec::is_locked;
use crate::phases::Phase;
use crate::recovery::RecoverCtx;
use crate::stats::PtmStats;
use crate::txn::TxResult;

use super::LogPolicy;

/// A committed-but-unretired back-end log entry, registered in
/// `Ptm::pending_log` keyed by the home address it covers. `handle` is
/// the entry's checksum word, the target of a tombstone.
pub(crate) struct PendingEntry {
    /// Thread (= log) that owns the entry.
    pub tid: u64,
    /// Address of the entry's checksum word.
    pub handle: PAddr,
}

/// Sealed entries accumulated before the ring is recycled.
///
/// The bound is a cache-residency decision, not a capacity one: ring
/// slots are only rewritten after a recycle, so the ring's working set
/// is `threshold × 32 B`. Letting the ring sprawl (say, to half of a
/// multi-thousand-entry log) means nearly every append lands on a
/// never-touched line and pays a compulsory L3 miss filled at media
/// latency — far more than the two fences a recycle costs. 128 entries
/// keep the hot ring at 4 KB (64 lines) while recycling rarely enough
/// (every ~8 write transactions) that its fences amortize away.
const RECYCLE_ENTRIES: usize = 128;

fn recycle_threshold(ax: &TxAccess) -> usize {
    RECYCLE_ENTRIES.min(ax.log.capacity / 2)
}

/// Recycle before a commit could overflow the ring or sprawl past the
/// hot-set bound.
fn ring_needs_reset(ax: &TxAccess, n: usize) -> bool {
    ax.log_sealed + n > ax.log.capacity || ax.log_sealed >= recycle_threshold(ax)
}

/// Retire the whole ring durably and deregister this thread's pending
/// entries. Fences — callers must never be inside a hardware section.
fn reset_ring(ax: &mut TxAccess) {
    if ax.log_sealed == 0 {
        return;
    }
    let now = ax.s.now();
    ax.timer.switch(now, Phase::LogAppend);
    // Drain the deferred home writebacks of every entry the ring still
    // covers: once the marker is gone the log can no longer repair a
    // torn one.
    ax.fence();
    ax.seal_header(0, STATE_IDLE);
    ax.log_sealed = 0;
    // Deregister *before* any slot reuse: a committer finding a stale
    // record of ours would tombstone a slot about to hold a live entry.
    // The counter check and the retain share one lock hold, so no new
    // tombstone targeting this ring can start in between (after the
    // retain, no record with this tid exists to supersede).
    let tid = ax.tid;
    loop {
        {
            let mut table = ax.ptm.pending_log.lock().unwrap();
            if ax.ptm.tombstones_in_flight.load(Ordering::Acquire) == 0 {
                table.retain(|_, pe| pe.tid != tid);
                break;
            }
        }
        // A peer is persisting tombstones outside the lock (possibly
        // into this retired ring — harmless, the slots are not reused
        // until the retain above runs). Wait with virtual time
        // advancing, same idiom as the contention backoff: a frozen
        // clock here would stall the peer's own timed operations.
        ax.s.advance(32);
        ax.s.publish_clock();
        std::thread::yield_now();
    }
}

/// Persist `ax.entries` into ring slots `log_sealed..` and seal them
/// under the grown COMMITTED marker — or, when `gtid` is set (the 2PC
/// prepare path), under a PREPARED marker: two fences (entries,
/// marker), the policy's entire per-commit fence budget. Handles
/// cross-log overlap via the pending table (see the module docs) and
/// advances `log_sealed`. Caller guarantees the entries fit
/// (`log_sealed + entries.len() <= capacity`); the prepare path
/// additionally guarantees the ring was reset, so a PREPARED marker's
/// count covers only the in-doubt transaction's own entries.
fn append_and_seal(ax: &mut TxAccess, wv: u64, gtid: Option<u64>) {
    let base = ax.log_sealed;
    let n = ax.entries.len();
    debug_assert!(base + n <= ax.log.capacity, "back-end ring overflow");
    let now = ax.s.now();
    ax.timer.switch(now, Phase::LogAppend);
    // DRAM-only table pass under the lock (see the module docs for the
    // lock discipline): register this commit's entries and collect the
    // superseded ones — a foreign ring's or this thread's own from an
    // earlier transaction, uniformly — so the at-most-one-valid-entry-
    // per-word invariant holds globally and cross-log replay order
    // never matters. If anything was superseded, raise the in-flight
    // counter *before* unlocking so a concurrent ring recycle waits for
    // the timed tombstone stores below.
    let superseded = {
        let mut table = ax.ptm.pending_log.lock().unwrap();
        let mut superseded: Vec<(PAddr, PAddr)> = Vec::new();
        for i in 0..n {
            let a = ax.entries[i].0;
            let handle = ax.log.entry_addr(base + i).offset(3);
            if let Some(prev) = table.insert(
                a,
                PendingEntry {
                    tid: ax.tid,
                    handle,
                },
            ) {
                superseded.push((PAddr(a), prev.handle));
            }
        }
        if !superseded.is_empty() {
            ax.ptm.tombstones_in_flight.fetch_add(1, Ordering::AcqRel);
        }
        superseded
    };
    // Timed tombstone work, no lock held. The superseded entry's home
    // writeback was unfenced, so the old committed value is persisted
    // first (one batched `sfence` per commit, only when an overlap
    // exists); the tombstones' own `clwb`s drain at the entry fence
    // below — durably before this commit's marker.
    if !superseded.is_empty() {
        for &(home, _) in &superseded {
            ax.s.clwb(home);
        }
        if !ax.ptm.config.elide_fences {
            ax.s.sfence();
        }
        for &(_, h) in &superseded {
            let chk = ax.s.load(h);
            ax.s.store(h, chk ^ 1);
            ax.s.clwb(h);
        }
        ax.ptm.tombstones_in_flight.fetch_sub(1, Ordering::AcqRel);
    }
    for i in 0..n {
        let (a, v) = ax.entries[i];
        let e = ax.log.entry_addr(base + i);
        ax.s.store(e, a);
        ax.s.store(e.offset(1), v);
        ax.s.store(e.offset(2), wv);
        ax.s.store(e.offset(3), seal(a, v, wv));
    }
    // Persist alloc-new initialization and the fresh entries: one flush
    // per line, one fence for everything (tombstones included).
    ax.offer_fresh_blocks();
    for i in 0..n {
        ax.offer_adjacent(ax.log.entry_addr(base + i));
    }
    ax.close_window();
    ax.fence();
    // The marker's count covers the whole valid ring prefix, so replay
    // walks slots in order and later transactions' entries win.
    let total = (base + n) as u64;
    let marker = match gtid {
        Some(g) => prepared_marker(total, g),
        None => committed_marker(total),
    };
    ax.seal_header(total, marker);
    ax.log_sealed = base + n;
    PtmStats::add(&ax.ptm.stats.backend_log_bytes, n as u64 * 32);
}

/// Lazy home writeback + orec release at `wv`. Deliberately unfenced:
/// the sealed log repairs a torn writeback, and the `clwb`s drain at
/// the next ring-reset fence at the latest.
fn publish_home(ax: &mut TxAccess, wv: u64) {
    let now = ax.s.now();
    ax.timer.switch(now, Phase::Writeback);
    // Two passes: complete ALL home stores before offering any line. A
    // clwb snapshots the line at issue time, so a direct flush
    // interleaved between two same-line stores captures only the first
    // — and line dedup would then skip the re-flush the second store
    // needs, leaving it unflushed forever. A redundant flush (line
    // revisited non-adjacently) is merely slow; a skipped one loses
    // committed data once the ring entry covering it is recycled.
    for i in 0..ax.entries.len() {
        let (a, v) = ax.entries[i];
        ax.s.store(PAddr(a), v);
    }
    for i in 0..ax.entries.len() {
        ax.offer_adjacent(PAddr(ax.entries[i].0));
    }
    ax.close_data_window();
    // Publish the write lines to the hardware conflict table while the
    // orecs still exclude readers, so an overlapping open section
    // aborts instead of observing a partial write set.
    let entries = &ax.entries;
    ax.s.htm_publish_lines(entries.iter().map(|&(a, _)| PAddr(a)));
    if !ax.s.machine().domain().requires_flushes() {
        // Hardware commits log nothing here: an entry left sealed past
        // the orec release would replay over a later one of the same
        // word. The stores above are already durable.
        reset_ring(ax);
    }
    ax.release_owned_at(wv);
}

/// Write the live entries among ring slots `0..count` back home, in
/// slot order: later transactions' entries overwrite earlier ones for
/// the same word. Checksum failures are tombstoned entries (a newer
/// commit in another ring covers the word) — skipped, counted as torn.
fn replay(ctx: &mut RecoverCtx<'_>, count: usize) {
    for i in 0..count {
        let (a, v, wv, chk) = ctx.raw_entry4(i);
        if chk != seal(a, v, wv) {
            ctx.report.torn_entries += 1;
            continue;
        }
        ctx.store_persist(PAddr(a), v);
        ctx.report.htm_entries += 1;
    }
}

pub struct HtmPolicy;

impl LogPolicy for HtmPolicy {
    fn algo(&self) -> Algo {
        Algo::HtmLogged
    }

    fn persistent_tag(&self) -> u64 {
        ALGO_HTM
    }

    fn htm_mode(&self) -> bool {
        true
    }

    /// Recycle the ring *before* the section opens — the one place the
    /// hardware path may fence.
    fn htm_prepare(&self, ax: &mut TxAccess) {
        if ax.log_sealed >= recycle_threshold(ax) {
            reset_ring(ax);
        }
    }

    /// The retired-section commit: acquire write-set orecs (DRAM
    /// metadata — legal in a section), serialize via the hardware
    /// conflict check, and only then touch persistence.
    fn htm_commit(&self, ax: &mut TxAccess) -> bool {
        let now = ax.s.now();
        ax.timer.switch(now, Phase::Validation);
        if ax.entries.is_empty() {
            // Read-only: per-read orec validation against start_time
            // already guarantees a consistent snapshot.
            let fp = ax.s.htm_footprint_lines() as u64;
            ax.s.htm_commit_readonly();
            ax.trace(EventKind::HtmRetire, fp, 0);
            ax.apply_frees();
            return true;
        }
        let base = ax.log_sealed;
        let n = ax.entries.len();
        if base + n > ax.log.capacity {
            // Ring full. Fences are illegal here, so abort and let
            // `htm_prepare` recycle before the next attempt.
            ax.s.htm_abort();
            ax.htm_abort_cause = Some(HtmAbortCause::Explicit);
            return false;
        }
        for i in 0..n {
            let addr = PAddr(ax.entries[i].0);
            let o = ax.ptm.orecs.index_of(addr);
            if ax.owned_map.get(o as u64).is_some() {
                continue;
            }
            let v = ax.ptm.orecs.load(o);
            if is_locked(v) || ax.ptm.orecs.try_lock(o, v, ax.tid).is_err() {
                ax.s.htm_abort();
                ax.htm_abort_cause = Some(HtmAbortCause::Conflict);
                ax.release_owned_restore();
                return false;
            }
            ax.owned_map.insert(o as u64, ax.owned.len() as u64);
            ax.owned.push((o, v));
        }
        // Unrelated hardware commits must not serialize — the footprint
        // check below is the conflict detector. The timestamp only
        // versions the orecs and salts the entry checksums.
        let wv = ax.ptm.clock.bump();
        ax.s.advance(OREC_NS);
        let fp = ax.s.htm_footprint_lines() as u64;
        if !ax.s.htm_commit() {
            ax.htm_abort_cause = Some(HtmAbortCause::Conflict);
            ax.release_owned_restore();
            return false;
        }
        // Section retired — persistence is legal again, and the
        // contention window above contained no clwb or sfence.
        ax.trace(EventKind::HtmRetire, fp, n as u64);
        if ax.s.machine().domain().requires_flushes() {
            append_and_seal(ax, wv, None);
            publish_home(ax, wv);
        } else {
            // A real hardware transaction's stores become visible — and
            // here durable — atomically at xend, with the orec release
            // (in-section metadata, uncharged like the acquire). No log
            // repairs a torn application: a crash must not split it.
            debug_assert_eq!(ax.log_sealed, 0, "ring outlived a software commit");
            ax.s.enter_atomic();
            let now = ax.s.now();
            ax.timer.switch(now, Phase::Writeback);
            for i in 0..n {
                let (a, v) = ax.entries[i];
                ax.s.store(PAddr(a), v);
            }
            let now = ax.s.now();
            ax.timer.switch(now, Phase::Validation);
            for i in 0..ax.owned.len() {
                ax.ptm.orecs.release(ax.owned[i].0, wv);
            }
            ax.s.exit_atomic();
        }
        ax.ptm.stats.note_write_set(n as u64);
        ax.apply_frees();
        true
    }

    fn on_read(&self, ax: &mut TxAccess, addr: PAddr, _o: u32) -> Option<TxResult<u64>> {
        ax.buffered_read(addr)
    }

    /// Software-path write capture: DRAM-only buffering — unlike redo,
    /// nothing touches the persistent log until `make_durable` (the
    /// ring slot is not known until commit time).
    fn on_write(&self, ax: &mut TxAccess, addr: PAddr, val: u64) -> TxResult<()> {
        if ax.ptm.config.tracing {
            let o = ax.ptm.orecs.index_of(addr);
            ax.s.trace_event(EventKind::TxWrite, o as u64, addr.0);
        }
        ax.index_cost();
        if let Some(i) = ax.redo_index.get(addr.0) {
            ax.entries[i as usize].1 = val;
            return Ok(());
        }
        let i = ax.entries.len();
        assert!(i < ax.log.capacity, "back-end log overflow ({i} entries)");
        ax.entries.push((addr.0, val));
        ax.redo_index.insert(addr.0, i as u64);
        Ok(())
    }

    fn read_only(&self, ax: &TxAccess) -> bool {
        ax.entries.is_empty()
    }

    fn write_set_size(&self, ax: &TxAccess) -> u64 {
        ax.entries.len() as u64
    }

    fn pre_commit_acquire(&self, ax: &mut TxAccess) -> bool {
        ax.acquire_each(ax.entries.len(), |ax, i| ax.entries[i].0)
    }

    fn make_durable(&self, ax: &mut TxAccess) {
        if ring_needs_reset(ax, ax.entries.len()) {
            // Software path: fences are legal even while holding the
            // write-set orecs.
            reset_ring(ax);
        }
        assert!(
            ax.entries.len() <= ax.log.capacity,
            "back-end log overflow ({} entries)",
            ax.entries.len()
        );
        append_and_seal(ax, ax.commit_wv, None);
    }

    fn commit_publish(&self, ax: &mut TxAccess, wv: u64) {
        publish_home(ax, wv);
    }

    fn make_prepared(&self, ax: &mut TxAccess, gtid: u64) {
        // Force a ring reset even below the recycle threshold: a
        // PREPARED marker covers the whole valid prefix, and a
        // decide-abort must be able to drop it without losing earlier
        // committed-but-unretired transactions' entries (their home
        // writebacks were unfenced). Resetting first means the in-doubt
        // window contains exactly this transaction.
        reset_ring(ax);
        assert!(
            ax.entries.len() <= ax.log.capacity,
            "back-end log overflow ({} entries)",
            ax.entries.len()
        );
        append_and_seal(ax, ax.commit_wv, Some(gtid));
    }

    fn commit_prepared(&self, ax: &mut TxAccess, wv: u64) {
        // Upgrade the marker to COMMITTED durably *before* the lazy
        // home writeback: once the coordinator record is tombstoned, a
        // still-PREPARED ring would resolve as aborted and retire
        // without replay, leaving the unfenced writeback unrepairable.
        ax.persist_state(committed_marker(ax.log_sealed as u64));
        publish_home(ax, wv);
    }

    fn abort_prepared(&self, ax: &mut TxAccess, _wv: u64) {
        // Nothing was written in place; the sealed prepared entries are
        // dropped by retiring the ring durably (which also deregisters
        // this thread's pending-table records before any slot reuse).
        reset_ring(ax);
        ax.release_owned_restore();
    }

    fn resolve_prepared(&self, ctx: &mut RecoverCtx<'_>, committed: bool) {
        let state = ctx.primary.raw_load(W_STATE);
        if committed {
            // The prepare path reset the ring first, so the prefix is
            // exactly the in-doubt transaction.
            let Some(count) = ctx.sealed_count("prepared", prepared_count(state), "replay") else {
                return;
            };
            replay(ctx, count);
        }
        // Presumed abort: nothing in place — retiring is the rollback.
        ctx.retire();
    }

    /// Nothing was written in place and no ring slot was consumed;
    /// restore pre-lock versions.
    fn abort_rollback(&self, ax: &mut TxAccess, _wv: Option<u64>) {
        ax.release_owned_restore();
    }

    fn recover_apply(&self, ctx: &mut RecoverCtx<'_>) {
        let state = ctx.primary.raw_load(W_STATE);
        if is_committed(state) && !ctx.opts.skip_redo_replay {
            let Some(count) = ctx.sealed_count("committed", marker_count(state), "replay") else {
                return;
            };
            replay(ctx, count);
            ctx.report.htm_replayed += 1;
        }
        ctx.retire();
    }
}
