//! Post-crash recovery.
//!
//! Runs once, after [`pmem_sim::Machine::reboot`] and before any new
//! transactions. It discovers every thread's persistent log by pool
//! name and:
//!
//! * **redo, COMMITTED**: the transaction logically happened — replay all
//!   `count` entries into program data and persist them, then retire the
//!   log. Replay is idempotent, so a crash *during recovery* is handled
//!   by simply recovering again.
//! * **redo, not committed**: the transaction never happened; retire the
//!   log.
//! * **undo, live entries**: the crash interrupted an in-flight
//!   transaction after some in-place writes — roll the entries back in
//!   reverse order, persist the restored values, truncate.
//! * **cow, COMMITTED**: publish each logged shadow line's masked words
//!   to its home location (idempotent, like redo replay), then retire;
//!   the orphaned shadow blocks are reclaimed by the restart GC.
//! * **htm, COMMITTED**: the back-end *ring* may seal several
//!   transactions' entries under one grown marker — replay the slots in
//!   order, skipping checksum failures (tombstoned entries a newer
//!   commit superseded), then retire.
//!
//! The per-algorithm repair logic lives in each policy's
//! [`crate::algo::LogPolicy::recover_apply`], dispatched on the log
//! header's persistent tag; this module owns discovery and the
//! [`RecoverCtx`] repair primitives. Recovery is untimed (it happens
//! outside measured execution) and uses raw pool operations plus
//! `persist_line_now`.
//!
//! ## One serial pass, in pool order
//!
//! Discovery is a header scan in pool order and the discovered logs are
//! repaired one after another in that same order, on the calling
//! thread. Pool order is not commit order; repairing in it is sound
//! because distinct logs commute:
//!
//! * every committed-but-unretired log's write set still holds its
//!   orecs — the retire store is durable *before* any orec is released
//!   — so at most one unretired committed log covers any given word.
//!   HtmLogged entries outlive their orec release, but a commit that
//!   overwrites a word another ring still covers *tombstones* the
//!   superseded entry before sealing its own (see `crate::algo::htm`),
//!   restoring the one-covering-entry invariant;
//! * undo rollback targets only words its own (in-flight) transaction
//!   wrote, which it likewise still owns.
//!
//! Serial on purpose: a worker-parallel repair (logs partitioned across
//! threads) measured slower than this pass in every cell of
//! `recovery_bench`'s grid (EXPERIMENTS.md "Restart latency").
//!
//! ## Fail-soft discovery
//!
//! A pool whose name collides with [`LOG_POOL_PREFIX`] but whose header
//! is garbage (unknown algorithm tag, impossible `primary_cap`,
//! dangling overflow pool id, marker count beyond the log's physical
//! capacity) must not panic recovery or replay garbage: the log is left
//! untouched and a per-log diagnostic is pushed onto
//! [`RecoveryReport::malformed`]. The same holds for a sealed entry
//! whose address names no pool word: before its first repair store a
//! policy checks every address that repair will store to or load from
//! ([`RecoverCtx::sealed_count`]).

use std::sync::Arc;
use std::time::Instant;

use pmem_sim::{Machine, PAddr, PmemPool, PoolId, SiteKind, WORDS_PER_LINE};

use crate::log::{
    is_prepared, TxLog, ENTRY0, ENTRY_WORDS, LOG_POOL_PREFIX, OVF_POOL_PREFIX, STATE_IDLE, W_ALGO,
    W_OVF, W_PRIMARY_CAP, W_STATE,
};

/// Fault-injection switches for harness self-tests.
///
/// A crash-site sweep that always passes proves nothing until it is shown
/// to *fail* when recovery is deliberately broken. These switches disable
/// individual recovery obligations so `ptm::crash_harness` (and its
/// tests) can demonstrate that the sweep catches the resulting
/// inconsistencies with a deterministic reproducer. Never set in
/// production recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverOptions {
    /// Skip rolling back in-flight undo logs (leaves torn in-place
    /// writes of uncommitted transactions in program data).
    pub skip_undo_rollback: bool,
    /// Skip replaying committed redo logs (loses transactions whose
    /// commit marker is durable but whose writeback was not).
    pub skip_redo_replay: bool,
    /// Inert: nothing reads it — recovery is one serial pass whatever
    /// it holds. It selected the worker-parallel repair until that path
    /// was removed, and stays only because `benchmark/src/suite/bank.rs`
    /// spells `workers: 1` and a PR that changes the system may not
    /// touch `benchmark/` (ROADMAP item 5 drops that line, then this
    /// field).
    pub workers: usize,
}

/// What recovery found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Per-thread logs examined.
    pub logs_scanned: usize,
    /// Committed redo logs replayed forward.
    pub redo_replayed: usize,
    /// Redo entries written back during replay.
    pub redo_entries: usize,
    /// In-flight undo logs rolled back.
    pub undo_rolled_back: usize,
    /// Undo entries restored.
    pub undo_entries: usize,
    /// Undo entries rejected by the torn-write checksum.
    pub torn_entries: usize,
    /// Committed cow logs whose shadow lines were published forward.
    pub cow_published: usize,
    /// Cow words copied shadow → home during publish replay.
    pub cow_words: usize,
    /// Committed HtmLogged back-end rings replayed forward.
    pub htm_replayed: usize,
    /// Live (non-tombstoned) ring entries written back during replay.
    pub htm_entries: usize,
    /// PREPARED (in-doubt 2PC participant) logs the per-shard pass left
    /// untouched — their fate is a *cross-shard* decision taken by
    /// [`resolve_in_doubt`] once every shard's coordinator pool is
    /// readable.
    pub prepared_skipped: usize,
    /// In-doubt participant logs resolved as committed (a durable,
    /// seal-valid coordinator record carried their gtid).
    pub indoubt_resolved_commit: usize,
    /// In-doubt participant logs resolved as aborted (no durable
    /// coordinator record — presumed abort).
    pub indoubt_resolved_abort: usize,
    /// Per-log diagnostics for prefix-colliding pools whose header
    /// failed validation — these logs are left untouched.
    pub malformed: Vec<String>,
    /// Wall-clock duration of this recovery pass.
    pub recovery_ns: u64,
}

impl RecoveryReport {
    /// Fold `other` (another shard's pass) into `self`. Counts add
    /// saturating (mirrors the `ReopenReports` aggregation rules);
    /// diagnostics concatenate in call order; the timing field adds,
    /// since shards restart one after another on one thread.
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.logs_scanned = self.logs_scanned.saturating_add(other.logs_scanned);
        self.redo_replayed = self.redo_replayed.saturating_add(other.redo_replayed);
        self.redo_entries = self.redo_entries.saturating_add(other.redo_entries);
        self.undo_rolled_back = self.undo_rolled_back.saturating_add(other.undo_rolled_back);
        self.undo_entries = self.undo_entries.saturating_add(other.undo_entries);
        self.torn_entries = self.torn_entries.saturating_add(other.torn_entries);
        self.cow_published = self.cow_published.saturating_add(other.cow_published);
        self.cow_words = self.cow_words.saturating_add(other.cow_words);
        self.htm_replayed = self.htm_replayed.saturating_add(other.htm_replayed);
        self.htm_entries = self.htm_entries.saturating_add(other.htm_entries);
        self.prepared_skipped = self.prepared_skipped.saturating_add(other.prepared_skipped);
        self.indoubt_resolved_commit = self
            .indoubt_resolved_commit
            .saturating_add(other.indoubt_resolved_commit);
        self.indoubt_resolved_abort = self
            .indoubt_resolved_abort
            .saturating_add(other.indoubt_resolved_abort);
        self.malformed.extend(other.malformed.iter().cloned());
        self.recovery_ns = self.recovery_ns.saturating_add(other.recovery_ns);
    }

    /// The report with its wall-clock timing zeroed: what must be
    /// bit-identical between two passes over the same image.
    pub fn without_timing(&self) -> RecoveryReport {
        RecoveryReport {
            recovery_ns: 0,
            ..self.clone()
        }
    }
}

/// One crashed log, as handed to [`crate::algo::LogPolicy::recover_apply`]:
/// the discovered pools plus the repair primitives every algorithm's
/// recovery is built from. Each persist primitive is its own crash site
/// ([`SiteKind::RecoveryPersist`]) so the idempotence sweeps enumerate
/// mid-recovery failures of any algorithm uniformly.
pub struct RecoverCtx<'a> {
    pub machine: &'a Arc<Machine>,
    /// The log's primary pool (header + first `primary_cap` entries).
    pub primary: Arc<PmemPool>,
    /// PDRAM-Lite spill pool, when the header points at one.
    pub overflow: Option<Arc<PmemPool>>,
    pub primary_cap: usize,
    pub opts: RecoverOptions,
    pub report: &'a mut RecoveryReport,
    /// Write-back batching for replay loops: the last line stored to
    /// but not yet persisted (with its pool handle cached, sparing the
    /// per-entry pool-table lookup). Entries overwhelmingly target
    /// consecutive words, so batching turns one `persist_line_now` per
    /// *entry* into one per *line* — the dominant cost of a large
    /// replay.
    pending: Option<(Arc<PmemPool>, u64)>,
}

impl RecoverCtx<'_> {
    /// Durable raw store of one word (with its crash site). Recovery must be idempotent under a failure at any point
    /// of its own execution.
    ///
    /// The line flush is deferred while consecutive stores hit the same
    /// line; [`Self::truncate_entries`] and [`Self::retire`] flush
    /// first, so the ordering invariant recovery correctness rests on —
    /// every replayed store durable before the retire is — holds
    /// unchanged. A crash while a line is pending just re-runs the
    /// (idempotent) repair: the log is still live.
    pub fn store_persist(&mut self, addr: PAddr, value: u64) {
        self.machine.note_site(SiteKind::RecoveryPersist, false);
        let line = addr.word() / WORDS_PER_LINE as u64;
        let reuse = match self.pending.take() {
            Some((pool, l)) if pool.id() == addr.pool() => {
                if l != line {
                    pool.persist_line_now(l);
                }
                Some(pool)
            }
            Some((pool, l)) => {
                pool.persist_line_now(l);
                None
            }
            None => None,
        };
        let pool = reuse.unwrap_or_else(|| self.machine.pool(addr.pool()));
        pool.raw_store(addr.word(), value);
        self.pending = Some((pool, line));
    }

    /// Persist the deferred line, if any. Idempotent; called by the
    /// durable-ordering primitives below and after each log's repair.
    pub fn flush_pending(&mut self) {
        if let Some((pool, line)) = self.pending.take() {
            pool.persist_line_now(line);
        }
    }

    /// Untimed read of log entry `i` (primary or overflow).
    pub fn raw_entry(&self, i: usize) -> (u64, u64, u64) {
        TxLog::raw_entry(&self.primary, self.overflow.as_deref(), self.primary_cap, i)
    }

    /// Untimed read of all four words of log entry `i` (HtmLogged ring
    /// entries carry the sealing timestamp as their third word).
    pub fn raw_entry4(&self, i: usize) -> (u64, u64, u64, u64) {
        TxLog::raw_entry4(&self.primary, self.overflow.as_deref(), self.primary_cap, i)
    }

    /// Physical entry capacity of the discovered pools — the hard upper
    /// bound any persisted count field must respect. A marker count
    /// beyond it proves header corruption: reject via [`Self::malformed`]
    /// rather than reading out of bounds.
    pub fn capacity(&self) -> usize {
        self.primary_cap
            + self
                .overflow
                .as_ref()
                .map_or(0, |p| p.len_words() / ENTRY_WORDS as usize)
    }

    /// Bound-check the entry `count` a `kind` ("committed"/"prepared")
    /// marker sealed, before a replay loop trusts it. Callers take the
    /// count from the marker word, NOT from the `W_COUNT` mirror: a torn
    /// header line can persist the fresh marker next to a stale count,
    /// and a stale (larger) count would replay leftover entries from an
    /// earlier transaction on top of this one's write set. A legitimate
    /// commit can never seal more entries than the log physically holds,
    /// so a larger count means the marker word is corrupt: fail soft —
    /// no out-of-bounds entry reads, no replay of garbage, `None`, and
    /// the log left as-is for inspection (`action` names what was
    /// skipped). The same holds when an address `targets(ctx, i)` yields
    /// for a sealed entry `i` — every word the repair of that entry will
    /// store to or load from — names no pool word: a policy runs this
    /// before its first repair store. (Undo, which seals each entry with
    /// a checksum rather than a marker, passes its seal-valid prefix.)
    pub fn sealed_count<I: IntoIterator<Item = PAddr>>(
        &mut self,
        kind: &str,
        count: u64,
        action: &str,
        targets: impl Fn(&Self, usize) -> I,
    ) -> Option<usize> {
        let (count, capacity) = (count as usize, self.capacity());
        if count > capacity {
            self.malformed(format!(
                "{kind} marker count {count} exceeds log capacity {capacity} — {action} skipped"
            ));
            return None;
        }
        if let Some(a) = self.first_stray((0..count).flat_map(|i| targets(self, i))) {
            let bits = a.0;
            self.malformed(format!(
                "entry address {a} ({bits:#x}) names no pool word — {action} skipped"
            ));
            return None;
        }
        Some(count)
    }

    /// The first of `addrs` that names no word of any pool. A sealed
    /// entry's address is read from the image like any other word, so a
    /// flipped bit can name the reserved pool 0, a pool id past the
    /// table, or a word past a pool's end.
    fn first_stray(&self, addrs: impl IntoIterator<Item = PAddr>) -> Option<PAddr> {
        // One lookup per run of same-pool addresses; pool 0 stands at
        // length 0 and is never looked up.
        let mut known = (PoolId(0), 0);
        addrs.into_iter().find(|a| {
            if a.pool() != known.0 {
                let Some(p) = self.machine.try_pool(a.pool()) else {
                    return true;
                };
                known = (a.pool(), p.len_words() as u64);
            }
            a.word() >= known.1
        })
    }

    /// Record a per-log diagnostic: the log failed validation and was
    /// left untouched.
    pub fn malformed(&mut self, msg: String) {
        self.report
            .malformed
            .push(format!("pool '{}': {msg}", self.primary.name()));
    }

    /// Untimed raw load of an arbitrary persistent word (e.g. cow
    /// shadow data referenced from a log entry).
    pub fn raw_load(&self, addr: PAddr) -> u64 {
        self.machine.pool(addr.pool()).raw_load(addr.word())
    }

    /// Zero entry 0's address word (undo-style truncation), durably.
    /// Its own crash site: ordering matters for mid-recovery crashes —
    /// call only after every repair store is durable, so a re-run
    /// either sees the full valid prefix again (and harmlessly repairs
    /// it a second time) or an already-truncated log.
    pub fn truncate_entries(&mut self) {
        self.flush_pending();
        self.machine.note_site(SiteKind::RecoveryPersist, false);
        self.primary.raw_store(ENTRY0, 0);
        self.primary
            .persist_line_now(ENTRY0 / WORDS_PER_LINE as u64);
    }

    /// Retire the log to IDLE, durably. The last crash site of a log's
    /// recovery: a failure before it re-runs the (idempotent) repair, a
    /// failure after it finds an idle log.
    pub fn retire(&mut self) {
        self.flush_pending();
        self.machine.note_site(SiteKind::RecoveryPersist, false);
        self.primary.raw_store(W_STATE, STATE_IDLE);
        self.primary.persist_line_now(0);
    }
}

/// Recover every PTM log on `machine`. Idempotent.
pub fn recover(machine: &Arc<Machine>) -> RecoveryReport {
    recover_with_options(machine, RecoverOptions::default())
}

/// One discovered, header-validated log awaiting repair.
struct DiscoveredLog {
    primary: Arc<PmemPool>,
    overflow: Option<Arc<PmemPool>>,
    primary_cap: usize,
    policy: &'static dyn crate::algo::LogPolicy,
}

/// Repair one discovered log.
fn recover_one(
    machine: &Arc<Machine>,
    log: DiscoveredLog,
    opts: RecoverOptions,
    report: &mut RecoveryReport,
) {
    let mut ctx = RecoverCtx {
        machine,
        primary: log.primary,
        overflow: log.overflow,
        primary_cap: log.primary_cap,
        opts,
        report,
        pending: None,
    };
    log.policy.recover_apply(&mut ctx);
    // Belt and braces: every policy ends with `retire` (which flushes),
    // but a pending line must never outlive its log's repair.
    ctx.flush_pending();
}

/// [`recover`] with fault-injection switches.
pub fn recover_with_options(machine: &Arc<Machine>, opts: RecoverOptions) -> RecoveryReport {
    let t0 = Instant::now();
    let mut report = RecoveryReport::default();
    // Discovery validates each prefix-colliding pool fail-soft before it
    // is handed to a policy; repair follows in the same pool order.
    let (logs, prepared) = discover(machine, &mut report);
    report.prepared_skipped = prepared.len();
    for log in logs {
        recover_one(machine, log, opts, &mut report);
    }
    report.recovery_ns = t0.elapsed().as_nanos() as u64;
    report
}

/// Header scan in pool order, validating each prefix-colliding pool
/// fail-soft. Returns `(repairable, prepared)`: logs whose header
/// carries a PREPARED marker are in doubt — the per-shard pass must
/// leave them untouched, because their fate is a *cross-shard* decision
/// that [`resolve_in_doubt`] takes once every shard's coordinator pool
/// is readable.
fn discover(
    machine: &Arc<Machine>,
    report: &mut RecoveryReport,
) -> (Vec<DiscoveredLog>, Vec<DiscoveredLog>) {
    let mut logs = Vec::new();
    let mut prepared = Vec::new();
    for primary in machine.pools() {
        if !primary.name().starts_with(LOG_POOL_PREFIX)
            || primary.name().starts_with(OVF_POOL_PREFIX)
        {
            continue;
        }
        report.logs_scanned += 1;
        let tag = primary.raw_load(W_ALGO);
        let Some(policy) = crate::algo::policy_for_tag(tag) else {
            // Unformatted or foreign pool that happens to share the
            // prefix: leave it alone, but say so.
            report.malformed.push(format!(
                "pool '{}': unknown algorithm tag {tag:#x} — log left untouched",
                primary.name()
            ));
            continue;
        };
        let primary_cap = primary.raw_load(W_PRIMARY_CAP) as usize;
        if primary_cap as u64 > (primary.len_words() as u64).saturating_sub(ENTRY0) / ENTRY_WORDS {
            report.malformed.push(format!(
                "pool '{}': primary_cap {primary_cap} does not fit a {}-word pool — log left untouched",
                primary.name(),
                primary.len_words()
            ));
            continue;
        }
        let ovf_id = primary.raw_load(W_OVF) as u32;
        let overflow = match ovf_id {
            0 => None,
            id => match machine.try_pool(pmem_sim::PoolId(id)) {
                Some(p) if p.name().starts_with(OVF_POOL_PREFIX) => Some(p),
                Some(p) => {
                    report.malformed.push(format!(
                        "pool '{}': overflow id {id} names non-overflow pool '{}' — log left untouched",
                        primary.name(),
                        p.name()
                    ));
                    continue;
                }
                None => {
                    report.malformed.push(format!(
                        "pool '{}': overflow id {id} names no pool — log left untouched",
                        primary.name()
                    ));
                    continue;
                }
            },
        };
        let found = DiscoveredLog {
            primary,
            overflow,
            primary_cap,
            policy,
        };
        if is_prepared(found.primary.raw_load(W_STATE)) {
            prepared.push(found);
        } else {
            logs.push(found);
        }
    }
    (logs, prepared)
}

/// Cross-shard outcome resolution: the second recovery phase of a
/// sharded (2PC) deployment, run *after* every shard's per-shard pass.
///
/// Walks each machine's coordinator pool ([`crate::log::COORD_POOL`]) and
/// collects the gtids of every durable, seal-valid commit record; then
/// walks every PREPARED participant log in machine/pool order and hands
/// it to its policy's [`crate::algo::LogPolicy::resolve_prepared`] —
/// commit if the coordinator decided commit, presumed abort otherwise
/// (including a torn record, which fails the seal check). Finally zeroes
/// every coordinator slot durably, so a stale record can never collide
/// with a reused gtid after restart.
///
/// Deterministic under any shard recovery order (the per-shard pass
/// never touches PREPARED logs, and this pass iterates `machines` in
/// the caller's fixed shard order) and idempotent: resolved logs are
/// retired before slots are zeroed, so a crash at any point re-runs to
/// the same state. Returns one report per machine (resolution counts
/// attributed to the shard owning each participant log).
pub fn resolve_in_doubt(machines: &[Arc<Machine>]) -> Vec<RecoveryReport> {
    use crate::log::{coord_seal, prepared_gtid, COORD_POOL, COORD_SLOTS, COORD_SLOT_WORDS};
    // Phase 1: gather durable commit decisions from every coordinator
    // pool. A record is a decision iff its seal validates — a torn or
    // half-written record is indistinguishable from "never decided" and
    // resolves its transaction as aborted (presumed abort).
    let mut committed = std::collections::HashSet::new();
    let mut coords = Vec::new();
    for m in machines {
        let Some(pool) = m.pools().into_iter().find(|p| p.name() == COORD_POOL) else {
            continue;
        };
        for slot in 0..COORD_SLOTS {
            let g = pool.raw_load((slot * COORD_SLOT_WORDS) as u64);
            let s = pool.raw_load((slot * COORD_SLOT_WORDS + 1) as u64);
            if g != 0 && s == coord_seal(g) {
                committed.insert(g);
            }
        }
        coords.push(pool);
    }
    // Phase 2: resolve every in-doubt participant log, in machine/pool
    // order. Discovery re-validates headers fail-soft; its scratch
    // report is discarded (the per-shard pass already counted scans and
    // malformed diagnostics for these pools).
    let mut reports = vec![RecoveryReport::default(); machines.len()];
    for (mi, m) in machines.iter().enumerate() {
        let mut scratch = RecoveryReport::default();
        let (_, prepared) = discover(m, &mut scratch);
        let report = &mut reports[mi];
        for log in prepared {
            let gtid = prepared_gtid(log.primary.raw_load(W_STATE));
            let decide_commit = committed.contains(&gtid);
            let mut ctx = RecoverCtx {
                machine: m,
                primary: log.primary,
                overflow: log.overflow,
                primary_cap: log.primary_cap,
                opts: RecoverOptions::default(),
                report,
                pending: None,
            };
            log.policy.resolve_prepared(&mut ctx, decide_commit);
            ctx.flush_pending();
            if decide_commit {
                report.indoubt_resolved_commit += 1;
            } else {
                report.indoubt_resolved_abort += 1;
            }
        }
    }
    // Phase 3: clear the decision records. Every prepared log is retired
    // (durably) by now, so losing the records cannot change any outcome;
    // clearing them durably is what makes gtid reuse after restart safe.
    for pool in coords {
        for slot in 0..COORD_SLOTS {
            pool.raw_store((slot * COORD_SLOT_WORDS) as u64, 0);
            pool.raw_store((slot * COORD_SLOT_WORDS + 1) as u64, 0);
        }
        let lines = (COORD_SLOTS * COORD_SLOT_WORDS).div_ceil(WORDS_PER_LINE);
        for line in 0..lines as u64 {
            pool.persist_line_now(line);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PtmConfig;
    use crate::log::{committed_marker, seal, W_COUNT, W_STATE};
    use crate::txn::{Ptm, TxThread};
    use palloc::PHeap;
    use pmem_sim::{DurabilityDomain, MachineConfig, MediaKind};

    #[test]
    fn clean_logs_recover_to_nothing() {
        let m = pmem_sim::Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let ptm = Ptm::new(PtmConfig::redo());
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| tx.write(a, 5));
        let img = m.crash(0);
        let m2 = pmem_sim::Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        let r = recover(&m2);
        assert_eq!(r.logs_scanned, 1);
        assert_eq!(r.redo_replayed, 0);
        assert_eq!(r.undo_rolled_back, 0);
        assert_eq!(m2.pool(a.pool()).raw_load(a.word()), 5);
    }

    #[test]
    fn committed_marker_without_writeback_replays() {
        // Hand-craft the dangerous window: log persisted, marker durable,
        // but data writeback lost.
        let m = pmem_sim::Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg = PtmConfig::redo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let target = {
            let mut s = m.session(0);
            let t = heap.alloc(&mut s, 4);
            s.store(t, 1);
            s.clwb(t);
            s.sfence();
            t
        };
        // Entry 0: write target := 42, fully persisted; marker durable.
        let e = log.entry_addr(0);
        log.primary.raw_store(e.word(), target.0);
        log.primary.raw_store(e.word() + 1, 42);
        log.primary.persist_line_now(e.line());
        log.primary.raw_store(W_COUNT, 1);
        log.primary.raw_store(W_STATE, committed_marker(1));
        log.primary.persist_line_now(0);
        // Crash: the in-place data store never happened.
        let img = m.crash(1);
        let m2 = pmem_sim::Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        let r = recover(&m2);
        assert_eq!(r.redo_replayed, 1);
        assert_eq!(r.redo_entries, 1);
        assert_eq!(m2.pool(target.pool()).raw_load(target.word()), 42);
        // Idempotence: recovering again changes nothing.
        let r2 = recover(&m2);
        assert_eq!(r2.redo_replayed, 0);
        assert_eq!(m2.pool(target.pool()).raw_load(target.word()), 42);
    }

    #[test]
    fn stale_count_word_cannot_extend_a_committed_replay() {
        // The bug the exhaustive crash-site sweep found (site 61, redo,
        // ADR, per-word adversary): the marker and `W_COUNT` share the
        // header line but persist word by word, so a crash inside the
        // marker's flush window can keep a *stale, larger* `W_COUNT`
        // next to the fresh marker. Recovery must take the count from
        // the marker word — a stale mirror must not make it replay
        // leftover entries from an earlier transaction on top of the
        // committed write set.
        let m = pmem_sim::Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg = PtmConfig::redo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let (a, b) = {
            let mut s = m.session(0);
            let t = heap.alloc(&mut s, 4);
            s.store(t, 1);
            s.store(t.offset(1), 1);
            s.clwb(t);
            s.sfence();
            (t, t.offset(1))
        };
        // Fresh committed transaction: 1 entry (a := 42). A leftover
        // entry from an earlier, retired transaction sits right after it
        // (b := 7) and the stale `W_COUNT` mirror still says 2.
        let e0 = log.entry_addr(0);
        log.primary.raw_store(e0.word(), a.0);
        log.primary.raw_store(e0.word() + 1, 42);
        let e1 = log.entry_addr(1);
        log.primary.raw_store(e1.word(), b.0);
        log.primary.raw_store(e1.word() + 1, 7);
        log.primary.persist_line_now(e0.line());
        log.primary.persist_line_now(e1.line());
        log.primary.raw_store(W_COUNT, 2); // stale mirror survives
        log.primary.raw_store(W_STATE, committed_marker(1));
        log.primary.persist_line_now(0);
        let img = m.crash(4);
        let m2 = pmem_sim::Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        let r = recover(&m2);
        assert_eq!(r.redo_replayed, 1);
        assert_eq!(r.redo_entries, 1, "only the marker's count is replayed");
        assert_eq!(m2.pool(a.pool()).raw_load(a.word()), 42);
        assert_eq!(
            m2.pool(b.pool()).raw_load(b.word()),
            1,
            "stale leftover entry must not be replayed"
        );
    }

    #[test]
    fn inflight_undo_rolls_back() {
        // Hand-craft an in-flight undo transaction: entry persisted, data
        // overwritten in place, no truncation.
        let m = pmem_sim::Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg = PtmConfig::undo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let target = {
            let mut s = m.session(0);
            let t = heap.alloc(&mut s, 4);
            s.store(t, 7);
            s.clwb(t);
            s.sfence();
            t
        };
        let e = log.entry_addr(0);
        log.primary.raw_store(e.word(), target.0);
        log.primary.raw_store(e.word() + 1, 7); // old value
        log.primary.raw_store(e.word() + 2, seal(target.0, 7, 0));
        log.primary.persist_line_now(e.line());
        // Speculative in-place store, durable (worst case).
        heap.pool().raw_store(target.word(), 999);
        heap.pool().persist_line_now(target.line());
        let img = m.crash(2);
        let m2 = pmem_sim::Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        let r = recover(&m2);
        assert_eq!(r.undo_rolled_back, 1);
        assert_eq!(r.undo_entries, 1);
        assert_eq!(m2.pool(target.pool()).raw_load(target.word()), 7);
    }

    #[test]
    fn torn_undo_entry_is_rejected() {
        let m = pmem_sim::Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let _heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg = PtmConfig::undo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let e = log.entry_addr(0);
        // addr and checksum present, value word lost (zero), true old != 0.
        let fake_addr = PAddr::new(log.primary.id(), 9_999).0;
        log.primary.raw_store(e.word(), fake_addr);
        log.primary.raw_store(e.word() + 1, 0);
        log.primary
            .raw_store(e.word() + 2, seal(fake_addr, 31337, 0));
        log.primary.persist_line_now(e.line());
        let img = m.crash(3);
        let m2 = pmem_sim::Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        let r = recover(&m2);
        assert_eq!(r.torn_entries, 1);
        assert_eq!(r.undo_rolled_back, 0, "torn entry must not be replayed");
    }

    #[test]
    fn foreign_prefixed_pool_is_ignored() {
        let m = pmem_sim::Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        m.alloc_pool("ptm-log-weird", 64, MediaKind::Optane); // ALGO word = 0
        let r = recover(&m);
        assert_eq!(r.logs_scanned, 1);
        assert_eq!(r.redo_replayed + r.undo_rolled_back, 0);
        assert_eq!(r.malformed.len(), 1, "unknown tag must leave a diagnostic");
        assert!(
            r.malformed[0].contains("unknown algorithm tag"),
            "{:?}",
            r.malformed
        );
    }
}

#[cfg(test)]
mod malformed_log_tests {
    use super::*;
    use crate::config::PtmConfig;
    use crate::crash_harness::snapshot_pools;
    use crate::log::{committed_marker, seal, ALGO_REDO, W_COUNT};
    use pmem_sim::{DurabilityDomain, Machine, MachineConfig, MediaKind};

    fn machine() -> Arc<Machine> {
        Machine::new(MachineConfig::functional(DurabilityDomain::Adr))
    }

    /// A prefix-colliding pool whose overflow word names a pool id that
    /// does not exist must not panic recovery (it used to: discovery
    /// chased the id through the panicking `Machine::pool`). It fails
    /// soft with a per-log diagnostic and the log is left untouched.
    #[test]
    fn dangling_overflow_id_fails_soft() {
        let m = machine();
        let pool = m.alloc_pool("ptm-log-0", 256, MediaKind::Optane);
        pool.raw_store(W_ALGO, ALGO_REDO);
        pool.raw_store(W_PRIMARY_CAP, 8);
        pool.raw_store(W_OVF, 999); // no such pool
        pool.raw_store(W_STATE, committed_marker(1));
        let r = recover(&m);
        assert_eq!(r.logs_scanned, 1);
        assert_eq!(r.redo_replayed, 0, "malformed log must not replay");
        assert_eq!(r.malformed.len(), 1);
        assert!(
            r.malformed[0].contains("overflow id 999"),
            "{:?}",
            r.malformed
        );
        // Untouched: still marked committed, not retired.
        assert_eq!(pool.raw_load(W_STATE), committed_marker(1));
    }

    /// An overflow word pointing at a real pool that is *not* an
    /// overflow pool (e.g. the heap) is equally corrupt — replaying
    /// "entries" out of heap data would write garbage everywhere.
    #[test]
    fn overflow_id_naming_a_foreign_pool_fails_soft() {
        let m = machine();
        let victim = m.alloc_pool("some-heap", 1 << 12, MediaKind::Optane);
        let pool = m.alloc_pool("ptm-log-0", 256, MediaKind::Optane);
        pool.raw_store(W_ALGO, ALGO_REDO);
        pool.raw_store(W_PRIMARY_CAP, 8);
        pool.raw_store(W_OVF, victim.id().0 as u64);
        pool.raw_store(W_STATE, committed_marker(1));
        let r = recover(&m);
        assert_eq!(r.redo_replayed, 0);
        assert_eq!(r.malformed.len(), 1);
        assert!(
            r.malformed[0].contains("non-overflow pool"),
            "{:?}",
            r.malformed
        );
    }

    /// A `primary_cap` larger than the pool can physically hold proves
    /// header corruption before any entry is read.
    #[test]
    fn oversized_primary_cap_fails_soft() {
        let m = machine();
        let pool = m.alloc_pool("ptm-log-0", 64, MediaKind::Optane);
        pool.raw_store(W_ALGO, ALGO_REDO);
        pool.raw_store(W_PRIMARY_CAP, 1_000_000);
        let r = recover(&m);
        assert_eq!(r.redo_replayed, 0);
        assert_eq!(r.malformed.len(), 1);
        assert!(r.malformed[0].contains("primary_cap"), "{:?}", r.malformed);
    }

    /// A committed marker whose count exceeds the log's entry capacity
    /// is corrupt: recovery must neither read entries out of bounds nor
    /// replay garbage, and a second pass converges (same diagnostic,
    /// no state change).
    #[test]
    fn oversized_marker_count_fails_soft() {
        let m = machine();
        let cfg = PtmConfig::redo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let bogus = log.capacity as u64 + 5;
        log.primary.raw_store(W_COUNT, bogus);
        log.primary.raw_store(W_STATE, committed_marker(bogus));
        log.primary.persist_line_now(0);
        let r = recover(&m);
        assert_eq!(r.redo_replayed, 0);
        assert_eq!(r.redo_entries, 0);
        assert_eq!(r.malformed.len(), 1);
        assert!(
            r.malformed[0].contains("exceeds log capacity"),
            "{:?}",
            r.malformed
        );
        // Left as evidence, not retired.
        assert_eq!(log.primary.raw_load(W_STATE), committed_marker(bogus));
        let r2 = recover(&m);
        assert_eq!(r2.malformed, r.malformed, "second pass converges");
    }

    /// Words in the pool every stray-address test's good entries target.
    const HEAP_WORDS: u64 = 1 << 10;

    /// A machine whose first pool (pool 1) stands in for the heap, and a
    /// log of `cfg`'s algorithm holding `entries`, sealed under a
    /// committed marker when `committed`.
    fn crafted(cfg: PtmConfig, entries: &[[u64; 4]], committed: bool) -> Arc<Machine> {
        let m = machine();
        let heap = m.alloc_pool("heap", HEAP_WORDS as usize, MediaKind::Optane);
        assert_eq!(heap.id(), T.pool());
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        for (i, entry) in entries.iter().enumerate() {
            let e = log.entry_addr(i);
            for (w, &v) in entry.iter().enumerate() {
                log.primary.raw_store(e.word() + w as u64, v);
            }
            log.primary.persist_line_now(e.line());
        }
        if committed {
            let n = entries.len() as u64;
            log.primary.raw_store(W_COUNT, n);
            log.primary.raw_store(W_STATE, committed_marker(n));
            log.primary.persist_line_now(0);
        }
        m
    }

    /// The good target, and what a flipped bit makes of it: address 0,
    /// pool bit 40 flipped (pool 1 becomes the reserved pool 0), bit 63
    /// flipped (pool 8388609, past the table), a word past the pool's end.
    const T: PAddr = PAddr((1 << 40) | 100);
    const STRAYS: [PAddr; 4] = [
        PAddr(0),
        PAddr(T.0 ^ 1 << 40),
        PAddr(T.0 ^ 1 << 63),
        PAddr((1 << 40) | (HEAP_WORDS + 3)),
    ];

    /// Recover `m`, whose log seals an entry naming `stray` after a good
    /// one, twice: each pass gives one diagnostic naming `stray` and
    /// stores nothing — not the good entry, not the log's state word.
    fn assert_stray_fails_soft(m: &Arc<Machine>, stray: PAddr) -> RecoveryReport {
        let snapshot = || snapshot_pools(std::slice::from_ref(m));
        let before = snapshot();
        let r = recover(m);
        let want = format!("entry address {stray} ({:#x}) names no pool word", stray.0);
        assert_eq!(r.malformed.len(), 1, "{stray}: {:?}", r.malformed);
        assert!(r.malformed[0].contains(&want), "{stray}: {:?}", r.malformed);
        assert!(snapshot() == before, "{stray}: recovery stored");
        let r2 = recover(m);
        assert_eq!(
            r2.without_timing(),
            r.without_timing(),
            "{stray}: second pass"
        );
        assert!(snapshot() == before, "{stray}: second pass stored");
        r
    }

    /// A committed redo entry whose target is in no pool used to panic
    /// the replay's store (pool 0 indexed out of bounds, or
    /// `Machine::pool` past its table).
    #[test]
    fn redo_entry_naming_no_pool_word_fails_soft() {
        for stray in STRAYS {
            let m = crafted(
                PtmConfig::redo(),
                &[[T.0, 42, 0, 0], [stray.0, 43, 0, 0]],
                true,
            );
            let r = assert_stray_fails_soft(&m, stray);
            assert_eq!((r.redo_replayed, r.redo_entries), (0, 0));
        }
    }

    /// The same for an HtmLogged ring. Only seal-valid slots are
    /// replayed, so only they are checked: a torn slot naming no pool
    /// word is still skipped and the rest replayed.
    #[test]
    fn htm_entry_naming_no_pool_word_fails_soft() {
        let slot = |a: PAddr| [a.0, 42, 9, seal(a.0, 42, 9)];
        for stray in STRAYS {
            let m = crafted(PtmConfig::htm_logged(), &[slot(T), slot(stray)], true);
            let r = assert_stray_fails_soft(&m, stray);
            assert_eq!((r.htm_replayed, r.htm_entries), (0, 0));
        }
        let torn = [STRAYS[2].0, 42, 9, 0];
        let m = crafted(PtmConfig::htm_logged(), &[slot(T), torn], true);
        let r = recover(&m);
        assert!(r.malformed.is_empty(), "{:?}", r.malformed);
        assert_eq!((r.htm_entries, r.torn_entries), (1, 1));
        assert_eq!(m.pool(T.pool()).raw_load(T.word()), 42);
    }

    /// A committed cow entry is checked on both lines, every masked word:
    /// a stray home, a stray shadow, and a home whose line runs past the
    /// pool's end at word 7.
    #[test]
    fn cow_entry_naming_no_pool_word_fails_soft() {
        let shadow = T.offset(100).0;
        let tail = PAddr::new(T.pool(), HEAP_WORDS - 4);
        let mut cases = vec![([tail.0, shadow, 1 << 7, 0], tail.offset(7))];
        for stray in STRAYS {
            cases.push(([stray.0, shadow, 1, 0], stray));
            cases.push(([shadow, stray.0, 1, 0], stray));
        }
        for (bad, stray) in cases {
            let m = crafted(PtmConfig::cow(), &[[T.0, shadow, 1, 0], bad], true);
            let r = assert_stray_fails_soft(&m, stray);
            assert_eq!((r.cow_published, r.cow_words), (0, 0));
        }
    }

    /// An undo entry that passes its checksum but names no pool word
    /// fails soft before any rollback store or the truncate. (Address 0
    /// is not an entry: it ends the prefix.)
    #[test]
    fn undo_entry_naming_no_pool_word_fails_soft() {
        let entry = |a: PAddr| [a.0, 7, seal(a.0, 7, 0), 0];
        for stray in &STRAYS[1..] {
            let m = crafted(PtmConfig::undo(), &[entry(T), entry(*stray)], false);
            let r = assert_stray_fails_soft(&m, *stray);
            assert_eq!((r.undo_rolled_back, r.undo_entries), (0, 0));
        }
    }
}

#[cfg(test)]
mod multi_log_recovery_tests {
    use super::recovery_idempotence_tests::crash_during_recovery;
    use super::*;
    use crate::config::PtmConfig;
    use crate::crash_harness::snapshot_pools;
    use crate::log::{committed_marker, W_COUNT};
    use palloc::PHeap;
    use pmem_sim::{AdversaryPolicy, CrashImage, DurabilityDomain, Machine, MachineConfig};

    const LOGS: usize = 6;
    const N: usize = 4;

    fn cfg() -> MachineConfig {
        MachineConfig::functional(DurabilityDomain::Adr)
    }

    /// Craft `LOGS` committed-but-not-written-back redo logs, one per
    /// virtual thread, each targeting its own block (`1000*(t+1)+i`),
    /// and crash the machine.
    fn crashed_multi_log_image() -> (CrashImage, Vec<PAddr>) {
        let m = Machine::new(cfg());
        let heap = PHeap::format(&m, "heap", 1 << 16, 4);
        let cfg = PtmConfig::redo();
        let mut blocks = Vec::new();
        for t in 0..LOGS {
            let log = crate::log::TxLog::create(&m, t, &cfg);
            let block = {
                let mut s = m.session(0);
                let b = heap.alloc(&mut s, N);
                for i in 0..N as u64 {
                    s.store(b.offset(i), 1);
                }
                s.persist_range(b, N as u64);
                b
            };
            for i in 0..N {
                let e = log.entry_addr(i);
                log.primary.raw_store(e.word(), block.offset(i as u64).0);
                log.primary
                    .raw_store(e.word() + 1, 1000 * (t as u64 + 1) + i as u64);
                log.primary.persist_line_now(e.line());
            }
            log.primary.raw_store(W_COUNT, N as u64);
            log.primary.raw_store(W_STATE, committed_marker(N as u64));
            log.primary.persist_line_now(0);
            blocks.push(block);
        }
        (m.crash(1), blocks)
    }

    /// Two distinct committed logs whose write sets land on *different
    /// words of the same cache line*: both replay, and the second log's
    /// line persist keeps the first log's word.
    #[test]
    fn two_logs_replaying_into_one_cache_line_both_land() {
        let m = Machine::new(cfg());
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg_p = PtmConfig::redo();
        let block = {
            let mut s = m.session(0);
            let b = heap.alloc(&mut s, 16);
            for i in 0..16u64 {
                s.store(b.offset(i), 1);
            }
            s.persist_range(b, 16);
            b
        };
        // Pick a line-aligned offset inside the block so `o` and `o+1`
        // share a cache line for sure.
        let o =
            (WORDS_PER_LINE as u64 - block.word() % WORDS_PER_LINE as u64) % WORDS_PER_LINE as u64;
        for (t, (word, value)) in [(o, 111u64), (o + 1, 222u64)].into_iter().enumerate() {
            let log = crate::log::TxLog::create(&m, t, &cfg_p);
            let e = log.entry_addr(0);
            log.primary.raw_store(e.word(), block.offset(word).0);
            log.primary.raw_store(e.word() + 1, value);
            log.primary.persist_line_now(e.line());
            log.primary.raw_store(W_COUNT, 1);
            log.primary.raw_store(W_STATE, committed_marker(1));
            log.primary.persist_line_now(0);
        }
        let img = m.crash(7);
        let m2 = Machine::reboot(&img, cfg());
        let rep = recover(&m2);
        assert_eq!(rep.redo_replayed, 2);
        // Durable, not merely cache-visible: read back through a crash.
        let m3 = Machine::reboot(&m2.crash_with(0, AdversaryPolicy::AllOld), cfg());
        let pool = m3.pool(block.pool());
        assert_eq!(pool.raw_load(block.word() + o), 111);
        assert_eq!(pool.raw_load(block.word() + o + 1), 222);
    }

    /// A crash at *every* persist site of a recovery pass over several
    /// logs, under every adversary policy, leaves state the next pass
    /// converges from; and because the pass is serial its sites are
    /// deterministic — replaying a site reproduces the same image.
    #[test]
    fn crash_at_every_site_of_multi_log_recovery_converges_and_replays() {
        let (img, blocks) = crashed_multi_log_image();
        let clean = recover(&Machine::reboot(&img, cfg()));
        assert_eq!(clean.logs_scanned, LOGS);
        assert_eq!(clean.redo_replayed, LOGS);
        assert_eq!(clean.redo_entries, LOGS * N);
        for policy in AdversaryPolicy::SWEEP {
            let crash_at =
                |site| crash_during_recovery(&Machine::reboot(&img, cfg()), site, policy);
            let mut sites = 0;
            while let Some(m3) = crash_at(sites) {
                let site = sites;
                sites += 1;
                let replayed = crash_at(site).expect("site fires again");
                assert_eq!(
                    snapshot_pools(std::slice::from_ref(&m3)),
                    snapshot_pools(&[replayed]),
                    "policy {policy} site {site}: replay produced a different image"
                );
                recover(&m3);
                for (t, block) in blocks.iter().enumerate() {
                    for i in 0..N as u64 {
                        assert_eq!(
                            m3.pool(block.pool()).raw_load(block.word() + i),
                            1000 * (t as u64 + 1) + i,
                            "policy {policy} site {site} log {t} entry {i}"
                        );
                    }
                }
            }
            // Every entry store and every retire is a site of its own.
            assert_eq!(sites as usize, LOGS * (N + 1), "policy {policy}");
        }
    }
}

#[cfg(test)]
mod recovery_idempotence_tests {
    use super::*;
    use crate::config::PtmConfig;
    use crate::crash_harness::snapshot_pools;
    use crate::log::{committed_marker, seal, W_COUNT, W_STATE};
    use palloc::PHeap;
    use pmem_sim::{
        catch_simulated_crash, silence_simulated_crash_panics, AdversaryPolicy, CrashInjector,
        DurabilityDomain, Machine, MachineConfig,
    };

    const N: usize = 6;

    /// Build a machine whose durable state holds a committed-but-not-
    /// written-back redo log of `N` entries targeting `block[0..N]`
    /// (values `1000+i`), then crash it and return the rebooted machine.
    fn crashed_redo_machine() -> (Arc<Machine>, PAddr) {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg = PtmConfig::redo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let block = {
            let mut s = m.session(0);
            let b = heap.alloc(&mut s, N);
            for i in 0..N as u64 {
                s.store(b.offset(i), 1);
            }
            s.persist_range(b, N as u64);
            b
        };
        for i in 0..N {
            let e = log.entry_addr(i);
            log.primary.raw_store(e.word(), block.offset(i as u64).0);
            log.primary.raw_store(e.word() + 1, 1000 + i as u64);
            log.primary.persist_line_now(e.line());
        }
        log.primary.raw_store(W_COUNT, N as u64);
        log.primary.raw_store(W_STATE, committed_marker(N as u64));
        log.primary.persist_line_now(0);
        let img = m.crash(1);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        (m2, block)
    }

    /// Like above, but an in-flight undo log: `N` sealed entries with old
    /// value 7, in-place data torn to 999 and durable (worst case).
    fn crashed_undo_machine() -> (Arc<Machine>, PAddr) {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let heap = PHeap::format(&m, "heap", 1 << 14, 4);
        let cfg = PtmConfig::undo();
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        let block = {
            let mut s = m.session(0);
            let b = heap.alloc(&mut s, N);
            for i in 0..N as u64 {
                s.store(b.offset(i), 7);
            }
            s.persist_range(b, N as u64);
            b
        };
        for i in 0..N {
            let e = log.entry_addr(i);
            let a = block.offset(i as u64);
            log.primary.raw_store(e.word(), a.0);
            log.primary.raw_store(e.word() + 1, 7);
            log.primary.raw_store(e.word() + 2, seal(a.0, 7, 0));
            log.primary.persist_line_now(e.line());
            heap.pool().raw_store(a.word(), 999);
            heap.pool().persist_line_now(a.line());
        }
        let img = m.crash(2);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        (m2, block)
    }

    /// Crash `machine` at recovery-persist site `site` (if recovery has
    /// that many), reboot from the captured image, and return the new
    /// machine. `None` if recovery completed before reaching the site.
    pub(super) fn crash_during_recovery(
        machine: &Arc<Machine>,
        site: u64,
        policy: AdversaryPolicy,
    ) -> Option<Arc<Machine>> {
        silence_simulated_crash_panics();
        let inj = CrashInjector::at_site(site, policy, site ^ 0xDEAD);
        machine.arm_injector(Arc::clone(&inj));
        let interrupted = catch_simulated_crash(|| recover(machine)).is_err();
        machine.disarm_injector();
        interrupted.then(|| {
            let fired = inj.take_outcome().expect("crash fired");
            Machine::reboot(
                &fired.image,
                MachineConfig::functional(DurabilityDomain::Adr),
            )
        })
    }

    /// Redo replay interrupted at *every* recovery persist site must
    /// converge to the fully-replayed state on the next recovery pass.
    #[test]
    fn redo_replay_survives_crash_at_every_recovery_site() {
        for policy in AdversaryPolicy::SWEEP {
            for site in 0.. {
                let (m2, block) = crashed_redo_machine();
                let Some(m3) = crash_during_recovery(&m2, site, policy) else {
                    assert!(site > 0, "recovery must have at least one site");
                    break;
                };
                recover(&m3);
                for i in 0..N as u64 {
                    assert_eq!(
                        m3.pool(block.pool()).raw_load(block.word() + i),
                        1000 + i,
                        "policy {policy} site {site} entry {i}"
                    );
                }
                // Third pass: already converged, nothing left to do.
                let before = snapshot_pools(std::slice::from_ref(&m3));
                let r2 = recover(&m3);
                assert_eq!(r2.redo_replayed, 0, "policy {policy} site {site}");
                assert_eq!(
                    before,
                    snapshot_pools(std::slice::from_ref(&m3)),
                    "policy {policy} site {site}"
                );
            }
        }
    }

    /// Undo rollback interrupted at *every* recovery persist site must
    /// converge to the fully-rolled-back state on the next pass.
    #[test]
    fn undo_rollback_survives_crash_at_every_recovery_site() {
        for policy in AdversaryPolicy::SWEEP {
            for site in 0.. {
                let (m2, block) = crashed_undo_machine();
                let Some(m3) = crash_during_recovery(&m2, site, policy) else {
                    assert!(site > 0, "recovery must have at least one site");
                    break;
                };
                recover(&m3);
                for i in 0..N as u64 {
                    assert_eq!(
                        m3.pool(block.pool()).raw_load(block.word() + i),
                        7,
                        "policy {policy} site {site} entry {i}"
                    );
                }
                let before = snapshot_pools(std::slice::from_ref(&m3));
                let r2 = recover(&m3);
                assert_eq!(r2.undo_rolled_back, 0, "policy {policy} site {site}");
                assert_eq!(
                    before,
                    snapshot_pools(std::slice::from_ref(&m3)),
                    "policy {policy} site {site}"
                );
            }
        }
    }

    /// The fault-injection switches actually break recovery (harness
    /// self-test support): with rollback skipped, torn data survives.
    #[test]
    fn skip_switches_break_recovery_as_advertised() {
        let (m2, block) = crashed_undo_machine();
        let r = recover_with_options(
            &m2,
            RecoverOptions {
                skip_undo_rollback: true,
                ..RecoverOptions::default()
            },
        );
        assert_eq!(r.undo_rolled_back, 0);
        assert_eq!(m2.pool(block.pool()).raw_load(block.word()), 999);

        let (m2, block) = crashed_redo_machine();
        let r = recover_with_options(
            &m2,
            RecoverOptions {
                skip_redo_replay: true,
                ..RecoverOptions::default()
            },
        );
        assert_eq!(r.redo_replayed, 0);
        assert_eq!(m2.pool(block.pool()).raw_load(block.word()), 1);
    }
}

#[cfg(test)]
mod overflow_recovery_tests {
    use super::*;
    use crate::config::{Algo, PtmConfig};
    use crate::txn::{Ptm, TxThread};
    use palloc::PHeap;
    use pmem_sim::{DurabilityDomain, Machine, MachineConfig};

    /// A PDRAM-Lite redo log that spills past its primary budget into the
    /// Optane overflow pool must still replay correctly after a crash.
    #[test]
    fn committed_log_spanning_overflow_replays() {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::PdramLite));
        let heap = PHeap::format(&m, "heap", 1 << 16, 4);
        let cfg = PtmConfig {
            algo: Algo::RedoLazy,
            lite_log_entries: 8, // tiny budget: most entries spill
            ..PtmConfig::default()
        };
        let ptm = Ptm::new(cfg.clone());
        let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
        let h = std::sync::Arc::clone(&heap);
        let block = h.alloc(th.session_mut(), 64);
        // A transaction with 32 writes: 8 entries in the lite pool, 24 in
        // the overflow pool.
        th.run(|tx| {
            for i in 0..32u64 {
                tx.write_at(block, i, 1000 + i)?;
            }
            Ok(())
        });
        // Hand-roll the dangerous redo window: re-mark the (already
        // retired) log as COMMITTED and wipe the in-place data, then make
        // sure recovery replays all 32 entries from both pools.
        let log_pool = m
            .pools()
            .into_iter()
            .find(|p| p.name() == "ptm-log-0")
            .unwrap();
        log_pool.raw_store(crate::log::W_COUNT, 32);
        log_pool.raw_store(crate::log::W_STATE, crate::log::committed_marker(32));
        log_pool.persist_line_now(0);
        for i in 0..32u64 {
            heap.pool().raw_store(block.word() + i, 0);
            heap.pool().persist_line_now((block.word() + i) / 8);
        }
        let img = m.crash(5);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::PdramLite));
        let r = recover(&m2);
        assert_eq!(r.redo_replayed, 1);
        assert_eq!(r.redo_entries, 32);
        let heap_pool = m2.pool(heap.pool().id());
        for i in 0..32u64 {
            assert_eq!(heap_pool.raw_load(block.word() + i), 1000 + i, "entry {i}");
        }
    }

    /// Undo entries spilling into the overflow pool roll back correctly.
    #[test]
    fn inflight_undo_spanning_overflow_rolls_back() {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::PdramLite));
        let heap = PHeap::format(&m, "heap", 1 << 16, 4);
        let cfg = PtmConfig {
            algo: Algo::UndoEager,
            lite_log_entries: 4,
            ..PtmConfig::default()
        };
        let log = crate::log::TxLog::create(&m, 0, &cfg);
        assert!(log.overflow.is_some());
        let mut s = m.session(0);
        let h = std::sync::Arc::clone(&heap);
        let block = h.alloc(&mut s, 16);
        for i in 0..16u64 {
            s.store(block.offset(i), 7);
        }
        // Craft an in-flight tx: 12 undo entries (4 primary + 8 overflow),
        // sealed under seq 3, with speculative in-place damage.
        log.primary.raw_store(crate::log::W_SEQ, 3);
        log.primary.persist_line_now(0);
        for i in 0..12usize {
            let e = log.entry_addr(i);
            let pool = m.pool(e.pool());
            let a = block.offset(i as u64);
            pool.raw_store(e.word(), a.0);
            pool.raw_store(e.word() + 1, 7);
            pool.raw_store(e.word() + 2, crate::log::seal(a.0, 7, 3));
            pool.persist_line_now(e.line());
            heap.pool().raw_store(a.word(), 999);
            heap.pool().persist_line_now(a.line());
        }
        let img = m.crash(6);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::PdramLite));
        let r = recover(&m2);
        assert_eq!(r.undo_rolled_back, 1);
        assert_eq!(r.undo_entries, 12);
        let heap_pool = m2.pool(heap.pool().id());
        for i in 0..12u64 {
            assert_eq!(heap_pool.raw_load(block.word() + i), 7, "entry {i}");
        }
    }
}
