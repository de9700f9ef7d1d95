//! Cross-shard transactions: two-phase commit over the per-shard logs.
//!
//! A [`CrossShardTx`] relaxes the sharded engine's one-executor-per-shard
//! seam: it holds (lazily created) per-shard [`TxThread`]s and lets one
//! logical transaction read and write several shards. Work that touches
//! a single shard takes exactly the single-shard commit path — same
//! counters, same fences, same virtual time — so the relaxation costs
//! nothing until a transaction actually spans shards.
//!
//! ## The commit protocol
//!
//! With two or more *writer* participants, commit runs 2PC over the
//! shards' existing per-thread logs. The commit steps are
//! [`TxThread`]'s own; 2PC only orders them across the shards:
//!
//! 1. **Acquire + validate** (ascending shard order): acquire on every
//!    writer, then take each one's commit timestamp from its shard's
//!    clock, then run TL2 read validation on each.
//! 2. **Prepare** (per shard): [`crate::algo::LogPolicy::make_prepared`]
//!    seals the shard's log under a `PREPARED` marker carrying a global
//!    transaction id (gtid) instead of `COMMITTED` — the log's content
//!    is durable, but its *fate* is not yet decided.
//! 3. **Decide**: one record — `(gtid, seal(gtid))` on a single cache
//!    line — is written to the coordinator shard's
//!    [`crate::log::COORD_POOL`] and flushed + fenced. That fence is the
//!    transaction's durability point. The coordinator is the lowest
//!    participant shard; the record lives in an ordinary persistent
//!    pool so it rides the same crash/imaging machinery as every log.
//! 4. **Commit** (per shard): [`crate::algo::LogPolicy::commit_prepared`]
//!    upgrades/retires the log and publishes the write set exactly as a
//!    single-shard commit would.
//! 5. **Forget**: the record slot is tombstoned with a plain store (no
//!    flush, no fence — a stale record is harmless: recovery ignores
//!    decisions for which no `PREPARED` log exists, then durably zeroes
//!    every slot).
//!
//! A crash anywhere in 1–2 aborts the transaction on recovery (presumed
//! abort: no durable decision record); a crash in 3–5 after the decide
//! fence commits it everywhere ([`crate::recovery::resolve_in_doubt`]).
//!
//! ## Fence budget
//!
//! Under ADR, a cross-shard commit with `P` writer participants pays
//! roughly `2·P` fences to prepare (log lines + marker, per shard, for
//! the O(1)-fence policies), **1** decide fence, and `~2·P` to publish
//! and retire — versus `~4` total for the same work in one shard.
//! Under eADR-class domains every one of those `clwb`/`sfence` pairs is
//! elided by the memory session, so the entire prepare/decide overhead
//! collapses and 2PC costs only the extra log marker stores.
//!
//! ## One clock per worker
//!
//! A worker is one virtual thread ([`ShardedEngine::begin_roaming_run`]):
//! its clock is the session it ran on last, and moving to another shard
//! first advances that shard's session to it, so every step above runs
//! after the one before it.

use pmem_sim::PAddr;

use crate::log::{coord_seal, COORD_SLOT_WORDS};
use crate::phases::Phase;
use crate::shard::ShardedEngine;
use crate::stats::PtmStats;
use crate::txn::{Abort, TxResult, TxThread};

/// A cross-shard transaction executor for one worker (`tid`) over a
/// [`ShardedEngine`]. Per-shard executors (and their persistent logs)
/// are created lazily on first touch and reused across transactions.
pub struct CrossShardTx<'e> {
    engine: &'e ShardedEngine,
    tid: usize,
    slots: Vec<Option<TxThread>>,
    /// Shards touched by the current attempt, in first-touch order.
    active: Vec<usize>,
    /// The shard this worker ran on last: its session holds the clock.
    last: usize,
}

impl<'e> CrossShardTx<'e> {
    /// Create an executor for worker `tid`. The engine must have been
    /// started with [`ShardedEngine::begin_roaming_run`] for at least
    /// `tid + 1` workers (see the module docs).
    pub fn new(engine: &'e ShardedEngine, tid: usize) -> CrossShardTx<'e> {
        CrossShardTx {
            engine,
            tid,
            slots: (0..engine.shards()).map(|_| None).collect(),
            active: Vec::new(),
            last: 0,
        }
    }

    /// Run `f` as a transaction over any subset of shards, retrying on
    /// aborts until it commits. The closure must propagate `Err(Abort)`
    /// (use `?`), exactly like [`TxThread::run`].
    ///
    /// Cross-shard transactions always use the software path — the 2PC
    /// prepare/decide split has no hardware-section equivalent. Purely
    /// single-shard work should prefer `thread_mut(shard).run(f)`, the
    /// unmodified single-shard driver (HTM fast path included).
    pub fn run<T>(&mut self, mut f: impl FnMut(&mut CrossTx<'_, 'e>) -> TxResult<T>) -> T {
        let mut attempts: u32 = 0;
        loop {
            self.active.clear();
            let outcome = f(&mut CrossTx { cs: self });
            match outcome {
                Ok(v) => {
                    if self.active.is_empty() {
                        return v; // touched nothing: trivially committed
                    }
                    if self.try_commit_cross() {
                        return v;
                    }
                }
                Err(Abort) => {
                    for i in 0..self.active.len() {
                        let th = self.on(self.active[i]);
                        th.policy.abort_rollback(&mut th.ax, None);
                    }
                }
            }
            // Failed attempt: counted once, on the participant that
            // noted why (the lead for a user abort); per-participant
            // cleanup, shared backoff.
            let lead = *self
                .active
                .iter()
                .min()
                .expect("aborted with no participants");
            let decider = self.active.iter().copied().find(|&s| {
                let th = self.slots[s].as_ref().unwrap();
                th.ax.pending_abort.is_some()
            });
            self.on(decider.unwrap_or(lead)).note_abort();
            attempts += 1;
            assert!(
                attempts < crate::config::MAX_RETRIES,
                "cross-shard livelock: {attempts} consecutive aborts on worker {}",
                self.tid
            );
            for i in 0..self.active.len() {
                self.on(self.active[i]).ax.abort_cleanup();
            }
            {
                let th = self.on(lead);
                th.ax.attempts = attempts;
                th.ax.backoff();
            }
            self.drain_active();
        }
    }

    /// The underlying per-shard executor (creating it if needed), for
    /// non-transactional phases such as allocation during setup, and for
    /// single-shard transactions through its [`TxThread::run`].
    pub fn thread_mut(&mut self, shard: usize) -> &mut TxThread {
        self.on(shard)
    }

    /// Finish every per-shard session this worker actually created
    /// (deregistering them from their clock domains). Call once at the
    /// end of a driver loop, like `MemSession::finish`.
    pub fn finish(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.session_mut().finish();
        }
    }

    /// This worker's virtual time: the clock of the session it ran on
    /// last. Drivers use consecutive readings as the per-operation
    /// latency of a cross-shard transaction.
    pub fn frontier(&self) -> u64 {
        self.slots[self.last].as_ref().map_or(0, |th| th.ax.s.now())
    }

    /// The executor on `shard` (created if needed) on this worker's clock:
    /// moving here advances the session to [`Self::frontier`].
    fn on(&mut self, shard: usize) -> &mut TxThread {
        assert!(shard < self.slots.len(), "shard {shard} out of range");
        if self.slots[shard].is_none() {
            self.slots[shard] = Some(self.engine.thread(shard, self.tid));
        }
        if shard != self.last {
            let now = self.frontier();
            self.last = shard;
            self.slots[shard].as_mut().unwrap().ax.s.advance_to(now);
        }
        self.slots[shard].as_mut().unwrap()
    }

    /// First-touch bookkeeping for the current attempt: open the
    /// per-shard attempt on the worker's clock.
    fn touch(&mut self, shard: usize) -> &mut TxThread {
        if !self.active.contains(&shard) {
            let th = self.on(shard);
            let now = th.ax.s.now();
            th.ax.timer.start(now);
            th.ax.begin();
            self.active.push(shard);
        }
        self.on(shard)
    }

    /// Close every active participant's phase-accounting interval.
    fn drain_active(&mut self) {
        for i in 0..self.active.len() {
            let th = self.slots[self.active[i]].as_mut().unwrap();
            let now = th.ax.s.now();
            th.ax.timer.drain(now, &th.ax.ptm.phases);
        }
    }

    /// The cross-shard commit sequence. Returns `false` (with every
    /// participant rolled back and released) if acquisition or
    /// validation fails on any shard.
    fn try_commit_cross(&mut self) -> bool {
        let mut shards = self.active.clone();
        shards.sort_unstable();
        let writers: Vec<usize> = shards
            .iter()
            .copied()
            .filter(|&s| {
                let th = self.slots[s].as_ref().unwrap();
                !th.policy.read_only(&th.ax)
            })
            .collect();

        if writers.len() < 2 {
            // No writer or one: 2PC adds nothing. Per-read validation
            // already guaranteed each shard's snapshot, and a lone writer
            // runs the ordinary single-shard commit sequence on its shard.
            if let Some(&w) = writers.first() {
                if !self.on(w).try_commit() {
                    return false;
                }
            }
            for &s in &shards {
                if !writers.contains(&s) {
                    self.on(s).ax.apply_frees();
                }
            }
            self.finish_commit(shards[0], 0);
            return true;
        }

        // --- Phase 1: acquire, stamp, then validate every writer -----
        for k in 0..writers.len() {
            if !self.on(writers[k]).commit_acquire() {
                // The failed writer rolled itself back.
                for &p in writers.iter().filter(|&&p| p != writers[k]) {
                    let th = self.on(p);
                    th.policy.abort_rollback(&mut th.ax, None);
                }
                return false;
            }
        }
        let wvs: Vec<u64> = writers.iter().map(|&s| self.on(s).commit_stamp()).collect();
        for k in 0..writers.len() {
            if !self.on(writers[k]).commit_validate(wvs[k]) {
                for (j, &p) in writers.iter().enumerate() {
                    let th = self.on(p);
                    th.policy.abort_rollback(&mut th.ax, Some(wvs[j]));
                }
                return false;
            }
        }

        // --- Phase 2: prepare every writer shard's log ----------------
        let gtid = self.engine.next_gtid();
        for &s in &writers {
            let th = self.on(s);
            let t0 = th.ax.s.now();
            th.policy.make_prepared(&mut th.ax, gtid);
            let dt = th.ax.s.now().saturating_sub(t0);
            PtmStats::bump(&th.ax.ptm.stats.prepares);
            PtmStats::add(&th.ax.ptm.stats.prepare_fence_ns, dt);
        }

        // --- Decide: durable coordinator record -----------------------
        let coord = writers[0];
        let slot_words = (self.engine.next_coord_slot() * COORD_SLOT_WORDS) as u64;
        let rec: PAddr = self.engine.coord_pool(coord).addr(slot_words);
        {
            let th = self.on(coord);
            let now = th.ax.s.now();
            th.ax.timer.switch(now, Phase::LogAppend);
            th.ax.s.store(rec, gtid);
            th.ax.s.store(rec.offset(1), coord_seal(gtid));
            th.ax.flush_line(rec);
            th.ax.fence(); // the transaction's durability point
            PtmStats::bump(&th.ax.ptm.stats.coordinator_commits);
        }

        // --- Phase 3: commit every participant, then forget -----------
        for (k, &s) in writers.iter().enumerate() {
            let th = self.on(s);
            th.policy.commit_prepared(&mut th.ax, wvs[k]);
            th.commit_done();
        }
        for &s in &shards {
            if !writers.contains(&s) {
                self.on(s).ax.apply_frees();
            }
        }
        // Tombstone: plain store, deliberately unflushed (see module
        // docs — a stale decision record is ignored by recovery).
        let th = self.on(coord);
        th.ax.s.store(rec, 0);
        let n = th.policy.write_set_size(&th.ax);
        self.finish_commit(coord, n);
        true
    }

    /// Shared commit epilogue: one commit noted on the lead shard (so
    /// aggregate commits count transactions, not participants), and
    /// timer drain on every participant.
    fn finish_commit(&mut self, lead: usize, write_set: u64) {
        self.on(lead).note_commit(write_set, 3);
        self.drain_active();
    }
}

/// Handle passed to cross-shard transaction closures: like
/// [`crate::txn::Tx`], but every operation names the shard it executes
/// on. Callers route with [`ShardedEngine::shard_of`] and may verify
/// with [`ShardedEngine::assert_routed`].
pub struct CrossTx<'a, 'e> {
    cs: &'a mut CrossShardTx<'e>,
}

impl CrossTx<'_, '_> {
    /// Transactional 64-bit read on `shard`.
    pub fn read(&mut self, shard: usize, addr: PAddr) -> TxResult<u64> {
        self.cs.touch(shard).tx_read(addr)
    }

    /// Transactional 64-bit write on `shard`.
    pub fn write(&mut self, shard: usize, addr: PAddr, val: u64) -> TxResult<()> {
        self.cs.touch(shard).tx_write(addr, val)
    }

    /// Read `base + off` on `shard`.
    pub fn read_at(&mut self, shard: usize, base: PAddr, off: u64) -> TxResult<u64> {
        self.cs.touch(shard).tx_read(base.offset(off))
    }

    /// Write `base + off` on `shard`.
    pub fn write_at(&mut self, shard: usize, base: PAddr, off: u64, val: u64) -> TxResult<()> {
        self.cs.touch(shard).tx_write(base.offset(off), val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PtmConfig;
    use crate::log::coord_seal;
    use pmem_sim::{DurabilityDomain, MachineConfig};
    use std::sync::Arc;

    fn cfg() -> MachineConfig {
        MachineConfig::functional(DurabilityDomain::Adr)
    }

    #[test]
    fn cross_shard_transfer_commits_atomically() {
        let e = ShardedEngine::create(2, cfg(), PtmConfig::redo(), 1 << 14, 4);
        e.begin_roaming_run(1);
        let mut cx = CrossShardTx::new(&e, 0);
        let cells: Vec<PAddr> = (0..2)
            .map(|s| {
                let th = cx.thread_mut(s);
                let heap = Arc::clone(th.heap());
                heap.alloc(th.session_mut(), 1)
            })
            .collect();
        cx.thread_mut(0).run(|tx| tx.write(cells[0], 100));
        cx.thread_mut(1).run(|tx| tx.write(cells[1], 0));
        cx.run(|tx| {
            let a = tx.read(0, cells[0])?;
            let b = tx.read(1, cells[1])?;
            tx.write(0, cells[0], a - 40)?;
            tx.write(1, cells[1], b + 40)
        });
        assert_eq!(cx.thread_mut(0).run(|tx| tx.read(cells[0])), 60);
        assert_eq!(cx.thread_mut(1).run(|tx| tx.read(cells[1])), 40);
        let agg = e.aggregate_ptm_stats();
        assert_eq!(agg.prepares, 2, "one prepare per writer participant");
        assert_eq!(agg.coordinator_commits, 1, "one decision record");
        assert_eq!(agg.commits, 5, "4 single-shard + 1 cross-shard");
    }

    /// A worker is one virtual thread: every step of a 2-writer commit
    /// runs after the one before it, whichever shard it runs on, so the
    /// worker's clock covers every fence the commit paid on any shard.
    #[test]
    fn cross_shard_commit_runs_on_one_clock() {
        let model = pmem_sim::LatencyModel {
            sfence_ns: 1_000,
            ..pmem_sim::LatencyModel::zero()
        };
        let e = ShardedEngine::create(
            2,
            MachineConfig { model, ..cfg() },
            PtmConfig::redo(),
            1 << 14,
            4,
        );
        e.begin_roaming_run(1);
        let mut cx = CrossShardTx::new(&e, 0);
        let cells: Vec<PAddr> = (0..2)
            .map(|s| {
                let th = cx.thread_mut(s);
                let heap = Arc::clone(th.heap());
                heap.alloc(th.session_mut(), 1)
            })
            .collect();
        e.reset_stats();
        let t0 = cx.frontier();
        cx.run(|tx| {
            tx.write(0, cells[0], 1)?;
            tx.write(1, cells[1], 2)
        });
        let elapsed = cx.frontier() - t0;
        let fences = e.aggregate_mem_stats().sfences;
        assert_eq!(e.aggregate_ptm_stats().prepares, 2, "a 2PC commit");
        assert!(
            elapsed >= fences * 1_000,
            "{fences} fences of 1000 ns in {elapsed} ns: shards ran on separate clocks"
        );
    }

    /// A cross-shard abort is traced under the cause the deciding
    /// participant noted, not as a user abort on the lead shard: worker B
    /// commits X on shard 1 after worker A read it, so A's validation
    /// fails on shard 1 while shard 0 leads.
    #[test]
    fn cross_shard_abort_is_traced_where_it_was_decided() {
        let tracing = PtmConfig {
            tracing: true,
            ..PtmConfig::redo()
        };
        let e = ShardedEngine::create(2, cfg(), tracing, 1 << 14, 4);
        let sinks: Vec<_> = (0..2)
            .map(|s| {
                let sink = trace::TraceSink::new_for_shard(1 << 12, s as u32);
                e.shard(s).machine().attach_tracer(Arc::clone(&sink));
                sink
            })
            .collect();
        // Stepped: this one OS thread alternates both workers, so their
        // clock domain must not throttle (`pmem_sim::clock`).
        let clocks = Arc::new(pmem_sim::clock::ClockDomain::new(2, u64::MAX));
        for s in 0..2 {
            e.shard(s).machine().begin_run_on(Arc::clone(&clocks));
        }
        let (mut a, mut b) = (CrossShardTx::new(&e, 0), CrossShardTx::new(&e, 1));
        let cells: Vec<PAddr> = (0..2)
            .map(|s| {
                let th = a.thread_mut(s);
                let heap = Arc::clone(th.heap());
                heap.alloc(th.session_mut(), 1)
            })
            .collect();
        let mut interfere = true;
        a.run(|tx| {
            let x = tx.read(1, cells[1])?;
            if std::mem::take(&mut interfere) {
                b.thread_mut(1).run(|tx| tx.write(cells[1], 7));
            }
            tx.write(0, cells[0], x)?;
            tx.write(1, cells[1], x + 1)
        });
        drop((a, b));
        let threads: Vec<_> = sinks.iter().flat_map(|s| s.threads()).collect();
        let g = trace::GaugeSet::of_run(&threads);
        let counted = e.aggregate_ptm_stats().aborts_validation;
        assert_eq!(counted, 1, "validation failed once, on shard 1");
        assert_eq!(g.aborts[trace::AbortCause::Validation as usize], counted);
        assert_eq!(g.aborts[trace::AbortCause::User as usize], 0);
    }

    /// The regression the tentpole hangs on: single-shard work driven
    /// through the cross-shard handle is bit-identical (counters *and*
    /// virtual time) to the plain single-shard executor.
    #[test]
    fn single_shard_path_is_bit_identical_through_cross_handle() {
        fn scenario(cross: bool) -> (u64, u64, u64, u64) {
            let e = ShardedEngine::create(1, cfg(), PtmConfig::redo(), 1 << 14, 4);
            e.begin_roaming_run(1);
            let v = if cross {
                let mut cx = CrossShardTx::new(&e, 0);
                let c = {
                    let th = cx.thread_mut(0);
                    let heap = Arc::clone(th.heap());
                    heap.alloc(th.session_mut(), 1)
                };
                cx.run(|tx| tx.write(0, c, 0));
                for i in 0..10u64 {
                    cx.run(|tx| {
                        let v = tx.read(0, c)?;
                        tx.write(0, c, v + i)
                    });
                }
                cx.run(|tx| tx.read(0, c))
            } else {
                let mut th = e.thread(0, 0);
                let heap = Arc::clone(e.shard(0).heap());
                let c = heap.alloc(th.session_mut(), 1);
                th.run(|tx| tx.write(c, 0));
                for i in 0..10u64 {
                    th.run(|tx| {
                        let v = tx.read(c)?;
                        tx.write(c, v + i)
                    });
                }
                th.run(|tx| tx.read(c))
            };
            let agg = e.aggregate_ptm_stats();
            (v, e.max_run_time_ns(), agg.commits, agg.prepares)
        }
        let plain = scenario(false);
        let via_cross = scenario(true);
        assert_eq!(plain, via_cross);
        assert_eq!(via_cross.3, 0, "single-shard work must never prepare");
    }

    /// Hand-rolled in-doubt state: both shards PREPARED under one gtid,
    /// crash before (or after) the decision record. Resolution must
    /// abort (commit) both, and a second crash/reopen must be a no-op.
    #[test]
    fn in_doubt_logs_resolve_by_coordinator_record() {
        for decide_commit in [false, true] {
            let e = ShardedEngine::create(2, cfg(), PtmConfig::redo(), 1 << 14, 4);
            e.begin_run_all(2);
            let mut cells = Vec::new();
            for s in 0..2 {
                let mut th = e.thread(s, 0);
                let heap = Arc::clone(e.shard(s).heap());
                let c = heap.alloc(th.session_mut(), 1);
                th.run(|tx| tx.write(c, 1));
                heap.set_root(th.session_mut(), 0, c);
                cells.push(c);
            }
            let gtid = 7u64;
            for (s, &cell) in cells.iter().enumerate() {
                let mut th = e.thread(s, 1);
                th.ax.begin();
                th.policy.on_write(&mut th.ax, cell, 2).unwrap();
                assert!(th.policy.pre_commit_acquire(&mut th.ax));
                let wv = th.ptm().clock.bump();
                th.ax.commit_wv = wv;
                th.policy.make_prepared(&mut th.ax, gtid);
                // Crash before commit_prepared: the log is in doubt.
            }
            if decide_commit {
                let pool = e.coord_pool(0);
                pool.raw_store(0, gtid);
                pool.raw_store(1, coord_seal(gtid));
                pool.persist_line_now(0);
            }
            let images = e.crash_all(5);
            let (e2, reports) = ShardedEngine::reopen(&images, cfg(), PtmConfig::redo());
            let commits: usize = reports
                .iter()
                .map(|r| r.recovery.indoubt_resolved_commit)
                .sum();
            let aborts: usize = reports
                .iter()
                .map(|r| r.recovery.indoubt_resolved_abort)
                .sum();
            let skipped: usize = reports.iter().map(|r| r.recovery.prepared_skipped).sum();
            assert_eq!(skipped, 2, "per-shard pass must leave both in doubt");
            if decide_commit {
                assert_eq!((commits, aborts), (2, 0));
            } else {
                assert_eq!((commits, aborts), (0, 2));
            }
            let expected = if decide_commit { 2 } else { 1 };
            e2.begin_run_all(1);
            for s in 0..2 {
                let c = e2.shard(s).heap().root_raw(0);
                let mut th = e2.thread(s, 0);
                assert_eq!(th.run(|tx| tx.read(c)), expected, "shard {s}");
            }
            // Idempotence: a second crash/reopen finds nothing in doubt
            // and every coordinator slot durably zeroed.
            let images2 = e2.crash_all(9);
            let (e3, reports2) = ShardedEngine::reopen(&images2, cfg(), PtmConfig::redo());
            for r in &reports2 {
                assert_eq!(r.recovery.prepared_skipped, 0);
                assert_eq!(r.recovery.indoubt_resolved_commit, 0);
                assert_eq!(r.recovery.indoubt_resolved_abort, 0);
            }
            for s in 0..2 {
                let pool = e3.coord_pool(s);
                for w in 0..(crate::log::COORD_SLOTS * COORD_SLOT_WORDS) as u64 {
                    assert_eq!(pool.raw_load(w), 0, "coord slot word {w} on shard {s}");
                }
            }
        }
    }

    /// Cross-shard transactions survive a post-commit crash: the decide
    /// fence is the durability point, so a committed transfer must be
    /// visible on both shards after reopen.
    #[test]
    fn committed_cross_shard_transfer_survives_crash() {
        for algo in [
            PtmConfig::redo(),
            PtmConfig::undo(),
            PtmConfig::htm_logged(),
        ] {
            let e = ShardedEngine::create(2, cfg(), algo.clone(), 1 << 14, 4);
            e.begin_roaming_run(1);
            let mut cx = CrossShardTx::new(&e, 0);
            let cells: Vec<PAddr> = (0..2)
                .map(|s| {
                    let th = cx.thread_mut(s);
                    let heap = Arc::clone(th.heap());
                    let c = heap.alloc(th.session_mut(), 1);
                    heap.set_root(th.session_mut(), 0, c);
                    c
                })
                .collect();
            cx.thread_mut(0).run(|tx| tx.write(cells[0], 90));
            cx.thread_mut(1).run(|tx| tx.write(cells[1], 10));
            cx.run(|tx| {
                let a = tx.read(0, cells[0])?;
                let b = tx.read(1, cells[1])?;
                tx.write(0, cells[0], a - 25)?;
                tx.write(1, cells[1], b + 25)
            });
            drop(cx);
            let images = e.crash_all(13);
            let (e2, _) = ShardedEngine::reopen(&images, cfg(), algo.clone());
            e2.begin_run_all(1);
            let mut total = 0;
            for s in 0..2 {
                let c = e2.shard(s).heap().root_raw(0);
                let mut th = e2.thread(s, 0);
                total += th.run(|tx| tx.read(c));
            }
            assert_eq!(total, 100, "algo {:?}", algo.algo);
            let a = {
                let c = e2.shard(0).heap().root_raw(0);
                let mut th = e2.thread(0, 0);
                th.run(|tx| tx.read(c))
            };
            assert_eq!(a, 65, "algo {:?}", algo.algo);
        }
    }
}
