//! Sharded multi-pool engine: N independent PTM instances, one per
//! simulated machine, under a single coordinator.
//!
//! The paper's central obstruction is that a single Optane DIMM's write
//! pipeline (WPQ + media write bandwidth) saturates with a handful of
//! writer threads. A [`ShardedEngine`] sidesteps the wall by partitioning
//! the key space across N shards, each a complete `machine + heap + ptm`
//! stack with its own WPQ banks, orec table and log arena. Transactions
//! are routed by key ([`ShardedEngine::shard_of`]) and each executor
//! ([`ShardedEngine::thread`]) is *structurally* confined to one shard:
//! its heap and memory session belong to that shard's machine, so a
//! cross-shard access is not merely forbidden but unrepresentable
//! (`PAddr`s of foreign pools panic at the pool boundary).
//!
//! Cross-shard atomicity is provided by [`crate::twopc::CrossShardTx`]:
//! two-phase commit over the per-shard logs, with the decision record
//! persisted in the coordinator shard's [`crate::log::COORD_POOL`]
//! (allocated here, one per shard machine, so the record rides the same
//! crash/recovery machinery as every other pool).
//!
//! Crash behaviour composes per shard: [`ShardedEngine::crash_all`]
//! yields one media image per shard, and [`ShardedEngine::reopen`] runs
//! log recovery and allocator GC on every shard independently, one shard
//! after another on the calling thread — then a single cross-shard
//! outcome-resolution pass
//! ([`crate::recovery::resolve_in_doubt`]) decides every in-doubt 2PC
//! participant from the durable coordinator records.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pmem_sim::clock::{ClockDomain, WINDOW_NS};
use pmem_sim::{CrashImage, Machine, MachineConfig, PmemPool, StatsSnapshot};

use crate::config::PtmConfig;
use crate::crash_harness::shard_seed;
use crate::db::{machines_of, restart, PtmDb, ReopenReports, Restarted};
use crate::log::{COORD_POOL, COORD_SLOTS, COORD_SLOT_WORDS};
use crate::recovery::{resolve_in_doubt, RecoverOptions};
use crate::stats::PtmStatsSnapshot;
use crate::txn::TxThread;

/// Shard `shard`'s heap pool name, which is how
/// [`ShardedEngine::reopen`] finds it again.
pub(crate) fn shard_heap_name(shard: usize) -> String {
    format!("shard-heap-{shard}")
}

/// Restart a set of machines on the calling thread, machine `i` from
/// `images[i]` with its heap in pool `heap_pools[i]`, in machine order:
/// every machine goes through [`restart`] (machines never read each
/// other's pools, so restarts commute and the order does not matter),
/// then one cross-machine [`resolve_in_doubt`] pass decides each PREPARED
/// log from the durable coordinator records, in fixed machine order, and
/// folds its counts into the owning machine's recovery report. The first
/// `Err` in machine order wins.
pub(crate) fn restart_all(
    images: &[CrashImage],
    heap_pools: &[String],
    machine_cfg: &MachineConfig,
    opts: RecoverOptions,
) -> Result<Vec<Restarted>, String> {
    let mut restarted = images
        .iter()
        .zip(heap_pools)
        .map(|(image, pool)| restart(image, pool, machine_cfg.clone(), opts))
        .collect::<Result<Vec<_>, _>>()?;
    let resolution = resolve_in_doubt(&machines_of(&restarted));
    for (r, res) in restarted.iter_mut().zip(resolution) {
        r.reports.recovery.merge(&res);
    }
    Ok(restarted)
}

/// N single-shard databases behind one key-routed front door.
pub struct ShardedEngine {
    /// Shard `i` is a complete [`PtmDb`]: its own machine, heap and PTM.
    shards: Vec<PtmDb>,
    /// Per-shard 2PC coordinator-record pools (`COORD_POOL` on each
    /// shard machine), in shard order.
    coords: Vec<Arc<PmemPool>>,
    /// Next global transaction id for cross-shard commits. Gtids are
    /// engine-local, start at 1 (0 = free slot), and must fit 32 bits
    /// (the PREPARED marker packs them into the log state word). Safe
    /// to restart from 1 after reopen: resolution durably clears every
    /// coordinator slot before new transactions run.
    gtid_next: AtomicU64,
    /// Round-robin coordinator slot cursor. With fewer than
    /// [`COORD_SLOTS`] cross-shard commits in flight a slot is always
    /// tombstoned (in cache) before the cursor wraps back to it.
    coord_cursor: AtomicUsize,
}

impl ShardedEngine {
    /// Build `shards` fresh stacks. Every shard gets an identical machine
    /// configuration, an identical PTM configuration, and its own heap of
    /// `heap_words_per_shard` words with `roots` root slots.
    pub fn create(
        shards: usize,
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
        heap_words_per_shard: usize,
        roots: usize,
    ) -> ShardedEngine {
        let machines = (0..shards)
            .map(|_| Machine::new(machine_cfg.clone()))
            .collect();
        Self::on_machines(machines, ptm_cfg, heap_words_per_shard, roots)
    }

    /// [`ShardedEngine::create`] over machines the caller already built
    /// (the crash harness arms one injector on all of them).
    pub(crate) fn on_machines(
        machines: Vec<Arc<Machine>>,
        ptm_cfg: PtmConfig,
        heap_words_per_shard: usize,
        roots: usize,
    ) -> ShardedEngine {
        let shards = machines
            .into_iter()
            .enumerate()
            .map(|(i, machine)| {
                PtmDb::on_machine(
                    machine,
                    &shard_heap_name(i),
                    ptm_cfg.clone(),
                    heap_words_per_shard,
                    roots,
                )
            })
            .collect();
        Self::over(shards)
    }

    /// The engine over `shards`, adopting each machine's coordinator pool
    /// or allocating it where there is none yet (a fresh machine, or an
    /// image that predates 2PC). Restart resolution leaves every slot
    /// durably zeroed, so starting gtids from 1 is safe either way.
    fn over(shards: Vec<PtmDb>) -> ShardedEngine {
        assert!(!shards.is_empty(), "an engine needs at least one shard");
        let coords = shards
            .iter()
            .map(|db| {
                let m = db.machine();
                m.pools()
                    .into_iter()
                    .find(|p| p.name() == COORD_POOL)
                    .unwrap_or_else(|| {
                        let media = db.ptm().config.heap_media;
                        m.alloc_pool(COORD_POOL, COORD_SLOTS * COORD_SLOT_WORDS, media)
                    })
            })
            .collect();
        ShardedEngine {
            shards,
            coords,
            gtid_next: AtomicU64::new(1),
            coord_cursor: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`: a whole database (machine, heap, PTM).
    pub fn shard(&self, shard: usize) -> &PtmDb {
        assert!(shard < self.shards(), "shard {shard} out of range");
        &self.shards[shard]
    }

    /// Which of `shards` shards owns `key`. Fibonacci multiply-shift so
    /// adjacent keys scatter; a pure function of its arguments, so
    /// routing is stable across runs and across crash/reopen, and a
    /// driver can size its shards before the engine exists.
    pub fn route(key: u64, shards: usize) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % shards as u64) as usize
    }

    /// Which shard of this engine owns `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        Self::route(key, self.shards())
    }

    /// A transaction executor for virtual thread `tid` on shard `shard`.
    /// The returned [`TxThread`] is bound to that shard's heap and clock
    /// — it cannot name another shard's memory.
    pub fn thread(&self, shard: usize, tid: usize) -> TxThread {
        self.shard(shard).thread(tid)
    }

    /// Assert that `key` is homed on `shard` — drivers call this on every
    /// operation so a routing bug fails loudly instead of silently doing
    /// single-shard work on the wrong shard. Checked in release builds
    /// too (one multiply-shift per op): a misroute is silent data
    /// misplacement, exactly the class of bug benchmarks would otherwise
    /// launder into plausible numbers.
    pub fn assert_routed(&self, shard: usize, key: u64) {
        let home = self.shard_of(key);
        if home != shard {
            panic!(
                "misrouted operation: key {key} executed on shard {shard} but is homed on shard {home} (of {})",
                self.shards()
            );
        }
    }

    /// Start a timed run on every shard: `threads_per_shard` virtual
    /// threads each, bounded-lag window [`WINDOW_NS`]. Each shard has its
    /// own clock domain — shards do not lag-couple to each other.
    pub fn begin_run_all(&self, threads_per_shard: usize) {
        for db in &self.shards {
            db.begin_run(threads_per_shard, WINDOW_NS);
        }
    }

    /// Start a timed run for `workers` roaming workers: one clock domain,
    /// a slot per worker, on every shard machine, so each worker has one
    /// clock ([`crate::twopc::CrossShardTx`]) bounded by [`WINDOW_NS`].
    pub fn begin_roaming_run(&self, workers: usize) {
        let clocks = Arc::new(ClockDomain::new(workers, WINDOW_NS));
        for db in &self.shards {
            db.machine().begin_run_on(Arc::clone(&clocks));
        }
    }

    /// Simulated power failure on all shards at once: one media image per
    /// shard, shard `i` under the adversary seed [`shard_seed`]`(seed, i)`
    /// (independent and deterministic per shard; shard 0 keeps `seed`).
    pub fn crash_all(&self, seed: u64) -> Vec<CrashImage> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, db)| db.crash(shard_seed(seed, i)))
            .collect()
    }

    /// Reboot every shard from its crash image: per-shard PTM recovery
    /// (redo replay / undo rollback from that shard's log arena alone)
    /// followed by per-shard heap attach + GC, then one in-doubt
    /// resolution pass over all of them ([`restart_all`]). Shard `i`
    /// recovers from `images[i]`; the shards restart one after another
    /// on the calling thread, in shard order (recovery on one shard never
    /// reads another shard's pools, so shard restarts commute and the
    /// order is immaterial), and the returned reports stay in shard
    /// order.
    pub fn reopen(
        images: &[CrashImage],
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
    ) -> (ShardedEngine, Vec<ReopenReports>) {
        assert!(!images.is_empty(), "reopen needs at least one shard image");
        let heap_pools: Vec<String> = (0..images.len()).map(shard_heap_name).collect();
        let opts = RecoverOptions::default();
        let (shards, reports) = restart_all(images, &heap_pools, &machine_cfg, opts)
            .expect("shard restart")
            .into_iter()
            .map(|r| PtmDb::from_restarted(r, ptm_cfg.clone()))
            .unzip();
        (Self::over(shards), reports)
    }

    /// Sum of all shards' PTM counters (high-water fields take the max).
    pub fn aggregate_ptm_stats(&self) -> PtmStatsSnapshot {
        let mut total = PtmStatsSnapshot::default();
        for db in &self.shards {
            total.merge(&db.ptm().stats.snapshot());
        }
        total
    }

    /// Sum of all shards' memory-system counters.
    pub fn aggregate_mem_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for snap in self.per_shard_mem_stats() {
            total.merge(&snap);
        }
        total
    }

    /// Per-shard memory-system snapshots, in shard order (for per-shard
    /// WPQ-stall attribution in benchmark output).
    pub fn per_shard_mem_stats(&self) -> Vec<StatsSnapshot> {
        self.shards
            .iter()
            .map(|db| db.machine().stats.snapshot())
            .collect()
    }

    /// Zero every shard's PTM and memory counters.
    pub fn reset_stats(&self) {
        for db in &self.shards {
            db.reset_stats();
        }
    }

    /// Aggregate makespan: the largest virtual time reached by any thread
    /// on any shard (open-loop aggregate throughput = total ops / this).
    pub fn max_run_time_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|db| db.machine().run_time_ns())
            .max()
            .unwrap_or(0)
    }

    /// Shard `i`'s 2PC coordinator-record pool.
    pub(crate) fn coord_pool(&self, shard: usize) -> &Arc<PmemPool> {
        &self.coords[shard]
    }

    /// Allocate the next cross-shard global transaction id (never 0;
    /// must fit the PREPARED marker's 32-bit gtid field).
    pub(crate) fn next_gtid(&self) -> u64 {
        let g = self.gtid_next.fetch_add(1, Ordering::Relaxed);
        assert!(g < u32::MAX as u64, "cross-shard gtid space exhausted");
        g
    }

    /// Claim a coordinator record slot (round-robin over the fixed slot
    /// array; see `coord_cursor` for why reuse is safe).
    pub(crate) fn next_coord_slot(&self) -> usize {
        self.coord_cursor.fetch_add(1, Ordering::Relaxed) % COORD_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::DurabilityDomain;

    fn cfg() -> MachineConfig {
        MachineConfig::functional(DurabilityDomain::Adr)
    }

    fn engine(shards: usize) -> ShardedEngine {
        ShardedEngine::create(shards, cfg(), PtmConfig::redo(), 1 << 14, 4)
    }

    /// One routing function: `shard_of` is `route` at the engine's own
    /// shard count, for every count — in range, and a dense key range
    /// reaches every shard.
    #[test]
    fn shard_of_is_route_at_every_shard_count() {
        for n in 1..=16 {
            let e = ShardedEngine::create(n, cfg(), PtmConfig::redo(), 1 << 12, 4);
            let mut seen = vec![false; n];
            for key in 0..10_000u64 {
                let s = e.shard_of(key);
                assert_eq!(s, ShardedEngine::route(key, n), "key {key} of {n}");
                assert!(s < n);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&s| s), "dense keys must hit all {n}");
        }
    }

    /// "From, not beside": a 1-shard engine is a `PtmDb` plus a
    /// coordinator pool. Give a `PtmDb` a same-sized pool in the same
    /// place (so both machines hold the same pools under the same ids —
    /// the cache model hashes pool ids) and one seeded stream ends both
    /// at the same virtual clock, counters and pool contents, under real
    /// latencies.
    #[test]
    fn one_shard_engine_is_a_ptmdb_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mcfg = MachineConfig {
            track_persistence: true,
            ..MachineConfig::default()
        };
        let stream = |mut th: TxThread| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(24);
            let heap = Arc::clone(th.heap());
            let table = heap.alloc(th.session_mut(), 512);
            heap.set_root(th.session_mut(), 0, table);
            for _ in 0..400 {
                let (from, to) = (rng.gen_range(0..512u64), rng.gen_range(0..512u64));
                let amt = rng.gen_range(1..9u64);
                th.run(|tx| {
                    let f = tx.read_at(table, from)?;
                    tx.write_at(table, from, f.wrapping_sub(amt))?;
                    let t = tx.read_at(table, to)?;
                    tx.write_at(table, to, t.wrapping_add(amt))
                });
            }
            th.session_mut().now()
        };
        for ptm_cfg in [PtmConfig::redo(), PtmConfig::undo()] {
            let e = ShardedEngine::create(1, mcfg.clone(), ptm_cfg.clone(), 1 << 14, 4);
            e.begin_run_all(1);
            let engine_clock = stream(e.thread(0, 0));

            let db = PtmDb::create(mcfg.clone(), ptm_cfg, 1 << 14, 4);
            db.machine().alloc_pool(
                "in-place-of-the-coordinator",
                COORD_SLOTS * COORD_SLOT_WORDS,
                pmem_sim::MediaKind::Optane,
            );
            db.begin_run(1, u64::MAX);
            let db_clock = stream(db.thread(0));

            assert_eq!(engine_clock, db_clock);
            assert!(engine_clock > 0);
            assert_eq!(e.aggregate_ptm_stats(), db.ptm().stats_snapshot());
            assert_eq!(e.aggregate_mem_stats(), db.machine().stats.snapshot());
            assert_eq!(e.max_run_time_ns(), db.machine().run_time_ns());
            let shard0 = std::slice::from_ref(e.shard(0).machine());
            assert_eq!(
                crate::crash_harness::digest_pools(shard0),
                crate::crash_harness::digest_pools(std::slice::from_ref(db.machine()))
            );
        }
    }

    /// Shards share nothing: a pool allocated and timed work done on one
    /// shard's machine moves no other shard's pools, clocks or counters.
    #[test]
    fn work_on_one_shard_leaves_the_others_untouched() {
        let e = ShardedEngine::create(4, MachineConfig::default(), PtmConfig::redo(), 1 << 12, 4);
        let pools = e.shard(1).machine().pools().len();
        let p = e
            .shard(0)
            .machine()
            .alloc_pool("h", 64, pmem_sim::MediaKind::Optane);
        assert_eq!(e.shard(0).machine().pools().len(), pools + 1);
        assert_eq!(e.shard(1).machine().pools().len(), pools);
        e.begin_run_all(1);
        {
            let mut s = e.shard(0).machine().session(0);
            s.store(p.addr(0), 7);
            s.clwb(p.addr(0));
            s.sfence();
            s.finish();
        }
        assert!(e.shard(0).machine().run_time_ns() > 0);
        assert_eq!(e.max_run_time_ns(), e.shard(0).machine().run_time_ns());
        assert_eq!(e.shard(1).machine().run_time_ns(), 0);
        assert_eq!(e.per_shard_mem_stats()[1].stores, 0);
    }

    /// The aggregate is the sum of the per-shard snapshots whether a
    /// shard's session has retired or is still live, and `reset_stats`
    /// zeroes it.
    #[test]
    fn aggregate_mem_stats_sum_live_and_retired_sessions() {
        let e = ShardedEngine::create(2, MachineConfig::default(), PtmConfig::redo(), 1 << 12, 4);
        let pool = |i: usize| {
            e.shard(i)
                .machine()
                .alloc_pool("a", 64, pmem_sim::MediaKind::Optane)
        };
        let (p0, p1) = (pool(0), pool(1));
        e.begin_run_all(1);
        let mut s0 = e.shard(0).machine().session(0);
        let mut s1 = e.shard(1).machine().session(0);
        s0.store(p0.addr(0), 1);
        s1.store(p1.addr(0), 2);
        s1.store(p1.addr(8), 3);
        drop(s0);
        let agg = e.aggregate_mem_stats();
        assert_eq!(agg.stores, 3);
        let mut sum = StatsSnapshot::default();
        for snap in e.per_shard_mem_stats() {
            sum.merge(&snap);
        }
        assert_eq!(agg, sum);
        e.reset_stats();
        assert_eq!(e.aggregate_mem_stats().stores, 0);
    }

    #[test]
    fn shards_commit_independently() {
        let e = engine(2);
        e.begin_run_all(1);
        let mut cells = Vec::new();
        for shard in 0..2 {
            let mut th = e.thread(shard, 0);
            let heap = Arc::clone(e.shard(shard).heap());
            let c = heap.alloc(th.session_mut(), 1);
            th.run(|tx| tx.write(c, 100 + shard as u64));
            cells.push(c);
        }
        for (shard, &c) in cells.iter().enumerate() {
            let mut th = e.thread(shard, 0);
            assert_eq!(th.run(|tx| tx.read(c)), 100 + shard as u64);
        }
        let agg = e.aggregate_ptm_stats();
        assert_eq!(agg.commits, 4);
        // Each shard saw exactly its own transactions.
        assert_eq!(e.shard(0).ptm().stats.snapshot().commits, 2);
        assert_eq!(e.shard(1).ptm().stats.snapshot().commits, 2);
    }

    #[test]
    fn crash_all_reopen_recovers_every_shard() {
        let e = engine(3);
        e.begin_run_all(1);
        let mut cells = Vec::new();
        for shard in 0..3 {
            let mut th = e.thread(shard, 0);
            let heap = Arc::clone(e.shard(shard).heap());
            let c = heap.alloc(th.session_mut(), 2);
            th.run(|tx| {
                tx.write(c, 7 * (shard as u64 + 1))?;
                tx.write_at(c, 1, 9)
            });
            heap.set_root(th.session_mut(), 0, c);
            cells.push(c);
        }
        let images = e.crash_all(11);
        assert_eq!(images.len(), 3);
        let (e2, reports) = ShardedEngine::reopen(&images, cfg(), PtmConfig::redo());
        assert_eq!(reports.len(), 3);
        for (shard, rep) in reports.iter().enumerate() {
            assert_eq!(rep.recovery.logs_scanned, 1, "shard {shard} log scan");
        }
        e2.begin_run_all(1);
        for (shard, &cell) in cells.iter().enumerate() {
            let c = e2.shard(shard).heap().root_raw(0);
            assert_eq!(c, cell);
            let mut th = e2.thread(shard, 0);
            assert_eq!(th.run(|tx| tx.read(c)), 7 * (shard as u64 + 1));
            assert_eq!(th.run(|tx| tx.read_at(c, 1)), 9);
        }
    }

    /// Shard restart is deterministic — two reopens of the same images
    /// agree report for report and word for word — and folding the
    /// per-shard reports with `ReopenReports::merge` equals the
    /// field-wise sum, counts and wall-clock alike.
    #[test]
    fn reopen_is_deterministic_and_merge_equals_sum() {
        let e = engine(3);
        e.begin_run_all(1);
        for shard in 0..3 {
            let mut th = e.thread(shard, 0);
            let heap = Arc::clone(e.shard(shard).heap());
            let c = heap.alloc(th.session_mut(), 2);
            th.run(|tx| tx.write(c, 5 + shard as u64));
            heap.set_root(th.session_mut(), 0, c);
            let _leak = heap.alloc(th.session_mut(), 4);
        }
        let images = e.crash_all(23);
        let (first_e, first_reports) = ShardedEngine::reopen(&images, cfg(), PtmConfig::redo());
        let (second_e, reports) = ShardedEngine::reopen(&images, cfg(), PtmConfig::redo());
        assert_eq!(first_reports.len(), reports.len());
        for shard in 0..3 {
            let (a, b) = (&first_reports[shard], &reports[shard]);
            assert_eq!(
                a.recovery.without_timing(),
                b.recovery.without_timing(),
                "shard {shard} recovery report"
            );
            assert_eq!(a.gc.live_blocks, b.gc.live_blocks, "shard {shard}");
            assert_eq!(a.gc.leaked_blocks, b.gc.leaked_blocks, "shard {shard}");
            assert_eq!(
                a.gc.reclaimed_blocks, b.gc.reclaimed_blocks,
                "shard {shard}"
            );
            // Bit-identical durable state per shard.
            for (pa, pb) in first_e
                .shard(shard)
                .machine()
                .pools()
                .iter()
                .zip(second_e.shard(shard).machine().pools().iter())
            {
                for w in 0..pa.len_words() as u64 {
                    assert_eq!(pa.raw_load(w), pb.raw_load(w), "shard {shard} word {w}");
                }
            }
        }
        let mut merged = ReopenReports::default();
        for r in &reports {
            merged.merge(r);
        }
        assert_eq!(
            merged.recovery.logs_scanned,
            reports
                .iter()
                .map(|r| r.recovery.logs_scanned)
                .sum::<usize>()
        );
        assert_eq!(
            merged.gc.blocks_scanned,
            reports.iter().map(|r| r.gc.blocks_scanned).sum::<usize>()
        );
        assert_eq!(
            merged.full_restart_ns,
            reports.iter().map(|r| r.full_restart_ns).sum::<u64>()
        );
        assert_eq!(merged.time_to_first_txn_ns, merged.full_restart_ns);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_shard_thread_rejected() {
        let e = engine(2);
        e.begin_run_all(1);
        let _ = e.thread(2, 0);
    }
}
