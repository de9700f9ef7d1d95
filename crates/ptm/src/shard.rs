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
//! log recovery and allocator GC on every shard independently — then a
//! single cross-shard outcome-resolution pass
//! ([`crate::recovery::resolve_in_doubt`]) decides every in-doubt 2PC
//! participant from the durable coordinator records.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use palloc::PHeap;
use pmem_sim::{CrashImage, Machine, MachineConfig, MachineSet, PmemPool, StatsSnapshot};

use crate::config::PtmConfig;
use crate::db::{machines_of, restart, ReopenReports, Restarted};
use crate::log::{COORD_POOL, COORD_SLOTS, COORD_SLOT_WORDS};
use crate::recovery::{resolve_in_doubt, RecoverOptions};
use crate::stats::{PtmStats, PtmStatsSnapshot};
use crate::txn::{Ptm, TxThread};

/// Pool-name prefix for shard heaps; shard `i`'s heap pool is named
/// `"shard-heap-<i>"`, which is how [`ShardedEngine::reopen`] finds it.
pub const SHARD_HEAP_PREFIX: &str = "shard-heap";

pub(crate) fn shard_heap_name(shard: usize) -> String {
    format!("{SHARD_HEAP_PREFIX}-{shard}")
}

/// Restart a set of machines, machine `i` from `images[i]` with its heap
/// in pool `heap_pools[i]`: every machine goes through [`restart`] on its
/// own thread (machines never read each other's pools, so restarts
/// commute and the result is that of the serial order), then one
/// cross-machine [`resolve_in_doubt`] pass decides each PREPARED log from
/// the durable coordinator records, in fixed machine order, and folds
/// its counts into the owning machine's recovery report. The first `Err`
/// in machine order wins; a panicking restart thread re-raises here.
pub(crate) fn restart_all(
    images: &[CrashImage],
    heap_pools: &[String],
    machine_cfg: &MachineConfig,
    opts: RecoverOptions,
) -> Result<Vec<Restarted>, String> {
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = images
            .iter()
            .zip(heap_pools)
            .map(|(image, pool)| s.spawn(move || restart(image, pool, machine_cfg.clone(), opts)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut restarted = Vec::with_capacity(images.len());
    for res in results {
        restarted.push(res.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?);
    }
    let resolution = resolve_in_doubt(&machines_of(&restarted));
    for (r, res) in restarted.iter_mut().zip(resolution) {
        r.reports.recovery.merge(&res);
    }
    Ok(restarted)
}

/// N single-shard PTM stacks behind one key-routed front door.
pub struct ShardedEngine {
    machines: MachineSet,
    heaps: Vec<Arc<PHeap>>,
    ptms: Vec<Arc<Ptm>>,
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
        Self::on_machines(
            MachineSet::new(shards, machine_cfg),
            ptm_cfg,
            heap_words_per_shard,
            roots,
        )
    }

    /// [`ShardedEngine::create`] over machines the caller already built
    /// (the crash harness arms one injector on all of them).
    pub(crate) fn on_machines(
        machines: MachineSet,
        ptm_cfg: PtmConfig,
        heap_words_per_shard: usize,
        roots: usize,
    ) -> ShardedEngine {
        let shards = machines.len();
        let heaps = (0..shards)
            .map(|i| {
                PHeap::format_with_media(
                    machines.get(i),
                    &shard_heap_name(i),
                    heap_words_per_shard,
                    roots,
                    ptm_cfg.heap_media,
                )
            })
            .collect();
        let ptms = (0..shards).map(|_| Ptm::new(ptm_cfg.clone())).collect();
        let coords = (0..shards)
            .map(|i| {
                machines.get(i).alloc_pool(
                    COORD_POOL,
                    COORD_SLOTS * COORD_SLOT_WORDS,
                    ptm_cfg.heap_media,
                )
            })
            .collect();
        ShardedEngine {
            machines,
            heaps,
            ptms,
            coords,
            gtid_next: AtomicU64::new(1),
            coord_cursor: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.machines.len()
    }

    /// Which shard owns `key`. Fibonacci multiply-shift so adjacent keys
    /// scatter; deterministic, so routing is stable across runs and
    /// across crash/reopen.
    pub fn shard_of(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.shards() as u64) as usize
    }

    /// A transaction executor for virtual thread `tid` on shard `shard`.
    /// The returned [`TxThread`] is bound to that shard's heap and clock
    /// — it cannot name another shard's memory.
    pub fn thread(&self, shard: usize, tid: usize) -> TxThread {
        assert!(shard < self.shards(), "shard {shard} out of range");
        TxThread::new(
            Arc::clone(&self.ptms[shard]),
            Arc::clone(&self.heaps[shard]),
            self.machines.get(shard).session(tid),
        )
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
    /// threads each, bounded-lag window `window_ns`.
    pub fn begin_run_all(&self, threads_per_shard: usize, window_ns: u64) {
        self.machines.begin_run_all(threads_per_shard, window_ns);
    }

    /// Stop the world on every shard (before a live-run crash).
    pub fn freeze_all(&self) {
        self.machines.freeze_all();
    }

    /// Resume every shard.
    pub fn thaw_all(&self) {
        self.machines.thaw_all();
    }

    /// Simulated power failure on all shards at once: one media image per
    /// shard, adversary seeds derived per shard from `seed`.
    pub fn crash_all(&self, seed: u64) -> Vec<CrashImage> {
        self.machines.crash_all(seed)
    }

    /// Reboot every shard from its crash image: per-shard PTM recovery
    /// (redo replay / undo rollback from that shard's log arena alone)
    /// followed by per-shard heap attach + GC. Shard `i` recovers from
    /// `images[i]`; recovery on one shard never reads another shard's
    /// log.
    pub fn reopen(
        images: &[CrashImage],
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
    ) -> (ShardedEngine, Vec<ReopenReports>) {
        Self::reopen_with(images, machine_cfg, ptm_cfg, RecoverOptions::default())
    }

    /// [`ShardedEngine::reopen`] with explicit recovery options (the
    /// harness's fault-injection switches). The shards restart
    /// *concurrently* (one restart thread per shard), which is
    /// observationally identical to restarting them in order — shards
    /// never read each other's pools, so shard restarts commute — and
    /// the returned reports stay in shard order.
    pub fn reopen_with(
        images: &[CrashImage],
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
        opts: RecoverOptions,
    ) -> (ShardedEngine, Vec<ReopenReports>) {
        assert!(!images.is_empty(), "reopen needs at least one shard image");
        let heap_pools: Vec<String> = (0..images.len()).map(shard_heap_name).collect();
        let restarted =
            restart_all(images, &heap_pools, &machine_cfg, opts).expect("shard restart");
        let mut machines = Vec::with_capacity(images.len());
        let mut heaps = Vec::with_capacity(images.len());
        let mut reports = Vec::with_capacity(images.len());
        for r in restarted {
            machines.push(r.machine);
            heaps.push(r.heap);
            reports.push(r.reports);
        }
        let ptms: Vec<Arc<Ptm>> = (0..images.len())
            .map(|_| Ptm::new(ptm_cfg.clone()))
            .collect();
        for (ptm, rep) in ptms.iter().zip(&reports) {
            PtmStats::add(
                &ptm.stats.indoubt_resolved_commit,
                rep.recovery.indoubt_resolved_commit as u64,
            );
            PtmStats::add(
                &ptm.stats.indoubt_resolved_abort,
                rep.recovery.indoubt_resolved_abort as u64,
            );
        }
        // Re-adopt (or re-create, for images that predate 2PC) each
        // shard's coordinator pool; resolution left every slot durably
        // zeroed, so restarting gtids from 1 is safe.
        let coords = machines
            .iter()
            .map(|m| {
                m.pools()
                    .into_iter()
                    .find(|p| p.name() == COORD_POOL)
                    .unwrap_or_else(|| {
                        m.alloc_pool(
                            COORD_POOL,
                            COORD_SLOTS * COORD_SLOT_WORDS,
                            ptm_cfg.heap_media,
                        )
                    })
            })
            .collect();
        (
            ShardedEngine {
                machines: MachineSet::from_machines(machines),
                heaps,
                ptms,
                coords,
                gtid_next: AtomicU64::new(1),
                coord_cursor: AtomicUsize::new(0),
            },
            reports,
        )
    }

    /// Sum of all shards' PTM counters (high-water fields take the max).
    pub fn aggregate_ptm_stats(&self) -> PtmStatsSnapshot {
        let mut total = PtmStatsSnapshot::default();
        for p in &self.ptms {
            total.merge(&p.stats.snapshot());
        }
        total
    }

    /// Sum of all shards' memory-system counters.
    pub fn aggregate_mem_stats(&self) -> StatsSnapshot {
        self.machines.aggregate_stats()
    }

    /// Per-shard memory-system snapshots, in shard order (for per-shard
    /// WPQ-stall attribution in benchmark output).
    pub fn per_shard_mem_stats(&self) -> Vec<StatsSnapshot> {
        self.machines
            .machines()
            .iter()
            .map(|m| m.stats.snapshot())
            .collect()
    }

    /// Zero every shard's PTM and memory counters.
    pub fn reset_stats(&self) {
        for p in &self.ptms {
            p.stats.reset();
        }
        self.machines.reset_stats();
    }

    /// Aggregate makespan: the largest virtual time reached on any shard.
    pub fn max_run_time_ns(&self) -> u64 {
        self.machines.max_run_time_ns()
    }

    /// Shard `i`'s machine.
    pub fn machine(&self, shard: usize) -> &Arc<Machine> {
        self.machines.get(shard)
    }

    /// Shard `i`'s heap.
    pub fn heap(&self, shard: usize) -> &Arc<PHeap> {
        &self.heaps[shard]
    }

    /// Shard `i`'s PTM instance.
    pub fn ptm(&self, shard: usize) -> &Arc<Ptm> {
        &self.ptms[shard]
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

    #[test]
    fn routing_is_stable_and_in_range() {
        let e = engine(4);
        for key in 0..10_000u64 {
            let s = e.shard_of(key);
            assert!(s < 4);
            assert_eq!(s, e.shard_of(key), "routing must be deterministic");
        }
        // All shards get some share of a dense key range.
        let mut seen = [false; 4];
        for key in 0..10_000u64 {
            seen[e.shard_of(key)] = true;
        }
        assert!(seen.iter().all(|&s| s), "dense keys must hit every shard");
    }

    #[test]
    fn shards_commit_independently() {
        let e = engine(2);
        e.begin_run_all(1, u64::MAX);
        let mut cells = Vec::new();
        for shard in 0..2 {
            let mut th = e.thread(shard, 0);
            let heap = Arc::clone(e.heap(shard));
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
        assert_eq!(e.ptm(0).stats.snapshot().commits, 2);
        assert_eq!(e.ptm(1).stats.snapshot().commits, 2);
    }

    #[test]
    fn crash_all_reopen_recovers_every_shard() {
        let e = engine(3);
        e.begin_run_all(1, u64::MAX);
        let mut cells = Vec::new();
        for shard in 0..3 {
            let mut th = e.thread(shard, 0);
            let heap = Arc::clone(e.heap(shard));
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
        e2.begin_run_all(1, u64::MAX);
        for (shard, &cell) in cells.iter().enumerate() {
            let c = e2.heap(shard).root_raw(0);
            assert_eq!(c, cell);
            let mut th = e2.thread(shard, 0);
            assert_eq!(th.run(|tx| tx.read(c)), 7 * (shard as u64 + 1));
            assert_eq!(th.run(|tx| tx.read_at(c, 1)), 9);
        }
    }

    /// Concurrent shard restart is deterministic — two reopens of the
    /// same images agree report for report and word for word — and
    /// folding the per-shard reports with `ReopenReports::merge` equals
    /// the field-wise sum (counts) / max (wall-clock).
    #[test]
    fn concurrent_reopen_is_deterministic_and_merge_equals_sum() {
        let e = engine(3);
        e.begin_run_all(1, u64::MAX);
        for shard in 0..3 {
            let mut th = e.thread(shard, 0);
            let heap = Arc::clone(e.heap(shard));
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
                .machine(shard)
                .pools()
                .iter()
                .zip(second_e.machine(shard).pools().iter())
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
            reports.iter().map(|r| r.full_restart_ns).max().unwrap()
        );
        assert_eq!(
            merged.time_to_first_txn_ns,
            reports
                .iter()
                .map(|r| r.time_to_first_txn_ns)
                .max()
                .unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_shard_thread_rejected() {
        let e = engine(2);
        e.begin_run_all(1, u64::MAX);
        let _ = e.thread(2, 0);
    }
}
