//! A convenience façade bundling the machine + heap + PTM lifecycle.
//!
//! Most programs want exactly one persistent heap and one PTM instance,
//! and a two-call story for crashes: [`PtmDb::crash`] to capture the
//! failure image, [`PtmDb::reopen`] to get back a fully recovered
//! database (PTM log replay/rollback + allocator GC + root table).
//!
//! ```
//! use pmem_sim::{DurabilityDomain, MachineConfig};
//! use ptm::db::PtmDb;
//! use ptm::PtmConfig;
//!
//! let db = PtmDb::create(
//!     MachineConfig::functional(DurabilityDomain::Adr),
//!     PtmConfig::redo(),
//!     1 << 16,
//!     8,
//! );
//! let mut th = db.thread(0);
//! let heap = db.heap().clone();
//! let cell = heap.alloc(th.session_mut(), 1);
//! th.run(|tx| tx.write(cell, 7));
//! heap.set_root(th.session_mut(), 0, cell);
//! drop(th);
//!
//! let image = db.crash(1);
//! let (db2, reports) = PtmDb::reopen(&image, MachineConfig::functional(DurabilityDomain::Adr), PtmConfig::redo());
//! assert_eq!(reports.gc.blocks_scanned, 1);
//! let cell2 = db2.heap().root_raw(0);
//! assert_eq!(db2.heap().pool().raw_load(cell2.word()), 7);
//! ```

use std::sync::Arc;
use std::time::Instant;

use palloc::{GcReport, PHeap};
use pmem_sim::{CrashImage, Machine, MachineConfig, WORDS_PER_LINE};

use crate::config::PtmConfig;
use crate::recovery::{recover_with_options, RecoverOptions, RecoveryReport};
use crate::stats::PtmStats;
use crate::txn::{Ptm, TxThread};

/// Pool name the façade uses for its heap (how `reopen` finds it again).
pub const DB_HEAP_NAME: &str = "ptmdb-heap";

/// Everything recovery did during [`PtmDb::reopen`].
#[derive(Debug, Clone, Default)]
pub struct ReopenReports {
    pub recovery: RecoveryReport,
    pub gc: GcReport,
    /// Always equal to [`Self::full_restart_ns`]: a transaction can start
    /// only once [`restart`] returns. Kept only because the external
    /// benchmark under `benchmark/` reads it.
    pub time_to_first_txn_ns: u64,
    /// Reopen start → fully restarted: logs repaired and the heap
    /// attached, its GC sweep installed.
    pub full_restart_ns: u64,
}

impl ReopenReports {
    /// Fold another engine's reopen reports into this one (shard
    /// aggregation). Counts add saturating via the underlying reports'
    /// `merge`; the wall-clock fields add too — shards restart one after
    /// another on the calling thread, so the restart latency is the sum.
    pub fn merge(&mut self, other: &ReopenReports) {
        self.recovery.merge(&other.recovery);
        self.gc.merge(&other.gc);
        self.time_to_first_txn_ns = self
            .time_to_first_txn_ns
            .saturating_add(other.time_to_first_txn_ns);
        self.full_restart_ns = self.full_restart_ns.saturating_add(other.full_restart_ns);
    }
}

/// One machine brought back by [`restart`].
pub struct Restarted {
    pub machine: Arc<Machine>,
    pub heap: Arc<PHeap>,
    pub reports: ReopenReports,
}

/// The machines of a restarted set, in order.
pub(crate) fn machines_of(restarted: &[Restarted]) -> Vec<Arc<Machine>> {
    restarted.iter().map(|r| Arc::clone(&r.machine)).collect()
}

/// The restart sequence, written once: reboot a machine from `image`,
/// repair its logs with `opts`, then attach the heap in pool `heap_pool`
/// (the restart GC runs on the calling thread), so the machine comes
/// back fully ready.
/// [`PtmDb::reopen_with`], [`crate::ShardedEngine::reopen`] and the
/// crash harness all restart through here; the façades `expect` the
/// result, the harness reports an `Err` as a violation. A malformed
/// image is an `Err`, never a panic.
pub fn restart(
    image: &CrashImage,
    heap_pool: &str,
    machine_cfg: MachineConfig,
    opts: RecoverOptions,
) -> Result<Restarted, String> {
    let t0 = Instant::now();
    if let Some(p) = image
        .pools
        .iter()
        .find(|p| p.words.len() % WORDS_PER_LINE != 0)
    {
        return Err(format!(
            "pool `{}` image is {} words, not whole cache lines",
            p.name,
            p.words.len()
        ));
    }
    let machine = Machine::reboot(image, machine_cfg);
    let recovery = recover_with_options(&machine, opts);
    let pool = machine
        .pools()
        .into_iter()
        .find(|p| p.name() == heap_pool)
        .ok_or_else(|| format!("heap pool `{heap_pool}` missing after reboot"))?;
    let (heap, gc) =
        PHeap::attach(pool).map_err(|e| format!("heap `{heap_pool}` attach failed: {e}"))?;
    let full_restart_ns = t0.elapsed().as_nanos() as u64;
    Ok(Restarted {
        machine,
        heap,
        reports: ReopenReports {
            recovery,
            gc,
            time_to_first_txn_ns: full_restart_ns,
            full_restart_ns,
        },
    })
}

/// A persistent database: one machine, one heap, one PTM. Also the unit
/// a sharded database is made of ([`crate::ShardedEngine`] is a
/// `Vec<PtmDb>` plus its 2PC coordinator), and the one place a heap is
/// formatted and a [`Ptm`] built.
pub struct PtmDb {
    machine: Arc<Machine>,
    heap: Arc<PHeap>,
    ptm: Arc<Ptm>,
}

impl PtmDb {
    /// Create a fresh database on a fresh machine.
    pub fn create(
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
        heap_words: usize,
        roots: usize,
    ) -> PtmDb {
        Self::on_machine(
            Machine::new(machine_cfg),
            DB_HEAP_NAME,
            ptm_cfg,
            heap_words,
            roots,
        )
    }

    /// A fresh database on a machine the caller built, its heap formatted
    /// in a new pool named `heap_pool` (what a later [`restart`] must be
    /// given to find it again).
    pub fn on_machine(
        machine: Arc<Machine>,
        heap_pool: &str,
        ptm_cfg: PtmConfig,
        heap_words: usize,
        roots: usize,
    ) -> PtmDb {
        let heap =
            PHeap::format_with_media(&machine, heap_pool, heap_words, roots, ptm_cfg.heap_media);
        PtmDb {
            machine,
            heap,
            ptm: Ptm::new(ptm_cfg),
        }
    }

    /// The database a [`restart`] brought back, with what the restart
    /// did. In-doubt resolutions the reports carry (a sharded restart
    /// folds them in) are counted into the new PTM's statistics.
    pub fn from_restarted(r: Restarted, ptm_cfg: PtmConfig) -> (PtmDb, ReopenReports) {
        let ptm = Ptm::new(ptm_cfg);
        let rec = &r.reports.recovery;
        PtmStats::add(
            &ptm.stats.indoubt_resolved_commit,
            rec.indoubt_resolved_commit as u64,
        );
        PtmStats::add(
            &ptm.stats.indoubt_resolved_abort,
            rec.indoubt_resolved_abort as u64,
        );
        let db = PtmDb {
            machine: r.machine,
            heap: r.heap,
            ptm,
        };
        (db, r.reports)
    }

    /// Reboot from a crash image: runs PTM recovery (replaying committed
    /// redo logs, rolling back in-flight undo logs), re-attaches the heap
    /// (allocator GC), and returns a ready-to-use database.
    ///
    /// # Panics
    /// Panics if the image contains no [`DB_HEAP_NAME`] pool or the heap
    /// fails validation.
    pub fn reopen(
        image: &CrashImage,
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
    ) -> (PtmDb, ReopenReports) {
        Self::reopen_with(image, machine_cfg, ptm_cfg, RecoverOptions::default())
    }

    /// [`PtmDb::reopen`] with explicit recovery options (the harness's
    /// fault-injection switches). Returns once the heap's restart GC has
    /// run, so the database is fully ready and the reports are complete.
    pub fn reopen_with(
        image: &CrashImage,
        machine_cfg: MachineConfig,
        ptm_cfg: PtmConfig,
        opts: RecoverOptions,
    ) -> (PtmDb, ReopenReports) {
        let r = restart(image, DB_HEAP_NAME, machine_cfg, opts)
            .expect("reopen found no PtmDb heap it could attach");
        Self::from_restarted(r, ptm_cfg)
    }

    /// Begin a timed run with `threads` virtual threads and lag window
    /// `window_ns`: [`pmem_sim::clock::WINDOW_NS`] or, for a stepped run,
    /// `u64::MAX` (see [`Machine::begin_run`]).
    pub fn begin_run(&self, threads: usize, window_ns: u64) {
        self.machine.begin_run(threads, window_ns);
    }

    /// A transaction executor for virtual thread `tid`.
    pub fn thread(&self, tid: usize) -> TxThread {
        TxThread::new(
            Arc::clone(&self.ptm),
            Arc::clone(&self.heap),
            self.machine.session(tid),
        )
    }

    /// Simulate a power failure (callers running concurrent threads
    /// should [`Machine::freeze`] first).
    pub fn crash(&self, seed: u64) -> CrashImage {
        self.machine.crash(seed)
    }

    /// Zero the PTM's counters and phase totals and the machine's
    /// memory-system counters (between set-up and a measured phase).
    pub fn reset_stats(&self) {
        self.ptm.stats.reset();
        self.ptm.phases.reset();
        self.machine.stats.reset();
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    pub fn heap(&self) -> &Arc<PHeap> {
        &self.heap
    }

    pub fn ptm(&self) -> &Arc<Ptm> {
        &self.ptm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{committed_marker, ENTRY0, LOG_POOL_PREFIX, W_COUNT, W_STATE};
    use pmem_sim::DurabilityDomain;

    fn cfg() -> MachineConfig {
        MachineConfig::functional(DurabilityDomain::Adr)
    }

    #[test]
    fn create_write_crash_reopen_roundtrip() {
        let db = PtmDb::create(cfg(), PtmConfig::redo(), 1 << 14, 4);
        let mut th = db.thread(0);
        let heap = Arc::clone(db.heap());
        let a = heap.alloc(th.session_mut(), 4);
        th.run(|tx| {
            tx.write(a, 11)?;
            tx.write_at(a, 1, 22)
        });
        heap.set_root(th.session_mut(), 0, a);
        drop(th);
        let image = db.crash(9);
        let (db2, reports) = PtmDb::reopen(&image, cfg(), PtmConfig::redo());
        assert_eq!(reports.recovery.logs_scanned, 1);
        let a2 = db2.heap().root_raw(0);
        assert_eq!(a2, a);
        let mut th2 = db2.thread(0);
        assert_eq!(th2.run(|tx| tx.read(a2)), 11);
        assert_eq!(th2.run(|tx| tx.read_at(a2, 1)), 22);
    }

    #[test]
    fn reopen_reports_gc_findings() {
        let db = PtmDb::create(cfg(), PtmConfig::undo(), 1 << 14, 4);
        let mut th = db.thread(0);
        let heap = Arc::clone(db.heap());
        let kept = heap.alloc(th.session_mut(), 8);
        th.run(|tx| tx.write(kept, 1));
        heap.set_root(th.session_mut(), 0, kept);
        let _leak = heap.alloc(th.session_mut(), 8);
        drop(th);
        let image = db.crash(3);
        let (_db2, reports) = PtmDb::reopen(&image, cfg(), PtmConfig::undo());
        assert_eq!(reports.gc.live_blocks, 1);
        assert_eq!(reports.gc.leaked_blocks, 1);
    }

    #[test]
    #[should_panic(expected = "no PtmDb heap")]
    fn reopen_rejects_foreign_images() {
        let m = Machine::new(cfg());
        m.alloc_pool("something-else", 64, pmem_sim::MediaKind::Optane);
        let image = m.crash(0);
        let _ = PtmDb::reopen(&image, cfg(), PtmConfig::redo());
    }

    /// Pin the aggregation rules: counts sum (saturating — a corrupt or
    /// overflowing shard counter must never wrap the fleet total), the
    /// wall-clock fields add too (shards restart one after another).
    #[test]
    fn reopen_reports_merge_sums_counts_and_times() {
        let mut a = ReopenReports::default();
        a.recovery.logs_scanned = usize::MAX;
        a.recovery.redo_entries = 3;
        a.gc.blocks_scanned = 5;
        a.time_to_first_txn_ns = 10;
        a.full_restart_ns = 50;
        let mut b = ReopenReports::default();
        b.recovery.logs_scanned = 2;
        b.recovery.redo_entries = 4;
        b.recovery.malformed.push("pool 'x': bad".to_string());
        b.gc.blocks_scanned = 7;
        b.time_to_first_txn_ns = 30;
        b.full_restart_ns = 40;
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(
            m.recovery.logs_scanned,
            usize::MAX,
            "saturates, never wraps"
        );
        assert_eq!(m.recovery.redo_entries, 7);
        assert_eq!(m.recovery.malformed, b.recovery.malformed);
        assert_eq!(m.gc.blocks_scanned, 12);
        assert_eq!(m.time_to_first_txn_ns, 40, "serial restarts: sum");
        assert_eq!(m.full_restart_ns, 90, "serial restarts: sum");
    }

    /// The façade's restart timing is nonzero, and the first transaction
    /// is timed at the full restart (nothing runs before `restart`
    /// returns).
    #[test]
    fn reopen_timing_split_is_ordered() {
        let db = PtmDb::create(cfg(), PtmConfig::redo(), 1 << 14, 4);
        let mut th = db.thread(0);
        let heap = Arc::clone(db.heap());
        let a = heap.alloc(th.session_mut(), 1);
        th.run(|tx| tx.write(a, 1));
        heap.set_root(th.session_mut(), 0, a);
        drop(th);
        let image = db.crash(2);
        let (_db2, reports) = PtmDb::reopen(&image, cfg(), PtmConfig::redo());
        assert!(reports.full_restart_ns > 0);
        assert_eq!(reports.time_to_first_txn_ns, reports.full_restart_ns);
        assert!(reports.recovery.recovery_ns > 0);
    }

    /// `restart` is documented as returning `Err` on a bad image: every
    /// pool of a committed image cut by 3 words, cut by a line and grown
    /// by a line, bits {0, 1, 5, 40, 63} of each of the heap's first 16
    /// words flipped, and a committed log entry whose target names no
    /// pool word — each restart returns, it never panics. Three of these
    /// used to: a ragged pool length (the reboot's line assert), a roots
    /// count whose table passes the pool end (an out-of-bounds root read
    /// in the restart GC), and the stray log target (replay's store).
    #[test]
    fn restart_returns_on_every_malformed_image() {
        let db = PtmDb::create(cfg(), PtmConfig::redo(), 1 << 12, 4);
        let mut th = db.thread(0);
        let heap = Arc::clone(db.heap());
        let a = heap.alloc(th.session_mut(), 4);
        for v in 1..=3 {
            th.run(|tx| tx.write_at(a, v, v * 11));
        }
        heap.set_root(th.session_mut(), 0, a);
        drop(th);
        let image = db.crash(5);
        // (what was done, the image, the error it must give if one is pinned)
        let mut cases = Vec::new();
        for (i, p) in image.pools.iter().enumerate() {
            let n = p.words.len();
            for (what, len, err) in [
                ("cut by 3 words", n - 3, Some("not whole cache lines")),
                ("cut by a line", n - 8, None),
                ("grown by a line", n + 8, None),
            ] {
                let mut img = image.clone();
                img.pools[i].words.resize(len, 0);
                cases.push((format!("pool `{}` {what}", p.name), img, err));
            }
        }
        let h = image
            .pools
            .iter()
            .position(|p| p.name == DB_HEAP_NAME)
            .unwrap();
        for w in 0..16 {
            for bit in [0, 1, 5, 40, 63] {
                let mut img = image.clone();
                img.pools[h].words[w] ^= 1 << bit;
                let err = (w == 2 && bit >= 40).then_some("root slots overrun");
                cases.push((format!("heap word {w} bit {bit} flipped"), img, err));
            }
        }
        // Redo log 0 (retired by the commits above) re-sealed around one
        // entry whose target has its pool bit 63 flipped.
        let l = image
            .pools
            .iter()
            .position(|p| p.name == format!("{LOG_POOL_PREFIX}0"))
            .unwrap();
        let mut img = image.clone();
        let log = &mut img.pools[l].words;
        log[ENTRY0 as usize] = a.0 ^ 1 << 63;
        log[ENTRY0 as usize + 1] = 99;
        log[W_COUNT as usize] = 1;
        log[W_STATE as usize] = committed_marker(1);
        cases.push(("log entry target bit 63 flipped".to_string(), img, None));
        for (what, img, want) in &cases {
            let got = std::panic::catch_unwind(|| {
                restart(img, DB_HEAP_NAME, cfg(), RecoverOptions::default()).map(|_| ())
            });
            let Ok(got) = got else {
                panic!("{what}: restart panicked");
            };
            if let Some(want) = want {
                let err = got.expect_err(what);
                assert!(err.contains(want), "{what}: {err}");
            }
        }
        let (_, stray, _) = cases.last().unwrap();
        let r = restart(stray, DB_HEAP_NAME, cfg(), RecoverOptions::default()).unwrap();
        assert_eq!(r.reports.recovery.malformed.len(), 1);
        assert!(r.reports.recovery.malformed[0].contains("names no pool word"));
        assert!(restart(&image, DB_HEAP_NAME, cfg(), RecoverOptions::default()).is_ok());
    }

    #[test]
    fn multi_thread_runs_work() {
        let db = PtmDb::create(cfg(), PtmConfig::redo(), 1 << 14, 4);
        let mut th = db.thread(0);
        let heap = Arc::clone(db.heap());
        let ctr = heap.alloc(th.session_mut(), 1);
        th.run(|tx| tx.write(ctr, 0));
        drop(th);
        db.begin_run(3, u64::MAX);
        std::thread::scope(|s| {
            for tid in 0..3 {
                let db = &db;
                s.spawn(move || {
                    let mut th = db.thread(tid);
                    for _ in 0..100 {
                        th.run(|tx| {
                            let v = tx.read(ctr)?;
                            tx.write(ctr, v + 1)
                        });
                    }
                });
            }
        });
        db.begin_run(1, u64::MAX);
        let mut th = db.thread(0);
        assert_eq!(th.run(|tx| tx.read(ctr)), 300);
    }
}
