//! The measurement driver: runs a workload over N virtual threads on a
//! fresh simulated machine and reports virtual-time throughput plus
//! commit/abort and memory-system statistics.
//!
//! One `run_scenario` call corresponds to one point of one curve in the
//! paper's figures: a (workload, scenario, thread-count) triple.

use std::sync::Arc;

use pmem_sim::clock::WINDOW_NS;
use pmem_sim::{DurabilityDomain, LatencyModel, Machine, MachineConfig, MediaKind, StatsSnapshot};
use ptm::{Algo, PhaseSnapshot, PtmConfig, PtmDb, PtmStatsSnapshot, TxThread};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::hist::LatencyHistogram;

/// One curve of the paper: where the heap lives, which durability domain
/// is active and which algorithm runs. Every other PTM knob — Table III's
/// (incorrect) fence elision among them — is [`RunConfig::ptm`]'s.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub label: String,
    pub heap_media: MediaKind,
    pub domain: DurabilityDomain,
    pub algo: Algo,
}

impl Scenario {
    pub fn new(
        label: impl Into<String>,
        heap_media: MediaKind,
        domain: DurabilityDomain,
        algo: Algo,
    ) -> Scenario {
        Scenario {
            label: label.into(),
            heap_media,
            domain,
            algo,
        }
    }

    /// The eleven curves of Figures 3, 4, 6 and 7, each configuration
    /// once: {DRAM, Optane} x {ADR, eADR} x {undo, redo} (Figs. 3 and 4),
    /// then the proposed domains on Optane (Figs. 6 and 7): PDRAM (both
    /// algorithms) and PDRAM-Lite (redo only — its whole point is the
    /// redo log's placement). Figs. 6 and 7's DRAM and eADR curves are
    /// the `DRAM_eADR_*` and `Optane_eADR_*` rows.
    pub fn paper_grid() -> Vec<Scenario> {
        let mut out = Vec::new();
        for (media, mname) in [(MediaKind::Dram, "DRAM"), (MediaKind::Optane, "Optane")] {
            for (domain, dname) in [
                (DurabilityDomain::Adr, "ADR"),
                (DurabilityDomain::Eadr, "eADR"),
            ] {
                for algo in [Algo::UndoEager, Algo::RedoLazy] {
                    out.push(Scenario::new(
                        format!("{mname}_{dname}_{}", algo.label()),
                        media,
                        domain,
                        algo,
                    ));
                }
            }
        }
        for (label, domain, algo) in [
            ("PDRAM_R", DurabilityDomain::Pdram, Algo::RedoLazy),
            ("PDRAM_U", DurabilityDomain::Pdram, Algo::UndoEager),
            ("PDRAM-Lite", DurabilityDomain::PdramLite, Algo::RedoLazy),
        ] {
            out.push(Scenario::new(label, MediaKind::Optane, domain, algo));
        }
        out
    }
}

/// Execution parameters shared by all scenarios of an experiment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub threads: usize,
    pub ops_per_thread: u64,
    pub model: LatencyModel,
    pub seed: u64,
    /// Template for the PTM configuration; the scenario's algorithm and
    /// heap media are overlaid onto it. Ablations perturb the other knobs
    /// (split log, flush timing, orec count, PDRAM-Lite budget, Table
    /// III's fence elision) here.
    pub ptm: PtmConfig,
    /// Flight-recorder sink: when set, it is attached to the machine for
    /// the measured phase only (setup is excluded, matching the stats
    /// resets) and `PtmConfig::tracing` is forced on, so every thread's
    /// transaction and durability events land in the sink.
    pub trace: Option<Arc<trace::TraceSink>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            ops_per_thread: 2_000,
            model: LatencyModel::default(),
            seed: 42,
            ptm: PtmConfig::default(),
            trace: None,
        }
    }
}

/// Result of one (workload, scenario, threads) measurement.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub label: String,
    pub threads: usize,
    pub ops: u64,
    pub elapsed_virtual_ns: u64,
    pub ptm: PtmStatsSnapshot,
    pub mem: StatsSnapshot,
    /// Per-operation virtual latency distribution (O(buckets) memory; see
    /// [`crate::hist`]).
    pub latency: LatencyHistogram,
    /// Where the transactions' virtual time went, by phase.
    pub phases: PhaseSnapshot,
}

impl RunResult {
    /// Operations per virtual second, in millions — the paper's Y axis.
    pub fn throughput_mops(&self) -> f64 {
        if self.elapsed_virtual_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1_000.0 / self.elapsed_virtual_ns as f64
    }

    /// Tables I/II metric.
    pub fn commit_abort_ratio(&self) -> f64 {
        self.ptm.commit_abort_ratio()
    }

    /// The counter totals a trace dump of this run embeds.
    pub fn trace_totals(&self) -> trace::export::ExpectedTotals {
        trace::export::ExpectedTotals::from_counters(&self.ptm.fields(), &self.mem.fields())
    }
}

/// A benchmark application: sized at construction, populated once in
/// `setup`, then driven by per-thread `op` calls.
pub trait Workload: Send + Sync {
    fn name(&self) -> String;
    /// Persistent heap words the workload needs for its configured size.
    fn heap_words(&self) -> usize;
    /// Populate on a single thread (excluded from measurement).
    fn setup(&mut self, th: &mut TxThread);
    /// Execute one application operation.
    fn op(&self, th: &mut TxThread, rng: &mut SmallRng, tid: usize, i: u64);
}

/// Run one measurement point (`W` may be `dyn Workload`).
pub fn run_scenario<W: Workload + ?Sized>(w: &mut W, sc: &Scenario, rc: &RunConfig) -> RunResult {
    let machine = Machine::new(MachineConfig {
        domain: sc.domain,
        model: rc.model.clone(),
        track_persistence: false,
        ..MachineConfig::default()
    });
    let ptm_cfg = PtmConfig {
        algo: sc.algo,
        heap_media: sc.heap_media,
        tracing: rc.ptm.tracing || rc.trace.is_some(),
        ..rc.ptm.clone()
    };
    let db = PtmDb::on_machine(machine, "heap", ptm_cfg, w.heap_words(), 16);
    // Setup phase: one thread, unthrottled.
    db.begin_run(1, u64::MAX);
    w.setup(&mut db.thread(0));
    db.reset_stats();
    // Attach the flight recorder after setup and the stats resets, so
    // the trace covers exactly what the counters cover: sessions capture
    // their rings at construction, and the measured sessions below are
    // created after this point.
    if let Some(sink) = &rc.trace {
        db.machine().attach_tracer(Arc::clone(sink));
    }
    // Measured phase. Latencies go into per-thread log₂ histograms merged
    // at thread exit: memory stays O(buckets), not O(ops).
    db.begin_run(rc.threads, WINDOW_NS);
    let latency = std::sync::Mutex::new(LatencyHistogram::new());
    std::thread::scope(|scope| {
        for tid in 0..rc.threads {
            let (db, w, latency) = (&db, &*w, &latency);
            scope.spawn(move || {
                let mut th = db.thread(tid);
                let mut rng =
                    SmallRng::seed_from_u64(rc.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9));
                let mut local = LatencyHistogram::new();
                for i in 0..rc.ops_per_thread {
                    let t0 = th.session_mut().now();
                    w.op(&mut th, &mut rng, tid, i);
                    local.record(th.session_mut().now() - t0);
                }
                th.session_mut().finish();
                latency.lock().unwrap().merge(&local);
            });
        }
    });
    let elapsed = db.machine().run_time_ns();
    // All measured sessions have dropped (submitting their rings); the
    // sink now holds the complete run.
    if rc.trace.is_some() {
        db.machine().detach_tracer();
    }
    RunResult {
        label: sc.label.clone(),
        threads: rc.threads,
        ops: rc.threads as u64 * rc.ops_per_thread,
        elapsed_virtual_ns: elapsed,
        ptm: db.ptm().stats_snapshot(),
        mem: db.machine().stats.snapshot(),
        latency: latency.into_inner().unwrap(),
        phases: db.ptm().phases_snapshot(),
    }
}

/// The paper's thread sweep (single socket, 32 hyperthreads).
pub const PAPER_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial counter-increment workload for driver tests.
    struct CounterWorkload {
        ctr: std::sync::Mutex<Option<pmem_sim::PAddr>>,
    }

    impl CounterWorkload {
        fn new() -> Self {
            CounterWorkload {
                ctr: std::sync::Mutex::new(None),
            }
        }
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> String {
            "counter".into()
        }
        fn heap_words(&self) -> usize {
            1 << 12
        }
        fn setup(&mut self, th: &mut TxThread) {
            let heap = Arc::clone(th.heap());
            let a = heap.alloc(th.session_mut(), 1);
            th.run(|tx| tx.write(a, 0));
            *self.ctr.lock().unwrap() = Some(a);
        }
        fn op(&self, th: &mut TxThread, _rng: &mut SmallRng, _tid: usize, _i: u64) {
            let a = self.ctr.lock().unwrap().unwrap();
            th.run(|tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
        }
    }

    #[test]
    fn driver_counts_ops_and_time() {
        let mut w = CounterWorkload::new();
        let sc = Scenario::new(
            "t",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            Algo::RedoLazy,
        );
        let rc = RunConfig {
            threads: 2,
            ops_per_thread: 100,
            ..RunConfig::default()
        };
        let r = run_scenario(&mut w, &sc, &rc);
        assert_eq!(r.ops, 200);
        assert!(r.elapsed_virtual_ns > 0);
        assert!(r.throughput_mops() > 0.0);
        assert!(r.ptm.commits >= 200, "commits {}", r.ptm.commits);
    }

    /// A paper cell runs once: eleven curves, eleven labels and eleven
    /// distinct (heap media, domain, algorithm) configurations.
    #[test]
    fn paper_grid_runs_each_configuration_once() {
        use std::collections::HashSet;
        let g = Scenario::paper_grid();
        assert_eq!(g.len(), 11);
        let labels: HashSet<_> = g.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.len(), 11);
        let configs: HashSet<_> = g.iter().map(|s| (s.heap_media, s.domain, s.algo)).collect();
        assert_eq!(configs.len(), 11);
    }

    /// Same seed and config ⇒ bit-identical virtual time, phase totals
    /// and latency distribution.
    #[test]
    fn runs_are_deterministic_for_fixed_seed() {
        let sc = Scenario::new(
            "det",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            Algo::RedoLazy,
        );
        let rc = RunConfig {
            threads: 1,
            ops_per_thread: 300,
            seed: 7,
            ..RunConfig::default()
        };
        let r1 = run_scenario(&mut CounterWorkload::new(), &sc, &rc);
        let r2 = run_scenario(&mut CounterWorkload::new(), &sc, &rc);
        assert_eq!(r1.elapsed_virtual_ns, r2.elapsed_virtual_ns);
        assert_eq!(r1.phases.ns, r2.phases.ns);
        assert_eq!(r1.latency.summary(), r2.latency.summary());
        assert_eq!(r1.ptm.commits, r2.ptm.commits);
    }

    /// Phase accounting is complete: on a single thread, every virtual
    /// nanosecond spent inside `run` is charged to some phase, so the
    /// phase sum equals the session's elapsed time within 1%.
    #[test]
    fn single_thread_phase_sum_matches_elapsed() {
        for algo in Algo::ALL {
            let mut w = CounterWorkload::new();
            let machine = Machine::new(MachineConfig {
                domain: DurabilityDomain::Adr,
                model: LatencyModel::default(),
                track_persistence: false,
                ..MachineConfig::default()
            });
            let db = PtmDb::on_machine(
                machine,
                "heap",
                PtmConfig::with_algo(algo),
                w.heap_words(),
                16,
            );
            let ptm = db.ptm();
            db.begin_run(1, u64::MAX);
            let mut th = db.thread(0);
            w.setup(&mut th);
            ptm.phases.reset();
            let t0 = th.session_mut().now();
            let mut rng = SmallRng::seed_from_u64(1);
            for i in 0..500 {
                w.op(&mut th, &mut rng, 0, i);
            }
            let elapsed = th.session_mut().now() - t0;
            let phases = ptm.phases_snapshot();
            let total = phases.total_ns();
            assert!(
                elapsed.abs_diff(total) as f64 <= elapsed as f64 * 0.01,
                "{algo:?}: phase sum {total} vs elapsed {elapsed}"
            );
            // ADR on Optane must spend observable time persisting.
            assert!(phases.get(ptm::Phase::Flush) > 0, "{algo:?}: no flush time");
            assert!(
                phases.get(ptm::Phase::FenceWait) > 0,
                "{algo:?}: no fence-wait time"
            );
        }
    }

    #[test]
    fn adr_is_slower_than_eadr_on_counter() {
        let rc = RunConfig {
            threads: 1,
            ops_per_thread: 500,
            ..RunConfig::default()
        };
        let mut w1 = CounterWorkload::new();
        let adr = run_scenario(
            &mut w1,
            &Scenario::new(
                "adr",
                MediaKind::Optane,
                DurabilityDomain::Adr,
                Algo::RedoLazy,
            ),
            &rc,
        );
        let mut w2 = CounterWorkload::new();
        let eadr = run_scenario(
            &mut w2,
            &Scenario::new(
                "eadr",
                MediaKind::Optane,
                DurabilityDomain::Eadr,
                Algo::RedoLazy,
            ),
            &rc,
        );
        assert!(
            eadr.throughput_mops() > adr.throughput_mops(),
            "eADR {} <= ADR {}",
            eadr.throughput_mops(),
            adr.throughput_mops()
        );
    }
}
