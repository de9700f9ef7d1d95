//! # bench — the experiment harness
//!
//! One binary per paper grid — `fig3` runs Figures 3, 4, 6 and 7, `fig8`
//! the KV working-set sweep (see `src/bin/`) — plus `ablate`, which runs
//! the paper's side experiments (Table III among them) as paper-grid
//! cells with one knob turned, and the crash, trace, telemetry and
//! restart tools.
//!
//! A paper cell is run once, by one binary, and every point a binary runs
//! is printed whole, so the paper's other readings are fields of those
//! points rather than binaries of their own:
//!
//! * Figures 4, 6 and 7 — row filters of `fig3`: Fig. 4 is its `tatp`
//!   rows of the eight Fig. 3 curves, Figs. 6 and 7 its `DRAM_eADR_*`,
//!   `Optane_eADR_*`, `PDRAM_*` and `PDRAM-Lite` rows (`tatp` for Fig. 7);
//! * Tables I and II — `commit_abort_ratio` of `fig3`'s `tpcc-hash` rows
//!   (`*_R` redo, `*_U` undo);
//! * single-thread latency — the `latency` block of the 1-thread `fig3`
//!   points;
//! * the §III-C counters — the `mem` block of the 32-thread `fig3`
//!   points;
//! * the algorithm comparison — `phase_profile`, every registered
//!   algorithm under ADR, eADR, PDRAM and PDRAM-Lite;
//! * an ablation's base arm — the `fig3` line of its base cell: `ablate`
//!   prints only the arms that turn a knob.
//!
//! Every binary reads its flags through [`args::Args`] and exits nonzero
//! on a flag it does not read; README.md tabulates which binary reads
//! which flag. The paper binaries share [`HarnessOpts`]:
//!
//! * `--quick` — a fast smoke-scale run (fewer threads, fewer ops);
//! * `--ops N` — override operations per thread;
//! * `--json` — one JSON object per point instead of CSV;
//!
//! and, when they read `--threads` at all, read it as a sweep list
//! ([`HarnessOpts::with_thread_sweep`]).
//!
//! Results are *virtual-time* throughput (see `pmem-sim`); absolute
//! values are not comparable to the paper's testbed, but curve shapes,
//! orderings and crossover points are.

#![deny(unsafe_code)]

pub mod args;
pub mod report;
pub mod trace_out;

use args::Args;
use pmem_sim::{DurabilityDomain, MediaKind};
use workloads::driver::{run_scenario, RunConfig, RunResult, Scenario, Workload};
use workloads::{
    BTreeInsertOnly, BTreeMixed, IndexKind, KvStore, Tatp, Tpcc, Vacation, VacationCfg,
};

/// The options every paper binary reads.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    pub quick: bool,
    pub ops_per_thread: u64,
    /// Emit one JSON object per point (JSON Lines) instead of CSV.
    pub json: bool,
}

impl HarnessOpts {
    /// Parse the process arguments: `--quick`, `--json`, `--ops`, and
    /// whatever `more` reads.
    pub fn parse<T>(more: impl FnOnce(&HarnessOpts, &mut Args) -> T) -> (HarnessOpts, T) {
        let mut args = Args::from_env();
        let quick = args.flag("--quick");
        let opts = HarnessOpts {
            quick,
            json: args.flag("--json"),
            ops_per_thread: args
                .value("--ops")
                .unwrap_or(if quick { 300 } else { 1_500 }),
        };
        let more = more(&opts, &mut args);
        args.finish();
        (opts, more)
    }

    /// Parse the process arguments for a binary that reads no other flag.
    pub fn from_args() -> HarnessOpts {
        HarnessOpts::parse(|_, _| ()).0
    }

    /// Parse the process arguments for a binary that sweeps thread
    /// counts: `--threads a,b,c`, by default 1, 2, 4 under `--quick` and
    /// the paper's 1 … 32 otherwise.
    pub fn with_thread_sweep() -> (HarnessOpts, Vec<usize>) {
        HarnessOpts::parse(|o, args| args.list("--threads").unwrap_or_else(|| o.default_sweep()))
    }

    fn default_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 2, 4]
        } else {
            workloads::PAPER_THREADS.to_vec()
        }
    }

    /// Base run configuration for a given thread count.
    pub fn run_config(&self, threads: usize) -> RunConfig {
        RunConfig {
            threads,
            ops_per_thread: self.ops_per_thread,
            ..RunConfig::default()
        }
    }
}

/// A scenario with its heap on Optane.
pub fn optane(label: impl Into<String>, domain: DurabilityDomain, algo: ptm::Algo) -> Scenario {
    Scenario::new(label, MediaKind::Optane, domain, algo)
}

/// The seven panel workloads of Figures 3 and 6 (the first six) and 4
/// and 7 (`tatp`).
pub fn panel_workloads() -> Vec<&'static str> {
    vec![
        "btree-insert",
        "btree-mixed",
        "tpcc-btree",
        "tpcc-hash",
        "vacation-low",
        "vacation-high",
        "tatp",
    ]
}

/// Instantiate a panel workload by name, sized for `total_ops`.
pub fn make_workload(name: &str, total_ops: u64, quick: bool) -> Box<dyn Workload> {
    let scale = if quick { 1 } else { 4 };
    match name {
        "btree-insert" => Box::new(BTreeInsertOnly::new(total_ops)),
        "btree-mixed" => Box::new(BTreeMixed::new(1 << (12 + scale))),
        "tpcc-btree" => Box::new(Tpcc::new(IndexKind::BTree, 8, total_ops)),
        "tpcc-hash" => Box::new(Tpcc::new(IndexKind::Hash, 8, total_ops)),
        "vacation-low" => Box::new(Vacation::new(VacationCfg::low(256 << scale))),
        "vacation-high" => Box::new(Vacation::new(VacationCfg::high(256 << scale))),
        "tatp" => Box::new(Tatp::new(1024 << scale)),
        // 512 distinct 1 KB values make same-key conflicts rare; 16 make
        // them the common case.
        "kvstore-low" => Box::new(KvStore::new(512)),
        "kvstore-high" => Box::new(KvStore::new(16)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Run one (workload, scenario, threads) point with a fresh workload.
pub fn run_point(name: &str, sc: &Scenario, opts: &HarnessOpts, threads: usize) -> RunResult {
    run_point_with(name, sc, &opts.run_config(threads), opts.quick)
}

/// Like [`run_point`] but with a custom [`RunConfig`] (`ablate`'s knobs).
pub fn run_point_with(name: &str, sc: &Scenario, rc: &RunConfig, quick: bool) -> RunResult {
    let total = rc.threads as u64 * rc.ops_per_thread;
    let mut w = make_workload(name, total, quick);
    run_scenario(w.as_mut(), sc, rc)
}

/// Emit one point in the format the harness was asked for: a JSON line
/// under `--json`, a CSV row of [`run_figure`]'s columns otherwise.
pub fn emit_point(opts: &HarnessOpts, workload: &str, r: &RunResult) {
    if opts.json {
        return println!("{}", report::point_json(workload, r));
    }
    println!(
        "{},{},{},{:.4},{},{},{:.2}",
        workload,
        r.label,
        r.threads,
        r.throughput_mops(),
        r.ptm.commits,
        r.ptm.aborts,
        r.commit_abort_ratio()
    );
}

/// Run a full figure: every scenario x thread count for each workload.
pub fn run_figure(
    workload_names: &[&str],
    scenarios: &[Scenario],
    opts: &HarnessOpts,
    threads: &[usize],
) {
    if !opts.json {
        println!("workload,scenario,threads,throughput_mops,commits,aborts,commit_abort_ratio");
    }
    for name in workload_names {
        for sc in scenarios {
            for &t in threads {
                let r = run_point(name, sc, opts, t);
                emit_point(opts, name, &r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_factory_knows_all_panels() {
        for name in panel_workloads() {
            let w = make_workload(name, 100, true);
            assert!(!w.name().is_empty());
            assert!(w.heap_words() > 0);
        }
    }

    #[test]
    fn run_point_produces_sane_numbers() {
        let opts = HarnessOpts {
            quick: true,
            ops_per_thread: 50,
            json: false,
        };
        let sc = optane("t", DurabilityDomain::Adr, ptm::Algo::RedoLazy);
        let r = run_point("tatp", &sc, &opts, 1);
        assert_eq!(r.ops, 50);
        assert!(r.throughput_mops() > 0.0);
    }
}
