//! # bench — the experiment harness
//!
//! One binary per table and figure of the paper (see `src/bin/`), plus
//! ablation binaries for the design decisions DESIGN.md calls out, plus
//! wall-time microbenchmarks of the runtime's hot paths (`benches/`).
//!
//! All binaries print CSV to stdout and honor three flags:
//!
//! * `--quick` — a fast smoke-scale run (fewer threads, fewer ops);
//! * `--ops N` — override operations per thread;
//! * `--threads a,b,c` — override the thread sweep.
//!
//! Results are *virtual-time* throughput (see `pmem-sim`); absolute
//! values are not comparable to the paper's testbed, but curve shapes,
//! orderings and crossover points are.

#![deny(unsafe_code)]

pub mod report;
pub mod trace_out;

use workloads::driver::{run_scenario, RunConfig, RunResult, Scenario, Workload};
use workloads::{
    BTreeInsertOnly, BTreeMixed, IndexKind, KvStore, Tatp, Tpcc, Vacation, VacationCfg,
};

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    pub quick: bool,
    pub threads: Vec<usize>,
    pub ops_per_thread: u64,
    /// Emit one JSON object per point (JSON Lines) instead of CSV.
    pub json: bool,
    /// Record a flight-recorder trace of one designated point to this
    /// path (binary dump) and `<path>.json` (Chrome trace-event JSON).
    /// Which point is traced is up to the binary; see `phase_profile`.
    pub trace: Option<String>,
}

impl HarnessOpts {
    /// Parse `std::env::args`. Unknown flags are rejected loudly — a
    /// typo'd flag silently ignored would invalidate an experiment.
    pub fn from_args() -> HarnessOpts {
        let mut quick = false;
        let mut threads: Option<Vec<usize>> = None;
        let mut ops: Option<u64> = None;
        let mut json = false;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--json" => json = true,
                "--threads" => {
                    let v = args.next().expect("--threads needs a list like 1,2,4");
                    threads = Some(
                        v.split(',')
                            .map(|s| s.parse().expect("bad thread count"))
                            .collect(),
                    );
                }
                "--ops" => {
                    ops = Some(
                        args.next()
                            .expect("--ops needs a number")
                            .parse()
                            .expect("bad op count"),
                    );
                }
                "--trace" => {
                    trace = Some(args.next().expect("--trace needs a file path"));
                }
                other => {
                    panic!("unknown flag `{other}` (known: --quick --threads --ops --json --trace)")
                }
            }
        }
        let default_threads = if quick {
            vec![1, 2, 4]
        } else {
            workloads::PAPER_THREADS.to_vec()
        };
        let default_ops = if quick { 300 } else { 1_500 };
        HarnessOpts {
            quick,
            threads: threads.unwrap_or(default_threads),
            ops_per_thread: ops.unwrap_or(default_ops),
            json,
            trace,
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

    /// Total operations a single run will execute (for workload sizing).
    pub fn total_ops(&self, threads: usize) -> u64 {
        threads as u64 * self.ops_per_thread
    }
}

/// The six panel workloads of Figures 3 and 6.
pub fn panel_workloads() -> Vec<&'static str> {
    vec![
        "btree-insert",
        "btree-mixed",
        "tpcc-btree",
        "tpcc-hash",
        "vacation-low",
        "vacation-high",
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
        "tpcc-skiplist" => Box::new(Tpcc::new(IndexKind::SkipList, 8, total_ops)),
        "vacation-low" => Box::new(Vacation::new(VacationCfg::low(256 << scale))),
        "vacation-high" => Box::new(Vacation::new(VacationCfg::high(256 << scale))),
        "tatp" => Box::new(Tatp::new(1024 << scale)),
        "kvstore" => Box::new(KvStore::new(64 << scale)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Run one (workload, scenario, threads) point with a fresh workload.
pub fn run_point(name: &str, sc: &Scenario, opts: &HarnessOpts, threads: usize) -> RunResult {
    let mut w = make_workload(name, opts.total_ops(threads), opts.quick);
    let rc = opts.run_config(threads);
    run_scenario(w.as_mut(), sc, &rc)
}

/// Like [`run_point`] but with a custom [`RunConfig`] (ablations).
pub fn run_point_with(name: &str, sc: &Scenario, rc: &RunConfig, quick: bool) -> RunResult {
    let total = rc.threads as u64 * rc.ops_per_thread;
    let mut w = make_workload(name, total, quick);
    run_scenario(w.as_mut(), sc, rc)
}

/// CSV header shared by the figure binaries.
pub fn print_throughput_header() {
    println!("workload,scenario,threads,throughput_mops,commits,aborts,commit_abort_ratio");
}

/// Emit one CSV row.
pub fn print_throughput_row(workload: &str, r: &RunResult) {
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

/// Emit one point in the format the harness was asked for: a JSON line
/// under `--json`, a CSV row otherwise.
pub fn emit_point(opts: &HarnessOpts, workload: &str, r: &RunResult) {
    if opts.json {
        println!("{}", report::point_json(workload, r));
    } else {
        print_throughput_row(workload, r);
    }
}

/// Run a full figure: every scenario x thread count for each workload.
pub fn run_figure(workload_names: &[&str], scenarios: &[Scenario], opts: &HarnessOpts) {
    if !opts.json {
        print_throughput_header();
    }
    for name in workload_names {
        for sc in scenarios {
            for &threads in &opts.threads {
                let r = run_point(name, sc, opts, threads);
                emit_point(opts, name, &r);
            }
        }
    }
}

/// Tables I / II: commit-to-abort ratio of TPCC (Hash Table) across the
/// {DRAM, Optane} x {ADR, eADR} grid for one algorithm.
pub fn commit_abort_table(algo: ptm::Algo) {
    use pmem_sim::{DurabilityDomain, MediaKind};
    let opts = HarnessOpts::from_args();
    if !opts.json {
        print!("scenario");
        for t in &opts.threads {
            print!(",{t}");
        }
        println!();
    }
    for (media, mname) in [(MediaKind::Dram, "DRAM"), (MediaKind::Optane, "Optane")] {
        for (domain, dname) in [
            (DurabilityDomain::Adr, "ADR"),
            (DurabilityDomain::Eadr, "eADR"),
        ] {
            let sc = Scenario::new(format!("{mname}_{dname}"), media, domain, algo);
            if opts.json {
                for &threads in &opts.threads {
                    let r = run_point("tpcc-hash", &sc, &opts, threads);
                    println!("{}", report::point_json("tpcc-hash", &r));
                }
                continue;
            }
            print!("{}", sc.label);
            for &threads in &opts.threads {
                let r = run_point("tpcc-hash", &sc, &opts, threads);
                let ratio = r.commit_abort_ratio();
                if ratio.is_finite() {
                    print!(",{ratio:.2}");
                } else {
                    print!(",inf");
                }
            }
            println!();
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
            threads: vec![1],
            ops_per_thread: 50,
            json: false,
            trace: None,
        };
        let sc = Scenario::new(
            "t",
            pmem_sim::MediaKind::Optane,
            pmem_sim::DurabilityDomain::Adr,
            ptm::Algo::RedoLazy,
        );
        let r = run_point("tatp", &sc, &opts, 1);
        assert_eq!(r.ops, 50);
        assert!(r.throughput_mops() > 0.0);
    }
}
