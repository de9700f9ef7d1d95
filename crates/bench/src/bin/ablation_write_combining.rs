//! Ablation: naive vs write-combining commit pipeline.
//!
//! The write-combining pipeline (see `ptm::umap::LineSet` and
//! `FlushPlan::Combined`) collects every durability obligation of
//! a fence window, dedupes at cache-line granularity and drains the
//! unique lines through the bank-interleaved `MemSession::clwb_batch`.
//! This binary measures the gain over the naive per-entry flush loop on
//! write-hot workloads across {redo, undo} × {ADR, eADR, PDRAM,
//! PDRAM-Lite}. Under eADR-class domains both arms must be identical
//! (flushes are free no-ops there).
//!
//! A built-in regression guard (always on, including `--quick`) fails
//! the run if the combined pipeline stops eliding flushes on the redo
//! ADR workload — the planner's whole point.

use bench::{emit_point, run_point_with, HarnessOpts};
use pmem_sim::{DurabilityDomain, MediaKind};
use ptm::{Algo, FlushPlan};
use workloads::driver::Scenario;

fn main() {
    let opts = HarnessOpts::from_args();
    if !opts.json {
        println!(
            "workload,algo,domain,threads,naive_mops,combined_mops,gain_pct,\
             naive_clwbs,combined_clwbs,flushes_elided,lines_planned"
        );
    }
    let domains = [
        DurabilityDomain::Adr,
        DurabilityDomain::Eadr,
        DurabilityDomain::Pdram,
        DurabilityDomain::PdramLite,
    ];
    let mut guard_ok = false;
    let mut guard_checked = false;
    for name in ["btree-insert", "tpcc-hash"] {
        for (algo_label, algo) in [("redo", Algo::RedoLazy), ("undo", Algo::UndoEager)] {
            for domain in domains {
                let domain_label = domain.name();
                for &threads in &opts.threads {
                    let sc = Scenario::new(
                        format!("{domain_label}_{}", algo.label()),
                        MediaKind::Optane,
                        domain,
                        algo,
                    );
                    let mut rc = opts.run_config(threads);
                    rc.ptm.flush = FlushPlan::Batched;
                    let naive = run_point_with(name, &sc, &rc, opts.quick);
                    rc.ptm.flush = FlushPlan::Combined;
                    let combined = run_point_with(name, &sc, &rc, opts.quick);
                    // Flush-count regression guard: the first redo ADR
                    // point must elide a nonzero share of flushes.
                    if !guard_checked && algo == Algo::RedoLazy && domain == DurabilityDomain::Adr {
                        guard_checked = true;
                        guard_ok = combined.ptm.flushes_elided > 0;
                    }
                    if opts.json {
                        emit_point(
                            &opts,
                            &format!("{name}-{algo_label}-{domain_label}-naive"),
                            &naive,
                        );
                        emit_point(
                            &opts,
                            &format!("{name}-{algo_label}-{domain_label}-combined"),
                            &combined,
                        );
                        continue;
                    }
                    println!(
                        "{},{},{},{},{:.4},{:.4},{:.1},{},{},{},{}",
                        name,
                        algo_label,
                        domain_label,
                        threads,
                        naive.throughput_mops(),
                        combined.throughput_mops(),
                        (combined.throughput_mops() / naive.throughput_mops() - 1.0) * 100.0,
                        naive.mem.clwbs,
                        combined.mem.clwbs,
                        combined.ptm.flushes_elided,
                        combined.ptm.lines_planned,
                    );
                }
            }
        }
    }
    if !guard_ok {
        eprintln!(
            "REGRESSION: write combining elided zero flushes on the redo ADR \
             workload — the planner is not deduplicating"
        );
        std::process::exit(1);
    }
}
