//! Ablation: the three points of `PtmConfig::flush` (DESIGN.md §5
//! decision 2), one row per cell and thread count.
//!
//! * `Incremental` vs `Batched` is the paper's §III-B flush-timing
//!   comparison (redo-log lines flushed as they fill vs all at commit);
//!   the paper found no noticeable difference.
//! * `Batched` vs `Combined` is write combining: every durability
//!   obligation of a fence window deduplicated at cache-line
//!   granularity and drained through the bank-interleaved
//!   `MemSession::clwb_batch`. Under eADR-class domains all three plans
//!   emit no flushes and must agree.
//!
//! Cells: `tpcc-hash` and `btree-insert` under {redo, undo} × {ADR,
//! eADR, PDRAM, PDRAM-Lite}, plus `tpcc-btree` under redo / ADR.
//!
//! A built-in regression guard (always on, including `--quick`) fails
//! the run if `Combined` stops eliding flushes on the first redo / ADR
//! cell — the planner's whole point.

use bench::{emit_point, optane, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::{Algo, FlushPlan};

const PLANS: [(FlushPlan, &str); 3] = [
    (FlushPlan::Incremental, "incremental"),
    (FlushPlan::Batched, "batched"),
    (FlushPlan::Combined, "combined"),
];

fn main() {
    let (opts, sweep) = HarnessOpts::with_thread_sweep();
    if !opts.json {
        println!(
            "workload,algo,domain,threads,incremental_mops,batched_mops,combined_mops,\
             batched_vs_incremental_pct,combined_vs_batched_pct,incremental_clwbs,\
             batched_clwbs,combined_clwbs,flushes_elided,lines_planned"
        );
    }
    let domains = [
        DurabilityDomain::Adr,
        DurabilityDomain::Eadr,
        DurabilityDomain::Pdram,
        DurabilityDomain::PdramLite,
    ];
    let mut guard_elided: Option<u64> = None;
    for name in ["tpcc-hash", "tpcc-btree", "btree-insert"] {
        for (algo_label, algo) in [("redo", Algo::RedoLazy), ("undo", Algo::UndoEager)] {
            for domain in domains {
                // The B+Tree-indexed TPCC runs only at the paper's
                // flush-timing point.
                if name == "tpcc-btree"
                    && (algo != Algo::RedoLazy || domain != DurabilityDomain::Adr)
                {
                    continue;
                }
                let domain_label = domain.name();
                for &threads in &sweep {
                    let sc = optane(format!("{domain_label}_{}", algo.label()), domain, algo);
                    let mut rc = opts.run_config(threads);
                    let [inc, bat, com] = PLANS.map(|(plan, _)| {
                        rc.ptm.flush = plan;
                        run_point_with(name, &sc, &rc, opts.quick)
                    });
                    if algo == Algo::RedoLazy && domain == DurabilityDomain::Adr {
                        guard_elided.get_or_insert(com.ptm.flushes_elided);
                    }
                    if opts.json {
                        for ((_, plan_label), r) in PLANS.iter().zip([&inc, &bat, &com]) {
                            emit_point(
                                &opts,
                                &format!("{name}-{algo_label}-{domain_label}-{plan_label}"),
                                r,
                            );
                        }
                        continue;
                    }
                    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
                    println!(
                        "{},{},{},{},{:.4},{:.4},{:.4},{:.1},{:.1},{},{},{},{},{}",
                        name,
                        algo_label,
                        domain_label,
                        threads,
                        inc.throughput_mops(),
                        bat.throughput_mops(),
                        com.throughput_mops(),
                        pct(bat.throughput_mops(), inc.throughput_mops()),
                        pct(com.throughput_mops(), bat.throughput_mops()),
                        inc.mem.clwbs,
                        bat.mem.clwbs,
                        com.mem.clwbs,
                        com.ptm.flushes_elided,
                        com.ptm.lines_planned,
                    );
                }
            }
        }
    }
    if guard_elided.unwrap_or(0) == 0 {
        eprintln!(
            "REGRESSION: write combining elided zero flushes on the redo ADR \
             workload — the planner is not deduplicating"
        );
        std::process::exit(1);
    }
}
