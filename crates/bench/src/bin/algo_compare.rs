//! Head-to-head comparison of the registered PTM algorithms (PR 5): per
//! (workload × durability domain × algorithm), virtual-time throughput,
//! abort rate, and the persistence work actually issued (clwb + sfence
//! counts, shadow traffic for copy-on-write).
//!
//! This is the experiment that proves the `ptm::algo` seam carries its
//! weight: the registered policies run the *same* driver, differ only
//! behind the `LogPolicy` trait, and land exactly where the paper's
//! logging analysis predicts — redo with O(1) fences per transaction,
//! undo with O(W) fences, cow shadow paying ~2x data writes for
//! line-granular publication, and htm-logged trading orec bookkeeping
//! for hardware sections sealed by a 2-fence back-end log. Under eADR
//! the software policies collapse toward the same cost.

use bench::{emit_point, optane, run_point, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::Algo;

fn main() {
    let (opts, threads) = HarnessOpts::parse(|_, args| args.value("--threads").unwrap_or(1));
    if !opts.json {
        println!(
            "workload,scenario,threads,throughput_mops,abort_rate_pct,clwbs,sfences,\
             shadow_lines_allocated,publish_fences"
        );
    }
    for name in ["tpcc-hash", "btree-insert", "vacation-low"] {
        for (domain, dname) in [
            (DurabilityDomain::Adr, "ADR"),
            (DurabilityDomain::Eadr, "eADR"),
            (DurabilityDomain::Pdram, "PDRAM"),
            (DurabilityDomain::PdramLite, "PDRAM-lite"),
        ] {
            for algo in Algo::ALL {
                let sc = optane(format!("Optane_{dname}_{}", algo.label()), domain, algo);
                let r = run_point(name, &sc, &opts, threads);
                if opts.json {
                    emit_point(&opts, name, &r);
                    continue;
                }
                let attempts = r.ptm.commits + r.ptm.aborts;
                let abort_rate = if attempts > 0 {
                    r.ptm.aborts as f64 / attempts as f64 * 100.0
                } else {
                    0.0
                };
                println!(
                    "{},{},{},{:.4},{:.2},{},{},{},{}",
                    name,
                    r.label,
                    r.threads,
                    r.throughput_mops(),
                    abort_rate,
                    r.mem.clwbs,
                    r.mem.sfences,
                    r.ptm.shadow_lines_allocated,
                    r.ptm.publish_fences,
                );
            }
        }
    }
}
