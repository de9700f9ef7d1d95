//! Ablation 4 (DESIGN.md §5): PDRAM-Lite's DRAM log budget. The paper
//! argues a handful of pages per thread suffices (Vacation <= 37 lines,
//! TPCC <= 36); sweep the budget and watch for the knee.

use bench::{emit_point, optane, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::Algo;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_count();
    if !opts.json {
        println!("workload,lite_entries,throughput_mops");
    }
    for name in ["tpcc-hash", "tatp", "vacation-low"] {
        for lite_entries in [8usize, 16, 32, 64, 128, 512] {
            let sc = optane(
                format!("lite{lite_entries}"),
                DurabilityDomain::PdramLite,
                Algo::RedoLazy,
            );
            let mut rc = opts.run_config(threads);
            rc.ptm.lite_log_entries = lite_entries;
            let r = run_point_with(name, &sc, &rc, opts.quick);
            if opts.json {
                emit_point(&opts, name, &r);
                continue;
            }
            println!("{},{},{:.4}", name, lite_entries, r.throughput_mops());
        }
    }
}
