//! Ablation 5 (DESIGN.md §5): orec table geometry. Fewer stripes means
//! more false conflicts; sweep the table size and report throughput and
//! abort rates.

use bench::{emit_point, optane, ratio, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::Algo;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_count();
    if !opts.json {
        println!("workload,orecs,throughput_mops,commit_abort_ratio");
    }
    for name in ["tpcc-hash", "btree-mixed"] {
        for shift in [8usize, 12, 16, 20] {
            let sc = optane(
                format!("orecs{}", 1 << shift),
                DurabilityDomain::Adr,
                Algo::RedoLazy,
            );
            let mut rc = opts.run_config(threads);
            rc.ptm.orec_count = 1 << shift;
            let r = run_point_with(name, &sc, &rc, opts.quick);
            if opts.json {
                emit_point(&opts, name, &r);
                continue;
            }
            println!(
                "{},{},{:.4},{}",
                name,
                1 << shift,
                r.throughput_mops(),
                ratio(&r)
            );
        }
    }
}
