//! Ablation 2 (DESIGN.md §5, paper §III-B): incremental vs batched redo
//! log flushing. The paper found no noticeable difference; this binary
//! regenerates that comparison.

use bench::{emit_point, run_point_with, HarnessOpts};
use pmem_sim::{DurabilityDomain, MediaKind};
use ptm::{Algo, FlushPlan};
use workloads::driver::Scenario;

fn main() {
    let opts = HarnessOpts::from_args();
    if !opts.json {
        println!("workload,threads,incremental_mops,batched_mops,delta_pct");
    }
    for name in ["tpcc-hash", "tpcc-btree", "btree-insert"] {
        for &threads in &opts.threads {
            let sc = Scenario::new(
                "adr_R",
                MediaKind::Optane,
                DurabilityDomain::Adr,
                Algo::RedoLazy,
            );
            let mut rc = opts.run_config(threads);
            rc.ptm.flush = FlushPlan::Incremental;
            let inc = run_point_with(name, &sc, &rc, opts.quick);
            rc.ptm.flush = FlushPlan::Batched;
            let bat = run_point_with(name, &sc, &rc, opts.quick);
            if opts.json {
                emit_point(&opts, &format!("{name}-incremental"), &inc);
                emit_point(&opts, &format!("{name}-batched"), &bat);
                continue;
            }
            println!(
                "{},{},{:.4},{:.4},{:.1}",
                name,
                threads,
                inc.throughput_mops(),
                bat.throughput_mops(),
                (bat.throughput_mops() / inc.throughput_mops() - 1.0) * 100.0
            );
        }
    }
}
