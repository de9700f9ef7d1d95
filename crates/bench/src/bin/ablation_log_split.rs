//! Ablation 1 (DESIGN.md §5): the paper's split-log optimization — log
//! index in DRAM vs the whole log in Optane.

use bench::{emit_point, run_point_with, HarnessOpts};
use pmem_sim::{DurabilityDomain, MediaKind};
use ptm::Algo;
use workloads::driver::Scenario;

fn main() {
    let opts = HarnessOpts::from_args();
    if !opts.json {
        println!("workload,algo,threads,split_mops,unsplit_mops,split_speedup_pct");
    }
    for name in ["tpcc-hash", "tatp", "btree-insert"] {
        for algo in [Algo::RedoLazy, Algo::UndoEager] {
            for &threads in &opts.threads {
                let sc = Scenario::new(
                    format!("adr_{}", algo.label()),
                    MediaKind::Optane,
                    DurabilityDomain::Adr,
                    algo,
                );
                let mut rc = opts.run_config(threads);
                rc.ptm.split_log_index = true;
                let split = run_point_with(name, &sc, &rc, opts.quick);
                rc.ptm.split_log_index = false;
                let unsplit = run_point_with(name, &sc, &rc, opts.quick);
                if opts.json {
                    emit_point(&opts, &format!("{name}-split"), &split);
                    emit_point(&opts, &format!("{name}-unsplit"), &unsplit);
                    continue;
                }
                println!(
                    "{},{},{},{:.4},{:.4},{:.1}",
                    name,
                    algo.label(),
                    threads,
                    split.throughput_mops(),
                    unsplit.throughput_mops(),
                    (split.throughput_mops() / unsplit.throughput_mops() - 1.0) * 100.0
                );
            }
        }
    }
}
