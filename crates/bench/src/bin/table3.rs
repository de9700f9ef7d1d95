//! Table III: speedup from (incorrectly) removing memory fences from the
//! write instrumentation of the ADR algorithms, per workload & algorithm.

use bench::{emit_point, run_point, HarnessOpts};
use ptm::Algo;
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_count();
    if !opts.json {
        println!("workload,algo,correct_mops,nofence_mops,speedup_pct");
    }
    for name in ["tpcc-hash", "tatp", "vacation-low", "vacation-high"] {
        for algo in [Algo::UndoEager, Algo::RedoLazy] {
            let (correct, elided) = Scenario::fence_elision_pair(algo);
            let rc_correct = run_point(name, &correct, &opts, threads);
            let rc_elided = run_point(name, &elided, &opts, threads);
            if opts.json {
                emit_point(&opts, name, &rc_correct);
                emit_point(&opts, name, &rc_elided);
                continue;
            }
            let speedup =
                (rc_elided.throughput_mops() / rc_correct.throughput_mops() - 1.0) * 100.0;
            println!(
                "{},{},{:.4},{:.4},{:.1}",
                name,
                algo.label(),
                rc_correct.throughput_mops(),
                rc_elided.throughput_mops(),
                speedup
            );
        }
    }
}
