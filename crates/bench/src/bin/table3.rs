//! Table III: speedup from (incorrectly) removing memory fences from the
//! write instrumentation of the ADR algorithms, per workload & algorithm.

use bench::{emit_point, optane, run_point, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::{Algo, PtmConfig};
use workloads::driver::RunConfig;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_count();
    if !opts.json {
        println!("workload,algo,correct_mops,nofence_mops,speedup_pct");
    }
    let nofence = RunConfig {
        ptm: PtmConfig {
            elide_fences: true,
            ..PtmConfig::default()
        },
        ..opts.run_config(threads)
    };
    for name in ["tpcc-hash", "tatp", "vacation-low", "vacation-high"] {
        for algo in [Algo::UndoEager, Algo::RedoLazy] {
            let label = format!("Optane_ADR_{}", algo.label());
            let correct = optane(label.as_str(), DurabilityDomain::Adr, algo);
            let elided = optane(format!("{label}_nofence"), DurabilityDomain::Adr, algo);
            let rc_correct = run_point(name, &correct, &opts, threads);
            let rc_elided = run_point_with(name, &elided, &nofence, opts.quick);
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
