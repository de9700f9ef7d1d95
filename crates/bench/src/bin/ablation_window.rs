//! Methodology validation: sensitivity of results to the bounded-lag
//! virtual-time window. Throughput and commit/abort ratios should be
//! stable across a wide range of window sizes — if they were not, the
//! simulation's conclusions would be artifacts of the executor, not of
//! the modeled machine.

use bench::{emit_point, optane, ratio, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::Algo;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_count();
    if !opts.json {
        println!("workload,window_ns,throughput_mops,commit_abort_ratio");
    }
    for name in ["tpcc-hash", "tatp"] {
        for window in [500u64, 1_000, 2_000, 4_000, 8_000] {
            let sc = optane(format!("w{window}"), DurabilityDomain::Adr, Algo::RedoLazy);
            let mut rc = opts.run_config(threads);
            rc.window_ns = window;
            let r = run_point_with(name, &sc, &rc, opts.quick);
            if opts.json {
                emit_point(&opts, name, &r);
                continue;
            }
            println!(
                "{},{},{:.4},{}",
                name,
                window,
                r.throughput_mops(),
                ratio(&r)
            );
        }
    }
}
