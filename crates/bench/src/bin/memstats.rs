//! The paper's §III-C explanatory measurement: performance counters (L3
//! hits/misses, lines written to DRAM vs Optane, WPQ stalls, fence waits)
//! per scenario, for one workload at one thread count.

use bench::{emit_point, run_point, HarnessOpts};
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_count();
    if !opts.json {
        println!(
            "workload,scenario,threads,mops,l3_hit_pct,optane_lines_written,dram_lines_written,\
             clwbs,sfences,fence_wait_us,wpq_stall_us,evictions"
        );
    }
    for name in ["tpcc-hash", "tatp"] {
        for sc in Scenario::fig3_grid() {
            let r = run_point(name, &sc, &opts, threads);
            if opts.json {
                emit_point(&opts, name, &r);
                continue;
            }
            let total = (r.mem.l3_hits + r.mem.l3_misses).max(1);
            println!(
                "{},{},{},{:.4},{:.1},{},{},{},{},{},{},{}",
                name,
                r.label,
                threads,
                r.throughput_mops(),
                100.0 * r.mem.l3_hits as f64 / total as f64,
                r.mem.optane_lines_written,
                r.mem.dram_lines_written,
                r.mem.clwbs,
                r.mem.sfences,
                r.mem.fence_wait_ns / 1_000,
                r.mem.wpq_stall_ns / 1_000,
                r.mem.evictions,
            );
        }
    }
}
