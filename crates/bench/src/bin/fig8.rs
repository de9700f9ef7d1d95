//! Figure 8: memcached-like KV throughput (single worker thread) vs
//! working-set size, across durability domains. Working sets are scaled
//! to the simulator's cache geometry (4 MB L3, 64 MB DRAM cache) but
//! preserve the paper's four regimes: fits-in-L3, fits-in-DRAM,
//! exceeds-DRAM, index-uncacheable.

use bench::{emit_point, HarnessOpts};
use pmem_sim::{DurabilityDomain, MediaKind};
use ptm::Algo;
use workloads::driver::{run_scenario, RunConfig, Scenario};
use workloads::KvStore;

fn main() {
    let opts = HarnessOpts::from_args();
    // items = working-set KB (1 KB values).
    let working_sets_kb: Vec<u64> = if opts.quick {
        vec![512, 8 << 10, 24 << 10]
    } else {
        vec![2 << 10, 16 << 10, 48 << 10, 96 << 10, 160 << 10, 256 << 10]
    };
    // The paper grid's curves with the heap on Optane, plus the DRAM
    // best case (eADR, redo).
    let scenarios: Vec<Scenario> = Scenario::paper_grid()
        .into_iter()
        .filter(|sc| {
            sc.heap_media == MediaKind::Optane
                || (sc.domain == DurabilityDomain::Eadr && sc.algo == Algo::RedoLazy)
        })
        .collect();
    let rc = RunConfig {
        threads: 1,
        ops_per_thread: opts.ops_per_thread,
        ..RunConfig::default()
    };
    let dram_capacity_kb = (rc.model.dram_cache_bytes >> 10) as u64;
    if !opts.json {
        println!("scenario,working_set_mb,requests_per_vsec");
    }
    for sc in &scenarios {
        for &ws_kb in &working_sets_kb {
            // The paper: "for the DRAM curves, operation beyond [DRAM
            // capacity] is not possible".
            if sc.heap_media == MediaKind::Dram && ws_kb > dram_capacity_kb {
                continue;
            }
            let mut w = KvStore::new(ws_kb);
            let r = run_scenario(&mut w, sc, &rc);
            if opts.json {
                emit_point(&opts, &format!("kvstore-{ws_kb}kb"), &r);
                continue;
            }
            println!(
                "{},{:.1},{:.0}",
                sc.label,
                ws_kb as f64 / 1024.0,
                r.throughput_mops() * 1_000_000.0
            );
        }
    }
}
