//! Extension ablation: the TPCC order index structure — the paper's two
//! variants (B+Tree, Hash Table) plus this repository's skip list. The
//! interesting axis is index write-set size (B+Tree splits cascade; the
//! skip list touches only splice points) and its effect on abort rates.

use bench::{emit_point, optane, ratio, run_point, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::Algo;

fn main() {
    let (opts, sweep) = HarnessOpts::with_thread_sweep();
    if !opts.json {
        println!("index,threads,throughput_mops,commit_abort_ratio,max_write_entries");
    }
    for name in ["tpcc-btree", "tpcc-hash", "tpcc-skiplist"] {
        for &threads in &sweep {
            let sc = optane("adr_R", DurabilityDomain::Adr, Algo::RedoLazy);
            let r = run_point(name, &sc, &opts, threads);
            if opts.json {
                emit_point(&opts, name, &r);
                continue;
            }
            println!(
                "{},{},{:.4},{},{}",
                name,
                threads,
                r.throughput_mops(),
                ratio(&r),
                r.ptm.max_write_entries,
            );
        }
    }
}
