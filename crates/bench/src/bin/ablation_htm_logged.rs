//! Does back-end logging make HTM pay off under ADR? (PR 8 tentpole.)
//!
//! A `clwb` inside a hardware section aborts it, so `Algo::HtmLogged`
//! moves all persistence *after* the section retires — buffered writes,
//! then a sealed redo-style back-end log (2 fences) and an unfenced lazy
//! home writeback — so the HTM fast path runs under ADR too.
//!
//! This ablation runs the memcached-like KV workload under ADR and
//! compares software redo against HtmLogged across a contention sweep
//! (working-set size controls key-collision probability). The claim the
//! `--quick` guard pins: at low contention and 1–2 threads, HtmLogged
//! matches or beats redo — fewer fences per commit outweigh the HTM
//! begin/commit overhead. Under high contention footprint conflicts
//! abort sections and the software fallback absorbs the work, so no
//! claim is asserted there.

use bench::{emit_point, HarnessOpts};
use pmem_sim::{DurabilityDomain, MediaKind};
use ptm::Algo;
use workloads::driver::{run_scenario, Scenario};
use workloads::KvStore;

fn main() {
    let opts = HarnessOpts::from_args();
    if !opts.json {
        println!(
            "contention,items,threads,redo_mops,htm_logged_mops,speedup_pct,\
             logged_commit_pct,htm_fallbacks,redo_sfences,htm_sfences"
        );
    }
    // Working-set size sets the key-collision rate: 512 distinct 1 KB
    // values make same-key conflicts rare; 16 make them the common case.
    for (contention, items) in [("low", 512u64), ("high", 16u64)] {
        for threads in [1usize, 2] {
            let run = |algo: Algo| {
                let mut w = KvStore::new(items);
                let sc = Scenario::new(
                    format!("ADR_{}_{}", contention, algo.label()),
                    MediaKind::Optane,
                    DurabilityDomain::Adr,
                    algo,
                );
                run_scenario(&mut w, &sc, &opts.run_config(threads))
            };
            let redo = run(Algo::RedoLazy);
            let htm = run(Algo::HtmLogged);
            if opts.json {
                emit_point(&opts, &format!("kvstore-{contention}-redo"), &redo);
                emit_point(&opts, &format!("kvstore-{contention}-htm-logged"), &htm);
            } else {
                let logged_pct =
                    100.0 * htm.ptm.htm_logged_commits as f64 / htm.ptm.commits.max(1) as f64;
                println!(
                    "{},{},{},{:.4},{:.4},{:+.1},{:.1},{},{},{}",
                    contention,
                    items,
                    threads,
                    redo.throughput_mops(),
                    htm.throughput_mops(),
                    (htm.throughput_mops() / redo.throughput_mops() - 1.0) * 100.0,
                    logged_pct,
                    htm.ptm.htm_fallbacks,
                    redo.mem.sfences,
                    htm.mem.sfences,
                );
            }
            if contention == "low" {
                // The PR's acceptance claim, pinned at smoke scale: the
                // logged HTM path must carry the commits and must not
                // lose to software redo at low contention under ADR.
                assert!(
                    htm.ptm.htm_logged_commits > 0,
                    "HtmLogged committed nothing on the hardware path"
                );
                assert!(
                    htm.throughput_mops() >= redo.throughput_mops(),
                    "HtmLogged ({:.4} Mops) must not lose to redo ({:.4} Mops) \
                     at low contention under ADR ({} threads)",
                    htm.throughput_mops(),
                    redo.throughput_mops(),
                    threads,
                );
            }
        }
    }
}
