//! The paper's §V future-work question: is HTM a viable strategy for
//! accelerating PTM? Hardware transactions (TSX-style) are incompatible
//! with ADR (a `clwb` aborts them) but compose with eADR and PDRAM, where
//! commit-time cache visibility *is* durability. This ablation compares
//! `Algo::HtmLogged` (HTM-first, software fallback) against software
//! redo under each domain: where no flushes are needed the hardware
//! commit is unlogged, under ADR it moves all persistence after the
//! section retires — buffered writes, a sealed back-end log (2 fences)
//! and an unfenced lazy home writeback.
//!
//! A second arm asks whether that back-end log makes HTM pay off under
//! ADR: the memcached-like KV workload at low and high contention
//! (working-set size controls the key-collision probability). Under
//! high contention footprint conflicts abort sections and the software
//! fallback absorbs the work, so no claim is asserted there.
//!
//! Two guards pin the claims on the cells where they hold:
//!
//! * **§V** — at 1 thread (deterministic) under eADR and PDRAM, every
//!   commit takes the hardware path and HtmLogged does not lose to redo;
//! * **ADR crossover** — on the KV workload at low contention and ≤ 2
//!   threads, HtmLogged commits on the logged hardware path and does not
//!   lose to redo: fewer fences per commit outweigh the HTM
//!   begin/commit overhead.

use bench::{emit_point, optane, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::Algo;
use workloads::driver::{run_scenario, RunResult};
use workloads::KvStore;

fn main() {
    let (opts, sweep) = HarnessOpts::with_thread_sweep();
    if !opts.json {
        println!("workload,domain,threads,stm_mops,hybrid_mops,htm_commit_pct,speedup_pct");
    }
    for name in ["tatp", "tpcc-hash", "btree-mixed"] {
        for (domain, dname) in [
            (DurabilityDomain::Eadr, "eADR"),
            (DurabilityDomain::Pdram, "PDRAM"),
            (DurabilityDomain::Adr, "ADR"),
        ] {
            for &threads in &sweep {
                let rc = opts.run_config(threads);
                let run = |algo: Algo| {
                    let sc = optane(dname, domain, algo);
                    run_point_with(name, &sc, &rc, opts.quick)
                };
                let stm = run(Algo::RedoLazy);
                let hybrid = run(Algo::HtmLogged);
                if threads == 1 && domain != DurabilityDomain::Adr {
                    assert_eq!(
                        hybrid.ptm.htm_commits, hybrid.ptm.commits,
                        "{name} {dname}: every 1-thread commit must take the hardware path"
                    );
                    assert!(
                        hybrid.throughput_mops() >= stm.throughput_mops(),
                        "{name} {dname}: HtmLogged ({:.4} Mops) must not lose to redo ({:.4} Mops)",
                        hybrid.throughput_mops(),
                        stm.throughput_mops(),
                    );
                }
                emit(&opts, name, dname, ["stm", "hybrid"], &stm, &hybrid);
            }
        }
    }
    // 512 distinct 1 KB values make same-key conflicts rare; 16 make
    // them the common case.
    for (contention, items) in [("low", 512u64), ("high", 16u64)] {
        for &threads in &sweep {
            let run = |algo: Algo| {
                let mut w = KvStore::new(items);
                let sc = optane(
                    format!("ADR_{}_{}", contention, algo.label()),
                    DurabilityDomain::Adr,
                    algo,
                );
                run_scenario(&mut w, &sc, &opts.run_config(threads))
            };
            let redo = run(Algo::RedoLazy);
            let htm = run(Algo::HtmLogged);
            if contention == "low" && threads <= 2 {
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
            let name = format!("kvstore-{contention}");
            emit(&opts, &name, "ADR", ["redo", "htm-logged"], &redo, &htm);
        }
    }
}

/// One (software, hardware) pair: two JSON lines labelled
/// `{workload}-{arm}`, or one CSV row.
fn emit(
    opts: &HarnessOpts,
    workload: &str,
    domain: &str,
    arms: [&str; 2],
    stm: &RunResult,
    hybrid: &RunResult,
) {
    if opts.json {
        emit_point(opts, &format!("{workload}-{}", arms[0]), stm);
        emit_point(opts, &format!("{workload}-{}", arms[1]), hybrid);
        return;
    }
    let htm_pct = 100.0 * hybrid.ptm.htm_commits as f64 / hybrid.ptm.commits.max(1) as f64;
    println!(
        "{},{},{},{:.4},{:.4},{:.1},{:.1}",
        workload,
        domain,
        stm.threads,
        stm.throughput_mops(),
        hybrid.throughput_mops(),
        htm_pct,
        (hybrid.throughput_mops() / stm.throughput_mops() - 1.0) * 100.0
    );
}
