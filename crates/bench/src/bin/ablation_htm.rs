//! The paper's §V future-work question: is HTM a viable strategy for
//! accelerating PTM? Hardware transactions (TSX-style) are incompatible
//! with ADR (a `clwb` aborts them) but compose with eADR and PDRAM, where
//! commit-time cache visibility *is* durability. This ablation compares
//! `Algo::HtmLogged` (HTM-first, software fallback) against software
//! redo under each domain: where no flushes are needed the hardware
//! commit is unlogged, under ADR it pays its back-end log after the
//! section retires.
//!
//! The guard pins the §V claim on the deterministic cells: at 1 thread
//! under eADR and PDRAM every commit takes the hardware path and
//! HtmLogged does not lose to redo.

use bench::{emit_point, run_point_with, HarnessOpts};
use pmem_sim::{DurabilityDomain, MediaKind};
use ptm::Algo;
use workloads::driver::Scenario;

fn main() {
    let opts = HarnessOpts::from_args();
    if !opts.json {
        println!("workload,domain,threads,stm_mops,hybrid_mops,htm_commit_pct,speedup_pct");
    }
    for name in ["tatp", "tpcc-hash", "btree-mixed"] {
        for (domain, dname) in [
            (DurabilityDomain::Eadr, "eADR"),
            (DurabilityDomain::Pdram, "PDRAM"),
            (DurabilityDomain::Adr, "ADR"),
        ] {
            for &threads in &opts.threads {
                let rc = opts.run_config(threads);
                let run = |algo: Algo| {
                    let sc = Scenario::new(dname, MediaKind::Optane, domain, algo);
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
                if opts.json {
                    emit_point(&opts, &format!("{name}-stm"), &stm);
                    emit_point(&opts, &format!("{name}-hybrid"), &hybrid);
                    continue;
                }
                let htm_pct =
                    100.0 * hybrid.ptm.htm_commits as f64 / hybrid.ptm.commits.max(1) as f64;
                println!(
                    "{},{},{},{:.4},{:.4},{:.1},{:.1}",
                    name,
                    dname,
                    threads,
                    stm.throughput_mops(),
                    hybrid.throughput_mops(),
                    htm_pct,
                    (hybrid.throughput_mops() / stm.throughput_mops() - 1.0) * 100.0
                );
            }
        }
    }
}
