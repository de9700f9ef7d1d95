//! Where does transaction time go, and what persistence work does each
//! algorithm issue? The paper's §III-B argument as a table: per
//! (workload × durability domain × algorithm), the share of virtual
//! transaction time spent in each phase, then throughput, abort rate and
//! the persistence work actually issued (clwb + sfence counts).
//!
//! The headline shape: under ADR on Optane the flush + fence-wait share
//! is substantial (the persistence choreography *is* the overhead);
//! under eADR both collapse to ~0 because the `clwb`/`sfence` calls are
//! elided — the surviving costs are speculation, logging stores and
//! validation. The registered policies run the *same* driver and differ
//! only behind the `LogPolicy` trait: redo with O(1) fences per
//! transaction, undo with O(W) fences, and htm-logged trading orec
//! bookkeeping for hardware sections sealed by a 2-fence back-end log.
//!
//! With `--trace <path>`, the tpcc-hash / ADR / redo point is re-run with
//! the flight recorder attached and both export formats are written
//! (binary dump to `<path>`, Chrome trace-event JSON to `<path>.json`)
//! for `trace_analyze --file <path>` to cross-check offline.

use bench::trace_out::write_trace_exports;
use bench::{emit_point, optane, run_point, run_point_with, HarnessOpts};
use pmem_sim::DurabilityDomain;
use ptm::{Algo, Phase};

fn main() {
    let (opts, (threads, trace)) = HarnessOpts::parse(|_, args| {
        let threads = args.value("--threads").unwrap_or(1);
        (threads, args.value::<String>("--trace"))
    });
    if !opts.json {
        print!("workload,scenario,threads");
        for p in Phase::ALL {
            print!(",{}_pct", p.label());
        }
        println!(",persistence_pct,total_phase_ns,throughput_mops,abort_rate_pct,clwbs,sfences");
    }
    for name in ["btree-insert", "tpcc-hash", "vacation-low"] {
        for (domain, dname) in [
            (DurabilityDomain::Adr, "ADR"),
            (DurabilityDomain::Eadr, "eADR"),
            (DurabilityDomain::Pdram, "PDRAM"),
            (DurabilityDomain::PdramLite, "PDRAM-lite"),
        ] {
            for algo in Algo::ALL {
                let sc = optane(format!("Optane_{dname}_{}", algo.label()), domain, algo);
                let traced = trace.as_deref().filter(|_| {
                    name == "tpcc-hash" && domain == DurabilityDomain::Adr && algo == Algo::RedoLazy
                });
                let r = match traced {
                    Some(path) => {
                        // Size the ring so the dump is lossless and
                        // `trace_analyze --file` can cross-check exactly
                        // (tpcc-hash records a few hundred events/op).
                        let cap = (opts.ops_per_thread as usize * 512).next_power_of_two();
                        let sink = trace::TraceSink::new(cap);
                        let rc = workloads::driver::RunConfig {
                            trace: Some(std::sync::Arc::clone(&sink)),
                            ..opts.run_config(threads)
                        };
                        let r = run_point_with(name, &sc, &rc, opts.quick);
                        let n = write_trace_exports(path, &sink, &r)
                            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
                        eprintln!("# trace: {n} events -> {path} and {path}.json");
                        r
                    }
                    None => run_point(name, &sc, &opts, threads),
                };
                if opts.json {
                    emit_point(&opts, name, &r);
                    continue;
                }
                print!("{},{},{}", name, r.label, r.threads);
                for p in Phase::ALL {
                    print!(",{:.1}", r.phases.share(p) * 100.0);
                }
                let attempts = r.ptm.commits + r.ptm.aborts;
                let abort_rate = if attempts > 0 {
                    r.ptm.aborts as f64 / attempts as f64 * 100.0
                } else {
                    0.0
                };
                println!(
                    ",{:.1},{},{:.4},{:.2},{},{}",
                    r.phases.persistence_share() * 100.0,
                    r.phases.total_ns(),
                    r.throughput_mops(),
                    abort_rate,
                    r.mem.clwbs,
                    r.mem.sfences,
                );
            }
        }
    }
}
