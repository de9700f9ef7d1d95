//! Sampling-off overhead ablation (PR9 acceptance): btree-insert under
//! Optane/ADR/redo at 1 and 4 threads, time-series sampler compiled in
//! but disarmed vs armed.
//!
//! Three claims, all checked here:
//!
//! * **Off is the default path**: with no sampler attached the per-site
//!   cost is one relaxed load at session construction — repeated
//!   single-threaded off runs must report *bit-identical* virtual time
//!   (sampling disabled changes nothing; multi-threaded virtual time
//!   wobbles with OS lock ordering regardless of telemetry).
//! * **On never charges virtual time**: the sampler folds events into
//!   its current window using the thread's existing clock and flushes
//!   into a pre-allocated ring, so at 1 thread the armed run's virtual
//!   time is bit-identical to the off run. Asserted exactly.
//! * **≤2% at 4 threads**: with real threads the OS interleaves lock
//!   acquisition differently run to run; each arm reports its best of
//!   five runs to damp that noise and the 2% acceptance bound is
//!   asserted on the damped figures.

use std::sync::Arc;

use bench::HarnessOpts;
use pmem_sim::{DurabilityDomain, MediaKind};
use workloads::driver::RunConfig;
use workloads::Scenario;

fn main() {
    let opts = HarnessOpts::from_args();
    let sc = Scenario::new(
        "Optane_ADR_R",
        MediaKind::Optane,
        DurabilityDomain::Adr,
        ptm::Algo::RedoLazy,
    );
    if !opts.json {
        println!("workload,threads,mode,throughput_mops,elapsed_virtual_ns,samples,regression_pct");
    }
    const RUNS: usize = 5;
    for &threads in &[1usize, 4] {
        let base = opts.run_config(threads);
        let offs: Vec<_> = (0..RUNS)
            .map(|_| bench::run_point_with("btree-insert", &sc, &base, opts.quick))
            .collect();
        // Disabled sampling is the untouched default path: every
        // single-threaded off run must land on the same virtual time,
        // bit for bit. (At 4 threads the OS interleaves lock
        // acquisition differently run to run, so virtual time wobbles
        // there with or without telemetry — that noise is what the
        // best-of-5 damping below is for.)
        if threads == 1 {
            assert!(
                offs.iter()
                    .all(|r| r.elapsed_virtual_ns == offs[0].elapsed_virtual_ns),
                "off runs disagree on virtual time — sampling-off path is not inert"
            );
        }
        let off = offs
            .into_iter()
            .max_by(|a, b| a.throughput_mops().total_cmp(&b.throughput_mops()))
            .unwrap();

        let mut samples = 0u64;
        let on = (0..RUNS)
            .map(|_| {
                let sampler = Arc::new(obs::Sampler::with_defaults());
                let rc_on = RunConfig {
                    obs: Some(Arc::clone(&sampler)),
                    ..base.clone()
                };
                let r = bench::run_point_with("btree-insert", &sc, &rc_on, opts.quick);
                samples = sampler
                    .threads()
                    .iter()
                    .map(|t| t.samples.len() as u64 + t.dropped)
                    .sum();
                r
            })
            .max_by(|a, b| a.throughput_mops().total_cmp(&b.throughput_mops()))
            .unwrap();

        if threads == 1 {
            // Single-threaded virtual execution is deterministic and the
            // sampler never advances the clock: armed == disarmed exactly.
            assert_eq!(
                on.elapsed_virtual_ns, off.elapsed_virtual_ns,
                "armed sampler perturbed single-threaded virtual time"
            );
        }

        let regression =
            100.0 * (off.throughput_mops() - on.throughput_mops()) / off.throughput_mops();
        if opts.json {
            let mut w = trace::json::Writer::new();
            w.begin_object();
            w.key("workload").str("btree-insert");
            w.key("ablation").str("obs_overhead");
            w.key("threads").u64(threads as u64);
            w.key("off_mops").f64(off.throughput_mops(), 6);
            w.key("on_mops").f64(on.throughput_mops(), 6);
            w.key("off_elapsed_virtual_ns").u64(off.elapsed_virtual_ns);
            w.key("on_elapsed_virtual_ns").u64(on.elapsed_virtual_ns);
            w.key("samples").u64(samples);
            w.key("regression_pct").f64(regression, 3);
            w.end_object();
            println!("{}", w.finish());
        } else {
            println!(
                "btree-insert,{threads},off,{:.4},{},0,",
                off.throughput_mops(),
                off.elapsed_virtual_ns
            );
            println!(
                "btree-insert,{threads},on,{:.4},{},{samples},{regression:.3}",
                on.throughput_mops(),
                on.elapsed_virtual_ns
            );
        }
        assert!(
            regression.abs() <= 2.0,
            "sampling regression {regression:.3}% exceeds the 2% acceptance bound"
        );
    }
}
