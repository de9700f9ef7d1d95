//! Long-running crash-consistency fuzzer: rounds of concurrent bank
//! transfers frozen mid-flight by a power failure, rebooted, recovered,
//! and checked for exact conservation — across algorithms, durability
//! domains, adversary policies and adversarial seeds. A CI-style soak
//! for the recovery protocols; `--ops N` sets the number of rounds
//! (default 40). For *exhaustive* (rather than sampled) crash coverage
//! of a deterministic workload, see the `crash_sites` binary.

use std::time::Duration;

use pmem_sim::{AdversaryPolicy, DurabilityDomain};
use ptm::crash_round::{frozen_bank_round, FROZEN_ACCOUNTS, FROZEN_INITIAL};
use ptm::{Algo, PtmConfig};

fn main() {
    // Like `HarnessOpts::from_args`: a flag silently ignored (`--quick`
    // used to run the full soak) would misreport what was run.
    let mut rounds: u64 = 40;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ops" => {
                rounds = args
                    .next()
                    .expect("--ops needs a number of rounds")
                    .parse()
                    .expect("bad round count");
            }
            other => panic!("unknown flag `{other}` (known: --ops)"),
        }
    }
    let mut failures = 0;
    let mut total_redo = 0u64;
    let mut total_undo = 0u64;
    for round in 0..rounds {
        // Rotate through the crash adversary policies: extreme images
        // (all-old / all-new) catch recovery bugs fair coin flips miss.
        let policy = AdversaryPolicy::SWEEP[round as usize % AdversaryPolicy::SWEEP.len()];
        for (algo, domain) in [
            (Algo::RedoLazy, DurabilityDomain::Adr),
            (Algo::UndoEager, DurabilityDomain::Adr),
            (Algo::RedoLazy, DurabilityDomain::Eadr),
            (Algo::RedoLazy, DurabilityDomain::PdramLite),
        ] {
            let cfg = PtmConfig {
                algo,
                ..PtmConfig::default()
            };
            // Vary the freeze point with the round as well as the host.
            let run_for = Duration::from_millis(8 + round % 13);
            let r = frozen_bank_round(cfg, domain, policy, round, run_for);
            total_redo += r.recovery.redo_replayed as u64;
            total_undo += r.recovery.undo_rolled_back as u64;
            if r.total != FROZEN_ACCOUNTS * FROZEN_INITIAL {
                eprintln!(
                    "FAIL round {round} {algo:?}/{domain:?}/{policy}: total {} != {}",
                    r.total,
                    FROZEN_ACCOUNTS * FROZEN_INITIAL
                );
                failures += 1;
            }
        }
        if round % 10 == 9 {
            println!(
                "round {}/{rounds}: {} redo replays, {} undo rollbacks so far, {failures} failures",
                round + 1,
                total_redo,
                total_undo
            );
        }
    }
    println!("crash_fuzz: {rounds} rounds, {failures} failures, {total_redo} redo replays, {total_undo} undo rollbacks");
    std::process::exit(if failures > 0 { 1 } else { 0 });
}
