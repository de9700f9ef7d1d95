//! End-to-end crash atomicity: concurrent bank transfers, a power
//! failure frozen mid-flight, reboot, recovery — the total balance must
//! be exactly conserved under every (algorithm, durability domain) pair
//! and many adversarial persistence seeds.

use std::time::Duration;

use optane_ptm::pmem_sim::{AdversaryPolicy, DurabilityDomain};
use optane_ptm::ptm::crash_round::{
    frozen_bank_round, FrozenRound, FROZEN_ACCOUNTS, FROZEN_INITIAL,
};
use optane_ptm::ptm::{Algo, PtmConfig};

/// One frozen round under `cfg`; the root pointer must survive and the
/// money must be conserved.
fn conserved(cfg: PtmConfig, domain: DurabilityDomain, seed: u64) -> FrozenRound {
    conserved_under(cfg, domain, AdversaryPolicy::default(), seed)
}

/// [`conserved`] with the power failure's adversary `policy`.
fn conserved_under(
    cfg: PtmConfig,
    domain: DurabilityDomain,
    policy: AdversaryPolicy,
    seed: u64,
) -> FrozenRound {
    let round = frozen_bank_round(cfg, domain, policy, seed, Duration::from_millis(25));
    assert_eq!(round.root, round.table, "root pointer must survive");
    assert_eq!(
        round.total,
        FROZEN_ACCOUNTS * FROZEN_INITIAL,
        "{domain:?} {policy} seed {seed}"
    );
    round
}

fn run_crash_bank(algo: Algo, domain: DurabilityDomain, seed: u64) {
    let cfg = PtmConfig {
        algo,
        ..PtmConfig::default()
    };
    conserved(cfg, domain, seed);
}

#[test]
fn money_conserved_redo_adr() {
    for seed in 0..4 {
        run_crash_bank(Algo::RedoLazy, DurabilityDomain::Adr, seed);
    }
}

#[test]
fn money_conserved_undo_adr() {
    for seed in 0..4 {
        run_crash_bank(Algo::UndoEager, DurabilityDomain::Adr, seed);
    }
}

#[test]
fn money_conserved_redo_eadr() {
    run_crash_bank(Algo::RedoLazy, DurabilityDomain::Eadr, 7);
}

#[test]
fn money_conserved_undo_eadr() {
    run_crash_bank(Algo::UndoEager, DurabilityDomain::Eadr, 7);
}

#[test]
fn money_conserved_redo_pdram() {
    run_crash_bank(Algo::RedoLazy, DurabilityDomain::Pdram, 11);
}

#[test]
fn money_conserved_redo_pdram_lite() {
    run_crash_bank(Algo::RedoLazy, DurabilityDomain::PdramLite, 13);
}

/// Where the domain needs no flushes a hardware commit has no log: it
/// must be crash-atomic by construction (the simulated power failure
/// cannot split xend), and the software fallback's ring must never
/// outlive its orecs.
fn conserved_htm_flush_free(domain: DurabilityDomain) {
    for seed in 0..3 {
        let round = conserved(PtmConfig::htm_logged(), domain, seed);
        assert!(
            round.stats.htm_commits > 0,
            "hardware path must actually engage"
        );
    }
}

#[test]
fn money_conserved_hybrid_htm_eadr() {
    conserved_htm_flush_free(DurabilityDomain::Eadr);
}

#[test]
fn money_conserved_htm_pdram() {
    conserved_htm_flush_free(DurabilityDomain::Pdram);
}

#[test]
fn money_conserved_htm_pdram_lite() {
    conserved_htm_flush_free(DurabilityDomain::PdramLite);
}

/// Extreme images (all-old, all-new) and whole-line drains catch
/// recovery bugs that fair per-word coin flips miss: every logging
/// algorithm under ADR, one round per adversary policy.
#[test]
fn money_conserved_under_every_adversary_policy() {
    for algo in [Algo::RedoLazy, Algo::UndoEager] {
        let cfg = PtmConfig {
            algo,
            ..PtmConfig::default()
        };
        for (seed, policy) in AdversaryPolicy::SWEEP.into_iter().enumerate() {
            conserved_under(cfg.clone(), DurabilityDomain::Adr, policy, seed as u64);
        }
    }
}
