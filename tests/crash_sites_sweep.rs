//! Integration test for the deterministic crash-site enumeration
//! harness: a bounded sweep over every registered algorithm, all four live
//! durability domains and every adversary policy must be violation-free;
//! deliberately broken recovery must fail with a deterministic,
//! replayable reproducer; and recovery interrupted by a second crash
//! must converge on the next pass.

use optane_ptm::pmem_sim::{
    catch_simulated_crash, silence_simulated_crash_panics, AdversaryPolicy, CrashInjector,
    DurabilityDomain, Machine, MachineConfig,
};
use optane_ptm::ptm::crash_harness::{run_site, sweep, BankTransfers, SweepCase, SweepOptions};
use optane_ptm::ptm::db::restart;
use optane_ptm::ptm::{recover, Algo, RecoverOptions};
use std::sync::Arc;

fn small_bank() -> BankTransfers {
    BankTransfers {
        accounts: 6,
        initial: 80,
        transfers: 5,
        ..BankTransfers::default()
    }
}

/// The headline acceptance sweep: {redo, undo, htm} × {ADR, eADR, PDRAM,
/// PDRAM-Lite} × all four adversary policies, strided to a test-sized
/// budget, with zero violations.
#[test]
fn bounded_sweep_over_the_full_grid_is_clean() {
    let bank = small_bank();
    let mut cases = Vec::new();
    for algo in Algo::ALL {
        for domain in [
            DurabilityDomain::Adr,
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ] {
            for policy in AdversaryPolicy::SWEEP {
                cases.push(SweepCase {
                    algo,
                    domain,
                    policy,
                    seed: 9,
                });
            }
        }
    }
    let report = sweep(
        &bank,
        &cases,
        SweepOptions {
            max_sites_per_case: Some(10),
            ..SweepOptions::default()
        },
    );
    let expected = Algo::ALL.len() * 4 * AdversaryPolicy::SWEEP.len();
    assert_eq!(report.cases.len(), expected);
    for c in &report.cases {
        // An even stride over every site plus the end-of-run crash. It
        // fills the budget only when the case has many sites, and an
        // unlogged hardware commit has none of its own.
        let span = c.total_sites + 1;
        assert_eq!(
            c.sites_run,
            span.div_ceil(span.div_ceil(10)),
            "{:?}: {} sites",
            c.case,
            c.total_sites
        );
    }
    let lines: Vec<String> = report.violations().map(|v| v.to_string()).collect();
    assert!(report.is_clean(), "{lines:#?}");
}

/// Breaking recovery on purpose must make the sweep fail, and the
/// reproducer must replay the identical violation (and pass again once
/// recovery is fixed).
#[test]
fn broken_recovery_yields_a_deterministic_reproducer() {
    let bank = small_bank();
    let case = SweepCase {
        algo: Algo::UndoEager,
        domain: DurabilityDomain::Adr,
        policy: AdversaryPolicy::AllNew,
        seed: 9,
    };
    let broken = RecoverOptions {
        skip_undo_rollback: true,
        ..RecoverOptions::default()
    };
    let report = sweep(
        &bank,
        &[case],
        SweepOptions {
            max_sites_per_case: Some(64),
            recover: broken,
        },
    );
    let v = report
        .violations()
        .next()
        .expect("skipping undo rollback must be caught")
        .clone();
    assert!(
        v.reproducer()
            .starts_with("CRASH-REPRO workload=bank site="),
        "{}",
        v.reproducer()
    );
    let replay1 = run_site(&bank, &case, v.site, broken);
    let replay2 = run_site(&bank, &case, v.site, broken);
    assert_eq!(replay1.state_digest, replay2.state_digest);
    assert!(replay1.violations.contains(&v.detail));
    let fixed = run_site(&bank, &case, v.site, RecoverOptions::default());
    assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
}

/// Crash *during recovery itself* (via the injection layer armed on the
/// rebooted machine), then recover again: the second pass must converge
/// to a consistent bank.
#[test]
fn crash_during_recovery_converges_on_the_next_pass() {
    use optane_ptm::ptm::crash_harness::{count_sites, crash_at_site, CrashWorkload};

    silence_simulated_crash_panics();
    let bank = small_bank();
    let case = SweepCase {
        algo: Algo::UndoEager,
        domain: DurabilityDomain::Adr,
        policy: AdversaryPolicy::PerWord,
        seed: 9,
    };
    // First crash: mid-workload, at a site deep enough that transfers
    // (and thus undo logs) are in flight.
    let total = count_sites(&bank, &case);
    let site = total * 3 / 4;
    let crashed = crash_at_site(&bank, &case, site);
    assert!(
        crashed.fired.is_some(),
        "site {site}/{total} must interrupt the run"
    );
    let image = &crashed.images[0];

    // Second crash: during recovery, at every recovery site in turn.
    for recovery_site in 0..u64::MAX {
        let m2 = Machine::reboot(image, MachineConfig::functional(case.domain));
        let inj2 = CrashInjector::at_site(recovery_site, case.policy, 77 ^ recovery_site);
        m2.arm_injector(Arc::clone(&inj2));
        let done = catch_simulated_crash(|| recover(&m2)).is_ok();
        m2.disarm_injector();
        if done {
            assert!(recovery_site > 0, "recovery of an in-flight tx has sites");
            break;
        }
        let image2 = inj2.take_outcome().unwrap().image;
        // Converged: the doubly-crashed machine restarts and passes the
        // same checks the harness applies, including committed-prefix
        // equality.
        let m3 = restart(
            &image2,
            &bank.heap_pool(0),
            MachineConfig::functional(case.domain),
            RecoverOptions::default(),
        )
        .unwrap();
        m3.heap.validate().unwrap();
        let violations = bank.check(&[m3], &case);
        assert!(
            violations.is_empty(),
            "recovery site {recovery_site}: {violations:?}"
        );
    }
}
