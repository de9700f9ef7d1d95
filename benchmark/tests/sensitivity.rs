//! Self-checks of the benchmark, at smoke scale: they prove the
//! exercise/bypass pairing and the verifier before anyone relies on them.

use pmem_sim::LatencyModel;
use ptm_benchmark::suite::bank::{self, Sabotage};
use ptm_benchmark::suite::{closed, run_rep, Scale, WorkloadId};

const SEED: u64 = 42;

/// Doubling the `clwb` issue cost (public `LatencyModel` fields, no
/// source change) must slow the workload that exercises the persist path
/// and leave the one that bypasses it bit-identical.
#[test]
fn clwb_cost_moves_tpcc_adr_and_not_btree_eadr() {
    let base = LatencyModel::default();
    let doubled = LatencyModel {
        clwb_optane_ns: base.clwb_optane_ns * 2,
        clwb_dram_ns: base.clwb_dram_ns * 2,
        ..base.clone()
    };
    let virt = |id, model: &LatencyModel| {
        let (rep, _) = closed::run_rep(id, Scale::Smoke, SEED, false, model);
        assert_eq!(rep.failures, [], "{id:?}");
        rep.virt
    };
    let (tpcc, tpcc_slow) = (
        virt(WorkloadId::TpccAdr1t, &base),
        virt(WorkloadId::TpccAdr1t, &doubled),
    );
    assert!(
        tpcc_slow.mops < tpcc.mops * 0.9,
        "sim_mops {} -> {} with clwb cost doubled",
        tpcc.mops,
        tpcc_slow.mops
    );
    assert!(tpcc_slow.mean_ns > tpcc.mean_ns && tpcc_slow.p99_ns > tpcc.p99_ns);
    // Same work, different price.
    assert_eq!(tpcc_slow.mem.clwbs, tpcc.mem.clwbs);

    // eADR bypasses the persist path: same counters, and the only way
    // the `clwb` price can reach virtual time is `PHeap::alloc`, which
    // charges store + clwb + sfence for a fresh block's header under
    // *every* domain (a model artifact: under eADR that persist is
    // free). So the whole difference is a whole number of `clwb` prices,
    // one per fresh block — and zero once palloc stops charging it, at
    // which point this can be tightened to `assert_eq!` on the whole
    // `Virtual`.
    let (btree, btree_slow) = (
        virt(WorkloadId::BtreeEadr1t, &base),
        virt(WorkloadId::BtreeEadr1t, &doubled),
    );
    assert_eq!((btree.mem, btree.ptm), (btree_slow.mem, btree_slow.ptm));
    let total = |v: &ptm_benchmark::suite::Virtual| v.phases.expect("closed loop").total_ns();
    let leak = total(&btree_slow) - total(&btree);
    assert_eq!(
        leak % base.clwb_optane_ns,
        0,
        "leak of {leak} ns is not whole clwbs"
    );
    let fresh_blocks = leak / base.clwb_optane_ns;
    assert!(
        fresh_blocks * 20 < btree.ops,
        "{fresh_blocks} fresh blocks in {} ops",
        btree.ops
    );
    assert!(btree_slow.mops > btree.mops * 0.995);
}

/// With the model untouched, arming the flight recorder must not move a
/// single virtual statistic of any deterministic workload.
#[test]
fn tracing_leaves_virtual_statistics_alone() {
    for id in WorkloadId::ALL.into_iter().filter(|w| w.deterministic()) {
        let (plain, none) = run_rep(id, Scale::Smoke, SEED, false);
        let (traced, trace) = run_rep(id, Scale::Smoke, SEED, true);
        assert!(none.is_none());
        let trace = trace.expect("traced rep returns its trace");
        assert_eq!(plain.virt, traced.virt, "{}", id.name());
        assert_eq!(
            (plain.failures, traced.failures),
            (vec![], vec![]),
            "{}",
            id.name()
        );
        assert_eq!(trace.dropped_events, 0, "{}", id.name());
        assert!(
            trace.closure_err <= 0.01,
            "{}: {}",
            id.name(),
            trace.closure_err
        );
        assert!(!trace.ops.is_empty());
    }
}

/// No op fails on any workload, for the default seed and one other; and
/// a different seed gives different inputs.
#[test]
fn no_failures_on_seeds_42_and_7() {
    for id in WorkloadId::ALL {
        let (a, _) = run_rep(id, Scale::Smoke, 42, false);
        let (b, _) = run_rep(id, Scale::Smoke, 7, false);
        assert_eq!((a.failures, b.failures), (vec![], vec![]), "{}", id.name());
        assert_ne!(
            a.virt,
            b.virt,
            "{}: the seed does not reach the inputs",
            id.name()
        );
        assert!(a.ops > 0 && a.measured.wall_s > 0.0 && a.setup_s > 0.0);
    }
}

/// The durability check can fail: hand the verifier a model with one
/// acknowledged transfer left out and it must report lost records.
#[test]
fn bank_verifier_catches_a_dropped_transfer() {
    let (good, _) = bank::run_rep(Scale::Smoke, SEED, false, Sabotage::None);
    assert_eq!(good.failed_ops(), 0);
    let restart = good.restart.expect("bank restarts");
    assert!(restart.full_restart_s > 0.0 && restart.first_txn_s <= restart.full_restart_s);
    let (bad, _) = bank::run_rep(Scale::Smoke, SEED, false, Sabotage::DropOneTransfer);
    assert!(bad.failed_ops() >= 2, "{:?}", bad.failures);
    assert!(bad.failures[0]
        .why
        .contains("differ from every legal state"));
}
