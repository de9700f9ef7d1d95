//! Durability of committed data across crash + recovery + heap re-attach
//! for the persistent data structures, under every durability domain and
//! many adversarial seeds.

use optane_ptm::palloc::PHeap;
use optane_ptm::pmem_sim::{DurabilityDomain, Machine, MachineConfig};
use optane_ptm::pstructs::{BpTree, PHashMap};
use optane_ptm::ptm::db::restart;
use optane_ptm::ptm::{Algo, Ptm, PtmConfig, RecoverOptions, TxThread};
use std::sync::Arc;

fn cfg_for(algo: Algo) -> PtmConfig {
    PtmConfig {
        algo,
        ..PtmConfig::default()
    }
}

fn machine_cfg(domain: DurabilityDomain) -> MachineConfig {
    MachineConfig {
        domain,
        track_persistence: true,
        ..MachineConfig::default()
    }
}

fn machine(domain: DurabilityDomain) -> Arc<Machine> {
    Machine::new(machine_cfg(domain))
}

fn crash_recover(m: &Arc<Machine>, heap: &Arc<PHeap>, seed: u64) -> (Arc<Machine>, Arc<PHeap>) {
    let r = restart(
        &m.crash(seed),
        heap.pool().name(),
        machine_cfg(m.domain()),
        RecoverOptions::default(),
    )
    .expect("restart");
    (r.machine, r.heap)
}

#[test]
fn btree_committed_keys_survive_every_domain() {
    for domain in [
        DurabilityDomain::Adr,
        DurabilityDomain::Eadr,
        DurabilityDomain::Pdram,
        DurabilityDomain::PdramLite,
    ] {
        for algo in Algo::ALL {
            let m = machine(domain);
            let heap = PHeap::format(&m, "h", 1 << 16, 4);
            let ptm = Ptm::new(cfg_for(algo));
            let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
            let tree = th.run(BpTree::create);
            heap.set_root(th.session_mut(), 0, tree.header());
            for k in 0..150u64 {
                th.run(|tx| tree.insert(tx, k * 7, k).map(|_| ()));
            }
            // Also remove some (removal must be durable too).
            for k in 0..30u64 {
                th.run(|tx| tree.remove(tx, k * 7 * 5).map(|_| ()));
            }
            for seed in [0u64, 3, 9] {
                let (m2, heap2) = crash_recover(&m, &heap, seed);
                let ptm2 = Ptm::new(cfg_for(algo));
                let mut th2 = TxThread::new(ptm2, heap2.clone(), m2.session(0));
                let tree2 = BpTree::from_header(heap2.root_raw(0));
                for k in 0..150u64 {
                    let removed = k % 5 == 0 && k / 5 < 30;
                    let expect = if removed { None } else { Some(k) };
                    let got = th2.run(|tx| tree2.get(tx, k * 7));
                    assert_eq!(got, expect, "{domain:?}/{algo:?} seed {seed} key {}", k * 7);
                }
            }
        }
    }
}

#[test]
fn hashmap_survives_crashes() {
    // Anchored in a non-zero root slot: re-attach reads the slot it was
    // given, not the first one.
    let m = machine(DurabilityDomain::Adr);
    let heap = PHeap::format(&m, "h", 1 << 16, 4);
    let ptm = Ptm::new(cfg_for(Algo::RedoLazy));
    let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
    let map = th.run(|tx| PHashMap::create(tx, 64));
    heap.set_root(th.session_mut(), 2, map.header());
    for k in 0..60u64 {
        th.run(|tx| map.insert(tx, k, k + 1).map(|_| ()));
    }
    for seed in 0..6u64 {
        let (m2, heap2) = crash_recover(&m, &heap, seed);
        let ptm2 = Ptm::new(cfg_for(Algo::RedoLazy));
        let mut th2 = TxThread::new(ptm2, heap2.clone(), m2.session(0));
        let map2 = PHashMap::from_header(heap2.root_raw(2));
        assert_eq!(th2.run(|tx| map2.len(tx)), 60, "seed {seed}");
        assert_eq!(th2.run(|tx| map2.get(tx, 31)), Some(32), "seed {seed}");
    }
}

#[test]
fn double_crash_is_idempotent() {
    // Crash, recover, crash again immediately, recover again: state stable.
    let m = machine(DurabilityDomain::Adr);
    let heap = PHeap::format(&m, "h", 1 << 14, 4);
    let ptm = Ptm::new(cfg_for(Algo::UndoEager));
    let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
    let map = th.run(|tx| PHashMap::create(tx, 32));
    heap.set_root(th.session_mut(), 0, map.header());
    for k in 0..40u64 {
        th.run(|tx| map.insert(tx, k, !k).map(|_| ()));
    }
    let (m2, heap2) = crash_recover(&m, &heap, 1);
    let (m3, heap3) = crash_recover(&m2, &heap2, 2);
    let ptm3 = Ptm::new(cfg_for(Algo::UndoEager));
    let mut th3 = TxThread::new(ptm3, heap3.clone(), m3.session(0));
    let map3 = PHashMap::from_header(heap3.root_raw(0));
    for k in 0..40u64 {
        assert_eq!(th3.run(|tx| map3.get(tx, k)), Some(!k));
    }
}

#[test]
fn work_continues_after_recovery() {
    // The recovered heap is fully usable: allocate, mutate, crash again.
    let m = machine(DurabilityDomain::Adr);
    let heap = PHeap::format(&m, "h", 1 << 15, 4);
    let ptm = Ptm::new(cfg_for(Algo::RedoLazy));
    let mut th = TxThread::new(ptm, heap.clone(), m.session(0));
    let tree = th.run(BpTree::create);
    heap.set_root(th.session_mut(), 0, tree.header());
    for k in 0..50u64 {
        th.run(|tx| tree.insert(tx, k, k).map(|_| ()));
    }
    let (m2, heap2) = crash_recover(&m, &heap, 5);
    let ptm2 = Ptm::new(cfg_for(Algo::RedoLazy));
    let mut th2 = TxThread::new(ptm2, heap2.clone(), m2.session(0));
    let tree2 = BpTree::from_header(heap2.root_raw(0));
    for k in 50..100u64 {
        th2.run(|tx| tree2.insert(tx, k, k).map(|_| ()));
    }
    let (m3, heap3) = crash_recover(&m2, &heap2, 6);
    let ptm3 = Ptm::new(cfg_for(Algo::RedoLazy));
    let mut th3 = TxThread::new(ptm3, heap3.clone(), m3.session(0));
    let tree3 = BpTree::from_header(heap3.root_raw(0));
    assert_eq!(th3.run(|tx| tree3.len(tx)), 100);
    for k in 0..100u64 {
        assert_eq!(th3.run(|tx| tree3.get(tx, k)), Some(k));
    }
}
