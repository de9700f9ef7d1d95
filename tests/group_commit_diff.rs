//! Differential property test for group commit: for random two-thread
//! transaction programs, running with `group_commit` on and off must
//! commit the *identical* final heap state — the fence-window
//! coalescing is a pure timing optimization with no logical effect —
//! while the grouped run actually elides fences (so the equivalence is
//! not vacuous).

use optane_ptm::palloc::PHeap;
use optane_ptm::pmem_sim::{DurabilityDomain, Machine, MachineConfig};
use optane_ptm::pstructs::PHashMap;
use optane_ptm::ptm::{Algo, Ptm, PtmConfig, TxThread};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u64),
    Remove(u64),
}

/// Per-thread key spaces are disjoint (thread 0 owns 0..32, thread 1
/// owns 32..64), so the sequentially interleaved execution is
/// conflict-free and the final state is a pure function of the program.
fn program(thread: u64) -> impl Strategy<Value = Vec<Step>> {
    let base = thread * 32;
    prop::collection::vec(
        prop_oneof![
            (base..base + 32, 1u64..1_000_000).prop_map(|(k, v)| Step::Insert(k, v)),
            (base..base + 32).prop_map(Step::Remove),
        ],
        1..30,
    )
}

/// Run both threads' programs alternately (one OS thread, two virtual
/// threads sharing one PTM — the group-commit window spans both) and
/// return the final map state plus the number of fences elided.
fn run_programs(
    programs: &[Vec<Step>; 2],
    algo: Algo,
    group_commit: bool,
) -> (Vec<Option<u64>>, u64) {
    let machine = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    machine.begin_run(2, u64::MAX);
    let heap = PHeap::format(&machine, "h", 1 << 16, 4);
    let ptm = Ptm::new(PtmConfig {
        algo,
        group_commit,
        ..PtmConfig::default()
    });
    let mut ths: Vec<TxThread> = (0..2)
        .map(|t| TxThread::new(Arc::clone(&ptm), Arc::clone(&heap), machine.session(t)))
        .collect();
    let map = ths[0].run(|tx| PHashMap::create(tx, 64));
    heap.set_root(ths[0].session_mut(), 0, map.header());
    let rounds = programs[0].len().max(programs[1].len());
    for i in 0..rounds {
        for t in 0..2 {
            match programs[t].get(i) {
                Some(Step::Insert(k, v)) => {
                    ths[t].run(|tx| map.insert(tx, *k, *v).map(|_| ()));
                }
                Some(Step::Remove(k)) => {
                    ths[t].run(|tx| map.remove(tx, *k).map(|_| ()));
                }
                None => {}
            }
        }
    }
    let state = (0..64u64)
        .map(|k| ths[0].run(|tx| map.get(tx, k)))
        .collect();
    (state, ptm.stats.snapshot().sfences_elided)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn group_commit_on_and_off_commit_identical_state(
        p0 in program(0),
        p1 in program(1),
        algo_idx in 0usize..Algo::ALL.len(),
    ) {
        let algo = Algo::ALL[algo_idx];
        let programs = [p0, p1];
        let (plain, plain_elided) = run_programs(&programs, algo, false);
        let (grouped, grouped_elided) = run_programs(&programs, algo, true);
        prop_assert_eq!(plain_elided, 0, "group commit off must never join");
        prop_assert!(
            grouped_elided > 0,
            "a two-thread interleaving under a wide-open window must join at least once"
        );
        prop_assert_eq!(&plain, &grouped, "algo {:?}: states diverged", algo);
    }
}
