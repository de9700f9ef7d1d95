//! Property-based model checking of the persistent containers against
//! `std::collections`, under both PTM algorithms.

use palloc::PHeap;
use pmem_sim::{DurabilityDomain, Machine, MachineConfig};
use proptest::prelude::*;
use pstructs::{BpTree, PHashMap};
use ptm::{Algo, Ptm, PtmConfig, TxThread};
use std::collections::{BTreeMap, HashMap};

fn thread(algo: Algo) -> TxThread {
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
    let heap = PHeap::format(&m, "h", 1 << 20, 4);
    let cfg = PtmConfig {
        algo,
        ..PtmConfig::default()
    };
    TxThread::new(Ptm::new(cfg), heap, m.session(0))
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Get(u64),
    Remove(u64),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..128, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0u64..128).prop_map(MapOp::Get),
            (0u64..128).prop_map(MapOp::Remove),
        ],
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bptree_matches_btreemap(ops in map_ops(), algo_redo in any::<bool>()) {
        let algo = if algo_redo { Algo::RedoLazy } else { Algo::UndoEager };
        let mut th = thread(algo);
        let t = th.run(BpTree::create);
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(th.run(|tx| t.insert(tx, k, v)), model.insert(k, v));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(th.run(|tx| t.get(tx, k)), model.get(&k).copied());
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(th.run(|tx| t.remove(tx, k)), model.remove(&k));
                }
            }
        }
        prop_assert_eq!(th.run(|tx| t.len(tx)), model.len() as u64);
        // Full scan agrees (order + contents).
        let scan = th.run(|tx| t.scan_all(tx));
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(scan, want);
    }

    #[test]
    fn hashmap_matches_hashmap(ops in map_ops()) {
        let mut th = thread(Algo::RedoLazy);
        let map = th.run(|tx| PHashMap::create(tx, 32));
        let mut model = HashMap::new();
        for op in &ops {
            match *op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(th.run(|tx| map.insert(tx, k, v)), model.insert(k, v));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(th.run(|tx| map.get(tx, k)), model.get(&k).copied());
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(th.run(|tx| map.remove(tx, k)), model.remove(&k));
                }
            }
        }
        prop_assert_eq!(th.run(|tx| map.len(tx)), model.len() as u64);
    }
}
