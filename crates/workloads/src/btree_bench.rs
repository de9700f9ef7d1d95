//! The two DudeTM B+Tree microbenchmarks (paper Fig. 3, top row).
//!
//! * **insert-only**: unique random keys into an initially empty tree;
//! * **mixed**: an equal mix of inserts, lookups and removes over a key
//!   range of 2^21 (prepopulated to half full).
//!
//! Sizes are configurable so the harness can run scaled-down versions
//! with the same shape.

use pstructs::BpTree;
use ptm::TxThread;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::driver::Workload;

/// Insert-only: every operation inserts a fresh random key.
pub struct BTreeInsertOnly {
    expected_inserts: u64,
    tree: Option<BpTree>,
}

impl BTreeInsertOnly {
    /// `expected_inserts`: total inserts across all threads (sizes the
    /// heap; the paper uses 2M).
    pub fn new(expected_inserts: u64) -> Self {
        BTreeInsertOnly {
            expected_inserts,
            tree: None,
        }
    }
}

impl Workload for BTreeInsertOnly {
    fn name(&self) -> String {
        "btree-insert".into()
    }

    fn heap_words(&self) -> usize {
        // ~ (36-word leaf per 8 live keys) + internals + headroom.
        ((self.expected_inserts as usize) * 12 + (1 << 16)).next_power_of_two()
    }

    fn setup(&mut self, th: &mut TxThread) {
        self.tree = Some(th.run(BpTree::create));
    }

    fn op(&self, th: &mut TxThread, rng: &mut SmallRng, _tid: usize, _i: u64) {
        let tree = self.tree.expect("setup ran");
        let key = rng.gen::<u64>(); // 64-bit random: collisions negligible
        th.run(|tx| tree.insert(tx, key, key).map(|_| ()));
    }
}

/// Mixed: equal thirds insert / lookup / remove over a bounded key range.
pub struct BTreeMixed {
    key_range: u64,
    prepopulate: u64,
    tree: Option<BpTree>,
}

impl BTreeMixed {
    /// The paper uses `key_range = 2^21`; prepopulation fills half.
    pub fn new(key_range: u64) -> Self {
        BTreeMixed {
            key_range,
            prepopulate: key_range / 2,
            tree: None,
        }
    }
}

impl Workload for BTreeMixed {
    fn name(&self) -> String {
        "btree-mixed".into()
    }

    fn heap_words(&self) -> usize {
        ((self.key_range as usize) * 8 + (1 << 16)).next_power_of_two()
    }

    fn setup(&mut self, th: &mut TxThread) {
        let tree = th.run(BpTree::create);
        let mut rng = seeded_rng(12_648_430);
        for _ in 0..self.prepopulate {
            let key = rng.gen_range(0..self.key_range);
            th.run(|tx| tree.insert(tx, key, key).map(|_| ()));
        }
        self.tree = Some(tree);
    }

    fn op(&self, th: &mut TxThread, rng: &mut SmallRng, _tid: usize, i: u64) {
        let tree = self.tree.expect("setup ran");
        let key = rng.gen_range(0..self.key_range);
        match i % 3 {
            0 => {
                th.run(|tx| tree.insert(tx, key, key).map(|_| ()));
            }
            1 => {
                th.run(|tx| tree.get(tx, key).map(|_| ()));
            }
            _ => {
                th.run(|tx| tree.remove(tx, key).map(|_| ()));
            }
        }
    }
}

fn seeded_rng(seed: u64) -> SmallRng {
    use rand::SeedableRng;
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_scenario, RunConfig, Scenario};
    use pmem_sim::{DurabilityDomain, LatencyModel, MediaKind};
    use ptm::Algo;

    fn quick_rc(threads: usize, ops: u64) -> RunConfig {
        RunConfig {
            threads,
            ops_per_thread: ops,
            model: LatencyModel::default(),
            seed: 7,
            ..RunConfig::default()
        }
    }

    #[test]
    fn insert_only_runs_and_counts() {
        let mut w = BTreeInsertOnly::new(400);
        let sc = Scenario::new(
            "x",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            Algo::RedoLazy,
        );
        let r = run_scenario(&mut w, &sc, &quick_rc(2, 200));
        assert_eq!(r.ops, 400);
        assert!(r.ptm.commits >= 400);
        assert!(r.elapsed_virtual_ns > 0);
    }

    #[test]
    fn mixed_runs_under_undo_too() {
        let mut w = BTreeMixed::new(1 << 12);
        let sc = Scenario::new(
            "x",
            MediaKind::Optane,
            DurabilityDomain::Eadr,
            Algo::UndoEager,
        );
        let r = run_scenario(&mut w, &sc, &quick_rc(2, 150));
        assert_eq!(r.ops, 300);
        assert!(r.ptm.commits >= 300);
    }

    #[test]
    fn redo_beats_undo_on_inserts_under_adr() {
        // The paper's central §III-B finding, at microbenchmark scale.
        let rc = quick_rc(1, 400);
        let mut w1 = BTreeInsertOnly::new(400);
        let redo = run_scenario(
            &mut w1,
            &Scenario::new(
                "r",
                MediaKind::Optane,
                DurabilityDomain::Adr,
                Algo::RedoLazy,
            ),
            &rc,
        );
        let mut w2 = BTreeInsertOnly::new(400);
        let undo = run_scenario(
            &mut w2,
            &Scenario::new(
                "u",
                MediaKind::Optane,
                DurabilityDomain::Adr,
                Algo::UndoEager,
            ),
            &rc,
        );
        assert!(
            redo.throughput_mops() > undo.throughput_mops(),
            "redo {} <= undo {}",
            redo.throughput_mops(),
            undo.throughput_mops()
        );
    }
}
