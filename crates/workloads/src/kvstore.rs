//! A memcached-like key/value store (paper §IV-E, Fig. 8).
//!
//! The paper drives memcached with memaslap: one server worker thread, a
//! 50/50 get/set mix over random keys, 128 B keys and 1 KB values, and a
//! working-set size swept from L3-resident to far-beyond-DRAM. Random
//! keys defeat locality, so every request is served by the smallest level
//! of the hierarchy that holds the whole working set — which is exactly
//! what the experiment isolates.
//!
//! Here the store is in-process: a persistent hash index maps the key's
//! 64-bit digest to a 1 KB value block. Gets and sets touch one word per
//! cache line of the value (the memory system works at line granularity,
//! so this preserves the traffic while trimming instrumentation).

use pmem_sim::{PAddr, WORDS_PER_LINE};
use pstructs::PHashMap;
use ptm::TxThread;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::driver::Workload;

/// Value size: 1 KB = 128 words = 16 cache lines.
pub const VALUE_WORDS: u64 = 128;

/// The KV store: a persistent hash index from key to a `value_words`
/// value block. As a [`Workload`] it is the paper's experiment (`items`
/// scales the working set: `items` KB of values); the sharded front-end
/// holds one per shard, over that shard's keys.
pub struct KvStore {
    value_words: u64,
    keys: Vec<u64>,
    index: Option<PHashMap>,
}

impl KvStore {
    /// The paper's store: keys `0..items`, 1 KB values.
    pub fn new(items: u64) -> Self {
        Self::with_keys(VALUE_WORDS, (0..items).collect())
    }

    /// A store of `value_words`-word values over exactly `keys`.
    pub fn with_keys(value_words: u64, keys: Vec<u64>) -> Self {
        KvStore {
            value_words,
            keys,
            index: None,
        }
    }

    /// The first word of each cache line of a value: gets and sets touch
    /// one word per line.
    fn line_words(&self) -> impl Iterator<Item = u64> {
        (0..self.value_words).step_by(WORDS_PER_LINE)
    }

    /// Working-set size in bytes (values only; the index adds ~6%).
    pub fn working_set_bytes(&self) -> u64 {
        self.keys.len() as u64 * self.value_words * 8
    }

    /// Build the index and one value block per key, a transaction each.
    pub fn populate(&mut self, th: &mut TxThread) {
        let index = th.run(|tx| PHashMap::create(tx, self.keys.len()));
        for &k in &self.keys {
            th.run(|tx| {
                let block = tx.alloc(self.value_words as usize);
                for w in self.line_words() {
                    tx.write_at(block, w, k ^ w)?;
                }
                index.insert(tx, k, block.0)?;
                Ok(())
            });
        }
        self.index = Some(index);
    }

    /// GET: read the whole value (0 for an absent key).
    pub fn get(&self, th: &mut TxThread, key: u64) -> u64 {
        let index = self.index.expect("populate");
        th.run(|tx| {
            let Some(block) = index.get(tx, key)? else {
                return Ok(0);
            };
            let mut sum = 0u64;
            for w in self.line_words() {
                sum = sum.wrapping_add(tx.read_at(PAddr(block), w)?);
            }
            Ok(sum)
        })
    }

    /// SET: overwrite the whole value with words derived from `stamp`
    /// (an absent key is left absent).
    pub fn set(&self, th: &mut TxThread, key: u64, stamp: u64) {
        let index = self.index.expect("populate");
        th.run(|tx| {
            if let Some(block) = index.get(tx, key)? {
                for w in self.line_words() {
                    tx.write_at(PAddr(block), w, stamp ^ w)?;
                }
            }
            Ok(())
        });
    }
}

impl Workload for KvStore {
    fn name(&self) -> String {
        format!("kvstore-{}MB", self.working_set_bytes() >> 20)
    }

    fn heap_words(&self) -> usize {
        ((self.keys.len() as u64 * (self.value_words + 16)) as usize + (1 << 16))
            .next_power_of_two()
    }

    fn setup(&mut self, th: &mut TxThread) {
        self.populate(th);
    }

    fn op(&self, th: &mut TxThread, rng: &mut SmallRng, _tid: usize, _i: u64) {
        let key = self.keys[rng.gen_range(0..self.keys.len() as u64) as usize];
        if rng.gen_bool(0.5) {
            self.get(th, key);
        } else {
            self.set(th, key, rng.gen::<u64>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_scenario, RunConfig, Scenario};
    use pmem_sim::{DurabilityDomain, LatencyModel, MediaKind};
    use ptm::Algo;

    #[test]
    fn kvstore_runs() {
        let mut w = KvStore::new(64);
        let sc = Scenario::new(
            "kv",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            Algo::RedoLazy,
        );
        let rc = RunConfig {
            threads: 1,
            ops_per_thread: 100,
            ..RunConfig::default()
        };
        let r = run_scenario(&mut w, &sc, &rc);
        assert_eq!(r.ops, 100);
        assert!(r.ptm.commits >= 100);
    }

    #[test]
    fn larger_working_sets_run_slower() {
        // Fig. 8's first cliff: an L3-resident working set vs one that
        // spills to media.
        let model = LatencyModel {
            l3_bytes: 1 << 20, // 1 MB L3 for a quick test
            ..LatencyModel::default()
        };
        let run = |items: u64| {
            let mut w = KvStore::new(items);
            let sc = Scenario::new(
                "kv",
                MediaKind::Optane,
                DurabilityDomain::Eadr,
                Algo::RedoLazy,
            );
            let rc = RunConfig {
                threads: 1,
                ops_per_thread: 300,
                model: model.clone(),
                ..RunConfig::default()
            };
            run_scenario(&mut w, &sc, &rc).throughput_mops()
        };
        let small = run(256); // 256 KB: fits the 1 MB L3
        let large = run(8_192); // 8 MB: far beyond it
        assert!(
            small > 1.5 * large,
            "L3-resident {small} should beat spilled {large} clearly"
        );
    }

    /// The `fig8` path (KvStore through `run_scenario`, 1 thread) has no
    /// golden file; these values were recorded at the commit before the
    /// store gained `populate` / `get` / `set` and the driver moved onto
    /// `PtmDb`, so both refactors are pinned bit for bit.
    #[test]
    fn fig8_path_matches_values_recorded_before_the_refactor() {
        let mut w = KvStore::new(512);
        let sc = Scenario::new(
            "kv",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            Algo::RedoLazy,
        );
        let rc = RunConfig {
            threads: 1,
            ops_per_thread: 400,
            seed: 8,
            ..RunConfig::default()
        };
        let r = run_scenario(&mut w, &sc, &rc);
        let got = (
            r.elapsed_virtual_ns,
            r.ptm.commits,
            r.mem.loads,
            r.mem.stores,
            r.mem.clwbs,
            r.mem.sfences,
            r.mem.l3_misses,
            r.phases.total_ns(),
        );
        assert_eq!(got, (847172, 400, 5430, 9843, 5018, 772, 382, 847172));
    }
}
