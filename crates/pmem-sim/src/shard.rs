//! Multi-machine construction: N independent shards under one roof.
//!
//! A [`MachineSet`] builds N identically configured [`Machine`]s, each
//! with its own pools, L3, bandwidth servers, WPQ banks and clock
//! domain. Shards share *nothing* — that is the point: aggregate write
//! throughput scales with shards because each shard drains its own
//! commit pipeline (the paper's single-WPQ saturation wall, multiplied
//! out). Cross-shard coordination lives a layer up (`ptm`'s
//! `ShardedEngine`), which also enforces that no transaction ever
//! touches two shards.

use std::sync::Arc;

use crate::crash::CrashImage;
use crate::machine::{Machine, MachineConfig};
use crate::stats::StatsSnapshot;

/// N independent simulated machines with identical configuration.
#[derive(Debug)]
pub struct MachineSet {
    machines: Vec<Arc<Machine>>,
}

impl MachineSet {
    /// Build `shards` machines, each from a clone of `config`.
    pub fn new(shards: usize, config: MachineConfig) -> MachineSet {
        assert!(shards >= 1, "a machine set needs at least one shard");
        MachineSet {
            machines: (0..shards).map(|_| Machine::new(config.clone())).collect(),
        }
    }

    /// Wrap pre-built machines (e.g. per-shard reboots after a crash).
    pub fn from_machines(machines: Vec<Arc<Machine>>) -> MachineSet {
        assert!(!machines.is_empty());
        MachineSet { machines }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Shard `i`'s machine.
    pub fn get(&self, i: usize) -> &Arc<Machine> {
        &self.machines[i]
    }

    /// All shards, in index order.
    pub fn machines(&self) -> &[Arc<Machine>] {
        &self.machines
    }

    /// Start a fresh timed run on every shard: `threads` virtual threads
    /// per shard, bounded-lag window `window_ns`. Each shard gets its own
    /// clock domain — shards do not lag-couple to each other.
    pub fn begin_run_all(&self, threads: usize, window_ns: u64) {
        for m in &self.machines {
            m.begin_run(threads, window_ns);
        }
    }

    /// Stop the world on every shard (crash snapshots of a live run).
    pub fn freeze_all(&self) {
        for m in &self.machines {
            m.freeze();
        }
    }

    /// Resume every shard after [`MachineSet::freeze_all`].
    pub fn thaw_all(&self) {
        for m in &self.machines {
            m.thaw();
        }
    }

    /// Simulated power failure across all shards: each shard yields its
    /// own media image under a per-shard derived seed (the adversary's
    /// choices stay independent and deterministic per shard).
    pub fn crash_all(&self, seed: u64) -> Vec<CrashImage> {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, m)| m.crash(seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1))))
            .collect()
    }

    /// Sum of all shards' counters.
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for m in &self.machines {
            total.merge(&m.stats.snapshot());
        }
        total
    }

    /// Zero every shard's counters (between benchmark phases).
    pub fn reset_stats(&self) {
        for m in &self.machines {
            m.stats.reset();
        }
    }

    /// The aggregate makespan: the largest virtual time reached by any
    /// thread on any shard. Open-loop aggregate throughput = total ops /
    /// this.
    pub fn max_run_time_ns(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| m.run_time_ns())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurabilityDomain, MediaKind};

    #[test]
    fn shards_are_independent_machines() {
        let set = MachineSet::new(4, MachineConfig::default());
        assert_eq!(set.len(), 4);
        // Pools allocated on one shard are invisible to the others.
        let p = set.get(0).alloc_pool("h", 64, MediaKind::Optane);
        assert_eq!(set.get(0).pools().len(), 1);
        assert_eq!(set.get(1).pools().len(), 0);
        // Timed work on shard 0 does not move shard 1's clocks or stats.
        set.begin_run_all(1, u64::MAX);
        {
            let mut s = set.get(0).session(0);
            s.store(p.addr(0), 7);
            s.clwb(p.addr(0));
            s.sfence();
            s.finish();
        }
        assert!(set.get(0).run_time_ns() > 0);
        assert_eq!(set.get(1).run_time_ns(), 0);
        assert_eq!(set.get(1).stats.snapshot().stores, 0);
    }

    #[test]
    fn aggregate_stats_sum_across_shards() {
        let set = MachineSet::new(2, MachineConfig::default());
        let p0 = set.get(0).alloc_pool("a", 64, MediaKind::Optane);
        let p1 = set.get(1).alloc_pool("b", 64, MediaKind::Optane);
        set.begin_run_all(1, u64::MAX);
        let mut s0 = set.get(0).session(0);
        let mut s1 = set.get(1).session(0);
        s0.store(p0.addr(0), 1);
        s1.store(p1.addr(0), 2);
        s1.store(p1.addr(8), 3);
        // One session retired, one still live: both count.
        drop(s0);
        let agg = set.aggregate_stats();
        assert_eq!(agg.stores, 3);
        let mut sum = StatsSnapshot::default();
        for m in set.machines() {
            sum.merge(&m.stats.snapshot());
        }
        assert_eq!(agg, sum);
        set.reset_stats();
        assert_eq!(set.aggregate_stats().stores, 0);
    }

    #[test]
    fn crash_all_yields_one_image_per_shard() {
        let set = MachineSet::new(3, MachineConfig::functional(DurabilityDomain::Adr));
        for i in 0..3 {
            set.get(i).alloc_pool("h", 64, MediaKind::Optane);
        }
        let images = set.crash_all(42);
        assert_eq!(images.len(), 3);
    }
}
