//! A lightweight shared-L3 model: direct-mapped tag array with dirty bits.
//!
//! The model answers exactly two questions the simulation needs:
//!
//! 1. does this access hit in the L3 (cheap) or go to media (expensive)?
//! 2. does this access or `clwb` push a dirty line toward the media
//!    (consuming write bandwidth / WPQ slots)?
//!
//! It is deliberately direct-mapped and racy under concurrency: tag-slot
//! updates are plain atomic stores, so two threads can both observe a miss
//! on the same line. That imprecision is noise at the throughput-shape
//! level and keeps the per-access cost to a couple of atomic operations.

use std::sync::atomic::{AtomicU64, Ordering};

/// A line identity: `(pool_id << 44) | line_index`. Pool ids are small and
/// pools are far below 2^44 lines, so the packing is collision-free.
pub type LineKey = u64;

/// Build a [`LineKey`].
#[inline]
pub fn line_key(pool_id: u32, line: u64) -> LineKey {
    debug_assert!(line < 1 << 44, "pool too large for line key packing");
    ((pool_id as u64) << 44) | line
}

const VALID: u64 = 0b01;
const DIRTY: u64 = 0b10;

/// What happened on a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; fetched from media. If a dirty victim was displaced its
    /// key is returned so the caller can charge the writeback.
    Miss { dirty_victim: Option<LineKey> },
}

/// Direct-mapped tag array.
#[derive(Debug)]
pub struct CacheSim {
    slots: crate::host::Words,
    mask: u64,
}

impl CacheSim {
    /// A cache of `capacity_bytes / 64` lines, rounded up to a power of two.
    pub fn new(capacity_bytes: usize) -> Self {
        let lines = (capacity_bytes / crate::LINE_BYTES)
            .max(64)
            .next_power_of_two();
        CacheSim {
            slots: crate::host::zeroed_words(lines),
            mask: lines as u64 - 1,
        }
    }

    /// Number of line slots.
    pub fn lines(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, key: LineKey) -> &AtomicU64 {
        // Full-avalanche mix (murmur3 finalizer): every input bit —
        // including the pool id in the high bits — influences the slot. A
        // plain multiplicative hash here aliased all pools line-for-line,
        // which made the per-thread log pools thrash each other.
        let mut h = key;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        &self.slots[(h & self.mask) as usize]
    }

    /// Simulate a load or store touch of `key`.
    #[inline]
    pub fn access(&self, key: LineKey, store: bool) -> Access {
        let slot = self.slot(key);
        let cur = slot.load(Ordering::Relaxed);
        let tagged = key << 2;
        if cur & VALID != 0 && cur >> 2 == key {
            if store && cur & DIRTY == 0 {
                slot.store(tagged | VALID | DIRTY, Ordering::Relaxed);
            }
            return Access::Hit;
        }
        let dirty_victim = if cur & VALID != 0 && cur & DIRTY != 0 {
            Some(cur >> 2)
        } else {
            None
        };
        let new = tagged | VALID | if store { DIRTY } else { 0 };
        slot.store(new, Ordering::Relaxed);
        Access::Miss { dirty_victim }
    }

    /// Simulate `clwb key`: returns `true` iff the line was present and
    /// dirty (a writeback is actually issued). The line stays resident but
    /// becomes clean — `clwb`, unlike `clflush`, retains the line.
    #[inline]
    pub fn clwb(&self, key: LineKey) -> bool {
        let slot = self.slot(key);
        let cur = slot.load(Ordering::Relaxed);
        if cur & VALID != 0 && cur >> 2 == key && cur & DIRTY != 0 {
            slot.store((key << 2) | VALID, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Host-only hint that an access to `key` is coming: prefetches its
    /// tag slot (see [`crate::host::prefetch`]). Model state is untouched.
    #[inline]
    pub fn prefetch(&self, key: LineKey) {
        crate::host::prefetch(self.slot(key));
    }

    /// Whether `key` is currently resident (for tests and introspection).
    pub fn present(&self, key: LineKey) -> bool {
        let cur = self.slot(key).load(Ordering::Relaxed);
        cur & VALID != 0 && cur >> 2 == key
    }

    /// Whether `key` is resident and dirty.
    pub fn dirty(&self, key: LineKey) -> bool {
        let cur = self.slot(key).load(Ordering::Relaxed);
        cur & VALID != 0 && cur >> 2 == key && cur & DIRTY != 0
    }

    /// Drop all contents (between benchmark phases).
    pub fn clear(&self) {
        for s in self.slots.iter() {
            s.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let c = CacheSim::new(1 << 16);
        let k = line_key(1, 7);
        assert_eq!(c.access(k, false), Access::Miss { dirty_victim: None });
        assert_eq!(c.access(k, false), Access::Hit);
        assert!(c.present(k));
        assert!(!c.dirty(k));
    }

    #[test]
    fn store_marks_dirty_and_clwb_cleans() {
        let c = CacheSim::new(1 << 16);
        let k = line_key(0, 3);
        c.access(k, true);
        assert!(c.dirty(k));
        assert!(c.clwb(k)); // dirty -> writeback issued
        assert!(!c.dirty(k));
        assert!(c.present(k)); // clwb retains the line
        assert!(!c.clwb(k)); // now clean -> nothing to do
    }

    #[test]
    fn clwb_on_absent_line_is_noop() {
        let c = CacheSim::new(1 << 16);
        assert!(!c.clwb(line_key(9, 9)));
    }

    #[test]
    fn conflicting_lines_evict_dirty_victim() {
        let c = CacheSim::new(64 * 64); // 64 lines
                                        // Find two keys mapping to the same slot.
        let base = line_key(0, 0);
        c.access(base, true);
        let mut other = None;
        for i in 1..100_000u64 {
            let k = line_key(0, i);
            if std::ptr::eq(c.slot(k), c.slot(base)) {
                other = Some(k);
                break;
            }
        }
        let other = other.expect("a conflicting line must exist");
        match c.access(other, false) {
            Access::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(base)),
            Access::Hit => panic!("conflicting line cannot hit"),
        }
        assert!(!c.present(base));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let c = CacheSim::new(100 * 64);
        assert_eq!(c.lines(), 128);
    }

    #[test]
    fn distinct_pools_do_not_alias() {
        assert_ne!(line_key(1, 5), line_key(2, 5));
    }

    #[test]
    fn working_set_smaller_than_cache_mostly_hits() {
        let c = CacheSim::new(1 << 20); // 16384 lines
        let keys: Vec<_> = (0..1_000).map(|i| line_key(0, i)).collect();
        for &k in &keys {
            c.access(k, false);
        }
        let hits = keys
            .iter()
            .filter(|&&k| c.access(k, false) == Access::Hit)
            .count();
        // Direct-mapped conflicts can lose a few (including second-pass
        // eviction cascades), but the bulk must hit.
        assert!(hits > 850, "only {hits}/1000 hits");
    }

    #[test]
    fn clear_empties_cache() {
        let c = CacheSim::new(1 << 16);
        let k = line_key(0, 1);
        c.access(k, true);
        c.clear();
        assert!(!c.present(k));
    }
}
