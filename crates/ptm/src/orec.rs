//! Ownership records (orecs) and the global version clock.
//!
//! The PTM algorithms coordinate speculative accesses with a DRAM-resident
//! table of versioned locks, exactly as in TL2/TinySTM and the paper's
//! orec-lazy/orec-eager algorithms. An orec value is either
//!
//! * an **even version number** — the commit timestamp of the last
//!   transaction that wrote any location striped to this orec, or
//! * an **odd lock word** — `thread_id << 1 | 1`, held by a writer.
//!
//! The table is volatile: after a crash it is reconstructed empty (all
//! versions zero), which is sound because recovery quiesces all
//! transactions first.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem_sim::{PAddr, WORDS_PER_LINE};

/// Is this orec value a lock word?
#[inline]
pub fn is_locked(v: u64) -> bool {
    v & 1 == 1
}

/// Owner thread of a lock word.
#[inline]
pub fn owner_of(v: u64) -> u64 {
    debug_assert!(is_locked(v));
    v >> 1
}

/// Lock word for a thread.
#[inline]
pub fn lock_word(tid: u64) -> u64 {
    (tid << 1) | 1
}

/// The global version clock. Versions are even; the clock advances by 2
/// per writer commit.
#[derive(Debug)]
pub struct GlobalClock(AtomicU64);

impl GlobalClock {
    pub fn new() -> Self {
        GlobalClock(AtomicU64::new(0))
    }

    /// Sample the clock (transaction begin / timestamp extension).
    #[inline]
    pub fn sample(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advance and return the new (even) commit timestamp.
    #[inline]
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(2, Ordering::AcqRel) + 2
    }
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

/// The striped orec table.
#[derive(Debug)]
pub struct OrecTable {
    orecs: Box<[AtomicU64]>,
    /// Where orec 0 sits in `orecs`: the first word on a 64-byte host
    /// boundary. Orec `i` is word `(base + i) & mask`, so every aligned
    /// group of [`WORDS_PER_LINE`] orecs but the last (which wraps) is
    /// one host line, while the table keeps its power-of-two length.
    base: usize,
    mask: u64,
}

impl OrecTable {
    /// `count` is rounded up to a power of two.
    pub fn new(count: usize) -> Self {
        let n = count.max(64).next_power_of_two();
        let orecs = pmem_sim::host::zeroed_words(n);
        let base = orecs.as_ptr().align_offset(64) % WORDS_PER_LINE;
        OrecTable {
            orecs,
            base,
            mask: n as u64 - 1,
        }
    }

    pub fn len(&self) -> usize {
        self.orecs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.orecs.is_empty()
    }

    #[inline]
    fn orec(&self, idx: u32) -> &AtomicU64 {
        &self.orecs[(self.base + idx as usize) & self.mask as usize]
    }

    /// Stripe an address onto an orec index: one orec per word, and the
    /// words of one simulated line on consecutive orecs of one aligned
    /// group of [`WORDS_PER_LINE`]. The group is a full-avalanche mix of
    /// the line number, so the pool id in the address's high bits
    /// participates. A group is 64 bytes, so a transaction that touches
    /// several words of a line reaches their orecs through one host line
    /// (DESIGN.md §5 decision 17).
    #[inline]
    pub fn index_of(&self, addr: PAddr) -> u32 {
        const SHIFT: u32 = WORDS_PER_LINE.trailing_zeros();
        let mut h = addr.0 >> SHIFT;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (((h << SHIFT) | (addr.0 & (WORDS_PER_LINE as u64 - 1))) & self.mask) as u32
    }

    /// Read an orec value.
    #[inline]
    pub fn load(&self, idx: u32) -> u64 {
        self.orec(idx).load(Ordering::Acquire)
    }

    /// Host-only hint that orec `idx` is about to be read or locked (see
    /// [`pmem_sim::host::prefetch`]).
    #[inline]
    pub fn prefetch(&self, idx: u32) {
        pmem_sim::host::prefetch(self.orec(idx));
    }

    /// Try to acquire: CAS `expected` (an even version) to this thread's
    /// lock word. Returns the observed value on failure.
    #[inline]
    pub fn try_lock(&self, idx: u32, expected: u64, tid: u64) -> Result<(), u64> {
        debug_assert!(!is_locked(expected));
        self.orec(idx)
            .compare_exchange(
                expected,
                lock_word(tid),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
    }

    /// Release a held orec to `version` (even).
    #[inline]
    pub fn release(&self, idx: u32, version: u64) {
        debug_assert!(!is_locked(version));
        self.orec(idx).store(version, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::PoolId;

    #[test]
    fn lock_word_roundtrip() {
        let w = lock_word(42);
        assert!(is_locked(w));
        assert_eq!(owner_of(w), 42);
        assert!(!is_locked(8));
    }

    #[test]
    fn clock_bumps_by_two_and_stays_even() {
        let c = GlobalClock::new();
        assert_eq!(c.sample(), 0);
        assert_eq!(c.bump(), 2);
        assert_eq!(c.bump(), 4);
        assert_eq!(c.sample(), 4);
        assert_eq!(c.sample() & 1, 0);
    }

    #[test]
    fn try_lock_and_release() {
        let t = OrecTable::new(64);
        assert_eq!(t.try_lock(5, 0, 9), Ok(()));
        assert_eq!(t.load(5), lock_word(9));
        // Second lock attempt fails and reports the lock word.
        assert_eq!(t.try_lock(5, 0, 3), Err(lock_word(9)));
        t.release(5, 10);
        assert_eq!(t.load(5), 10);
    }

    #[test]
    fn stale_version_cas_fails() {
        let t = OrecTable::new(64);
        t.release(7, 20);
        assert_eq!(t.try_lock(7, 18, 1), Err(20));
    }

    #[test]
    fn index_is_stable_and_in_range() {
        let t = OrecTable::new(1 << 10);
        let a = PAddr::new(PoolId(1), 12345);
        let i1 = t.index_of(a);
        let i2 = t.index_of(a);
        assert_eq!(i1, i2);
        assert!((i1 as usize) < t.len());
    }

    #[test]
    fn a_lines_words_fill_one_aligned_group() {
        let t = OrecTable::new(1 << 16);
        let line = WORDS_PER_LINE as u64;
        for pool in [1, 2, 77] {
            for first in (0..4096).step_by(WORDS_PER_LINE).chain([line << 30]) {
                let base = PAddr::new(PoolId(pool), first);
                let group: Vec<u32> = (0..line).map(|w| t.index_of(base.offset(w))).collect();
                let g = group[0] as u64 / line;
                for (w, &o) in group.iter().enumerate() {
                    assert_eq!(o as u64, g * line + w as u64, "{base} word {w}");
                }
            }
        }
    }

    #[test]
    fn an_orec_group_is_one_host_line() {
        for len in [64, 1 << 12, 1 << 18] {
            let t = OrecTable::new(len);
            let at = |i: usize| std::ptr::from_ref(t.orec(i as u32)) as usize;
            for g in (0..t.len() - WORDS_PER_LINE).step_by(WORDS_PER_LINE) {
                assert_eq!(at(g) % 64, 0, "group at orec {g} of {len}");
                assert_eq!(at(g + WORDS_PER_LINE - 1) - at(g), 56);
            }
        }
    }

    #[test]
    fn the_same_word_in_two_pools_lands_in_different_groups() {
        let t = OrecTable::new(1 << 16);
        let line = WORDS_PER_LINE as u32;
        let mut same = 0;
        for w in 0..4096 {
            let a = t.index_of(PAddr::new(PoolId(1), w));
            let b = t.index_of(PAddr::new(PoolId(2), w));
            same += u32::from(a / line == b / line);
        }
        // 512 lines, each a 1-in-8192 chance of sharing a group.
        assert!(same <= 2 * line, "{} words share a group", same);
    }

    /// Random words collide in pairs at the rate of a uniform table: a
    /// change that shrinks the stripe space (fewer groups, a group per
    /// pool, a lost address bit) multiplies the count.
    #[test]
    fn random_words_collide_like_a_uniform_table() {
        use rand::{Rng, SeedableRng};
        let t = OrecTable::new(1 << 18);
        let n = 1u64 << 16;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        let mut hits = vec![0u32; t.len()];
        for _ in 0..n {
            let a = PAddr::new(PoolId(rng.gen_range(1..16)), rng.gen_range(0..1 << 30));
            hits[t.index_of(a) as usize] += 1;
        }
        let pairs: u64 = hits
            .iter()
            .map(|&h| h as u64 * (h as u64).saturating_sub(1) / 2)
            .sum();
        // Expected n²/(2·len) = 8,192; the count is near-Poisson, so its
        // standard deviation is ~91. Six of them either way.
        let expect = n * n / (2 * t.len() as u64);
        assert!(
            pairs.abs_diff(expect) < 6 * 91,
            "{pairs} colliding pairs, {expect} expected"
        );
    }

    #[test]
    fn concurrent_lock_grants_exactly_one_winner() {
        let t = std::sync::Arc::new(OrecTable::new(64));
        let wins: Vec<bool> = std::thread::scope(|s| {
            (0..8u64)
                .map(|tid| {
                    let t = std::sync::Arc::clone(&t);
                    s.spawn(move || t.try_lock(3, 0, tid).is_ok())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(wins.iter().filter(|&&w| w).count(), 1);
    }
}
