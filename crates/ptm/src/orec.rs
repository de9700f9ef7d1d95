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

use pmem_sim::PAddr;

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
    mask: u64,
}

impl OrecTable {
    /// `count` is rounded up to a power of two.
    pub fn new(count: usize) -> Self {
        let n = count.max(64).next_power_of_two();
        OrecTable {
            orecs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: n as u64 - 1,
        }
    }

    pub fn len(&self) -> usize {
        self.orecs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.orecs.is_empty()
    }

    /// Stripe an address onto an orec index (full-avalanche mix so the
    /// pool id in the address's high bits participates).
    #[inline]
    pub fn index_of(&self, addr: PAddr) -> u32 {
        let mut h = addr.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h & self.mask) as u32
    }

    /// Read an orec value.
    #[inline]
    pub fn load(&self, idx: u32) -> u64 {
        self.orecs[idx as usize].load(Ordering::Acquire)
    }

    /// Host-only hint that orec `idx` is about to be read or locked (see
    /// [`pmem_sim::host::prefetch`]).
    #[inline]
    pub fn prefetch(&self, idx: u32) {
        pmem_sim::host::prefetch(&self.orecs[idx as usize]);
    }

    /// Try to acquire: CAS `expected` (an even version) to this thread's
    /// lock word. Returns the observed value on failure.
    #[inline]
    pub fn try_lock(&self, idx: u32, expected: u64, tid: u64) -> Result<(), u64> {
        debug_assert!(!is_locked(expected));
        self.orecs[idx as usize]
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
        self.orecs[idx as usize].store(version, Ordering::Release);
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
    fn adjacent_words_usually_stripe_differently() {
        let t = OrecTable::new(1 << 16);
        let base = PAddr::new(PoolId(1), 0);
        let distinct: std::collections::HashSet<u32> =
            (0..64).map(|i| t.index_of(base.offset(i))).collect();
        assert!(
            distinct.len() > 48,
            "only {} distinct stripes",
            distinct.len()
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
