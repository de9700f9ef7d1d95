//! A persistent chained hash table over the PTM (the TPCC "Hash Table"
//! index variant and the TATP table substrate).
//!
//! Fixed bucket count chosen at creation; collisions chain through
//! heap-allocated `[key, value, next]` nodes. Like the B+Tree, every
//! access is transactional.
//!
//! Every chain walk opens a node with [`Tx::expect_read`] over its three
//! words: a host-only hint (nothing simulated changes) that lets the
//! simulator's own lines behind the value and next-pointer reads arrive
//! with the key's instead of one miss after another.

use pmem_sim::PAddr;
use ptm::{Tx, TxResult};

/// Node layout.
const N_KEY: u64 = 0;
const N_VAL: u64 = 1;
const N_NEXT: u64 = 2;
const NODE_WORDS: usize = 3;

/// Header layout: bucket-array address, bucket count.
const H_BUCKETS: u64 = 0;
const H_NBUCKETS: u64 = 1;
pub const HEADER_WORDS: usize = 4;

/// Handle to a persistent hash map (copyable; address survives crashes).
///
/// ```
/// use pmem_sim::{Machine, MachineConfig, DurabilityDomain};
/// use palloc::PHeap;
/// use ptm::{Ptm, PtmConfig, TxThread};
/// use pstructs::PHashMap;
///
/// let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
/// let heap = PHeap::format(&m, "heap", 1 << 16, 8);
/// let mut th = TxThread::new(Ptm::new(PtmConfig::undo()), heap, m.session(0));
///
/// let map = th.run(|tx| PHashMap::create(tx, 64));
/// th.run(|tx| map.insert(tx, 1, 10).map(|_| ()));
/// th.run(|tx| map.update(tx, 1, |v| v + 5));
/// assert_eq!(th.run(|tx| map.get(tx, 1)), Some(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PHashMap {
    header: PAddr,
}

#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
}

impl PHashMap {
    /// Create with `nbuckets` chains (rounded up to a power of two).
    pub fn create(tx: &mut Tx<'_>, nbuckets: usize) -> TxResult<PHashMap> {
        let nbuckets = nbuckets.max(16).next_power_of_two();
        let header = tx.alloc(HEADER_WORDS);
        // alloc-new: the bucket array can be huge; its zero-initialization
        // bypasses the log (flushed with the commit).
        let buckets = tx.alloc_zeroed(nbuckets);
        tx.write_at(header, H_BUCKETS, buckets.0)?;
        tx.write_at(header, H_NBUCKETS, nbuckets as u64)?;
        Ok(PHashMap { header })
    }

    /// Re-attach from a persisted header address.
    pub fn from_header(header: PAddr) -> PHashMap {
        PHashMap { header }
    }

    pub fn header(&self) -> PAddr {
        self.header
    }

    /// Number of entries. O(n): walks every chain. The count is
    /// deliberately not maintained inline — a shared counter would
    /// serialize all inserts/removes through one hot word.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        let buckets = tx.read_ptr(self.header.offset(H_BUCKETS))?;
        let n = tx.read_at(self.header, H_NBUCKETS)?;
        let mut count = 0;
        for b in 0..n {
            let mut cur = tx.read_ptr(buckets.offset(b))?;
            while !cur.is_null() {
                count += 1;
                cur = tx.read_ptr(cur.offset(N_NEXT))?;
            }
        }
        Ok(count)
    }

    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    fn bucket_addr(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<PAddr> {
        let buckets = tx.read_ptr(self.header.offset(H_BUCKETS))?;
        let n = tx.read_at(self.header, H_NBUCKETS)?;
        Ok(buckets.offset(hash(key) & (n - 1)))
    }

    /// Point lookup.
    pub fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_addr(tx, key)?;
        let mut cur = tx.read_ptr(bucket)?;
        while !cur.is_null() {
            tx.expect_read(cur, NODE_WORDS as u64);
            if tx.read_at(cur, N_KEY)? == key {
                return Ok(Some(tx.read_at(cur, N_VAL)?));
            }
            cur = tx.read_ptr(cur.offset(N_NEXT))?;
        }
        Ok(None)
    }

    /// Insert or replace; returns the previous value.
    pub fn insert(&self, tx: &mut Tx<'_>, key: u64, val: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_addr(tx, key)?;
        let head = tx.read_ptr(bucket)?;
        let mut cur = head;
        while !cur.is_null() {
            tx.expect_read(cur, NODE_WORDS as u64);
            if tx.read_at(cur, N_KEY)? == key {
                let old = tx.read_at(cur, N_VAL)?;
                tx.write_at(cur, N_VAL, val)?;
                return Ok(Some(old));
            }
            cur = tx.read_ptr(cur.offset(N_NEXT))?;
        }
        let node = tx.alloc(NODE_WORDS);
        tx.write_at(node, N_KEY, key)?;
        tx.write_at(node, N_VAL, val)?;
        tx.write_ptr(node.offset(N_NEXT), head)?;
        tx.write_ptr(bucket, node)?;
        Ok(None)
    }

    /// Update an existing key with `f(old)`; returns `false` if absent.
    pub fn update(&self, tx: &mut Tx<'_>, key: u64, f: impl FnOnce(u64) -> u64) -> TxResult<bool> {
        let bucket = self.bucket_addr(tx, key)?;
        let mut cur = tx.read_ptr(bucket)?;
        while !cur.is_null() {
            tx.expect_read(cur, NODE_WORDS as u64);
            if tx.read_at(cur, N_KEY)? == key {
                let old = tx.read_at(cur, N_VAL)?;
                tx.write_at(cur, N_VAL, f(old))?;
                return Ok(true);
            }
            cur = tx.read_ptr(cur.offset(N_NEXT))?;
        }
        Ok(false)
    }

    /// Remove a key; returns its value and frees the node.
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_addr(tx, key)?;
        let mut prev: Option<PAddr> = None;
        let mut cur = tx.read_ptr(bucket)?;
        while !cur.is_null() {
            tx.expect_read(cur, NODE_WORDS as u64);
            let next = tx.read_ptr(cur.offset(N_NEXT))?;
            if tx.read_at(cur, N_KEY)? == key {
                let old = tx.read_at(cur, N_VAL)?;
                match prev {
                    Some(p) => tx.write_ptr(p.offset(N_NEXT), next)?,
                    None => tx.write_ptr(bucket, next)?,
                }
                tx.free(cur);
                return Ok(Some(old));
            }
            prev = Some(cur);
            cur = next;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palloc::PHeap;
    use pmem_sim::{DurabilityDomain, Machine, MachineConfig};
    use ptm::{Algo, Ptm, PtmConfig, TxThread};
    use std::sync::Arc;

    fn setup(algo: Algo) -> (Arc<Machine>, Arc<PHeap>, TxThread) {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
        let heap = PHeap::format(&m, "heap", 1 << 20, 8);
        let cfg = PtmConfig::with_algo(algo);
        let th = TxThread::new(Ptm::new(cfg), heap.clone(), m.session(0));
        (m, heap, th)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        for algo in Algo::ALL {
            let (_m, _h, mut th) = setup(algo);
            let map = th.run(|tx| PHashMap::create(tx, 64));
            assert_eq!(th.run(|tx| map.get(tx, 1)), None);
            assert_eq!(th.run(|tx| map.insert(tx, 1, 100)), None);
            assert_eq!(th.run(|tx| map.insert(tx, 1, 200)), Some(100));
            assert_eq!(th.run(|tx| map.get(tx, 1)), Some(200));
            assert_eq!(th.run(|tx| map.remove(tx, 1)), Some(200));
            assert_eq!(th.run(|tx| map.get(tx, 1)), None);
            assert_eq!(th.run(|tx| map.len(tx)), 0, "{algo:?}");
        }
    }

    #[test]
    fn chains_handle_collisions() {
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let map = th.run(|tx| PHashMap::create(tx, 16)); // tiny: collisions guaranteed
        for k in 0..200u64 {
            th.run(|tx| map.insert(tx, k, k * 3).map(|_| ()));
        }
        assert_eq!(th.run(|tx| map.len(tx)), 200);
        for k in 0..200u64 {
            assert_eq!(th.run(|tx| map.get(tx, k)), Some(k * 3));
        }
        // Remove from middles of chains.
        for k in (0..200u64).step_by(3) {
            assert_eq!(th.run(|tx| map.remove(tx, k)), Some(k * 3));
        }
        for k in 0..200u64 {
            let expect = (k % 3 != 0).then_some(k * 3);
            assert_eq!(th.run(|tx| map.get(tx, k)), expect);
        }
    }

    #[test]
    fn update_mutates_in_place() {
        let (_m, _h, mut th) = setup(Algo::UndoEager);
        let map = th.run(|tx| PHashMap::create(tx, 64));
        th.run(|tx| map.insert(tx, 9, 5).map(|_| ()));
        assert!(th.run(|tx| map.update(tx, 9, |v| v + 1)));
        assert_eq!(th.run(|tx| map.get(tx, 9)), Some(6));
        assert!(!th.run(|tx| map.update(tx, 404, |v| v)));
    }

    #[test]
    fn removed_nodes_are_freed() {
        let (_m, heap, mut th) = setup(Algo::RedoLazy);
        let map = th.run(|tx| PHashMap::create(tx, 64));
        th.run(|tx| map.insert(tx, 1, 1).map(|_| ()));
        let before = heap.free_blocks();
        th.run(|tx| map.remove(tx, 1).map(|_| ()));
        assert_eq!(heap.free_blocks(), before + 1);
    }

    #[test]
    fn model_check_against_std_hashmap() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let map = th.run(|tx| PHashMap::create(tx, 32));
        let mut model = std::collections::HashMap::new();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..3_000 {
            let key = rng.gen_range(0..256u64);
            match rng.gen_range(0..3) {
                0 => {
                    let v = rng.gen::<u32>() as u64;
                    assert_eq!(th.run(|tx| map.insert(tx, key, v)), model.insert(key, v));
                }
                1 => {
                    assert_eq!(th.run(|tx| map.get(tx, key)), model.get(&key).copied());
                }
                _ => {
                    assert_eq!(th.run(|tx| map.remove(tx, key)), model.remove(&key));
                }
            }
        }
        assert_eq!(th.run(|tx| map.len(tx)), model.len() as u64);
    }

    #[test]
    fn concurrent_inserts_on_disjoint_keys() {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
        let heap = PHeap::format(&m, "heap", 1 << 20, 8);
        let ptm = Ptm::new(PtmConfig::undo());
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let map = th0.run(|tx| PHashMap::create(tx, 256));
        drop(th0);
        let threads = 4usize;
        let per = 250u64;
        m.begin_run(threads, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let m = Arc::clone(&m);
                let ptm = Arc::clone(&ptm);
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    let mut th = TxThread::new(ptm, heap, m.session(tid));
                    for i in 0..per {
                        let key = (tid as u64) << 32 | i;
                        th.run(|tx| map.insert(tx, key, key).map(|_| ()));
                    }
                });
            }
        });
        m.begin_run(1, u64::MAX);
        let mut th = TxThread::new(ptm, heap, m.session(0));
        assert_eq!(th.run(|tx| map.len(tx)), threads as u64 * per);
    }
}
