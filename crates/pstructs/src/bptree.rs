//! A persistent B+Tree over the PTM (the DudeTM microbenchmark structure,
//! also used as the TPCC index).
//!
//! Fixed fanout, u64 keys and values, proactive split on descent (a full
//! child is split before entering it, so inserts never backtrack).
//! Removal takes the common benchmark shortcut of not rebalancing:
//! underfull leaves are legal and empty leaves stay linked. All node
//! accesses go through [`ptm::Tx`], so the tree is linearizable and
//! durable exactly as the PTM algorithm guarantees.
//!
//! Every node visit opens with [`Tx::expect_read`] over the whole node: a
//! host-only hint (nothing simulated changes). A binary search's next
//! probe is the outcome of this one, so no single probe can be asked for
//! ahead of time, but the node can: about five simulated lines, and the
//! orecs of each line share one host line.
//!
//! Node layout (`NODE_WORDS` = 2 + 2·B words):
//!
//! ```text
//! word 0        meta: count << 1 | is_leaf
//! words 1..1+B  keys
//! leaf:     1+B..1+2B values,  1+2B next-leaf pointer
//! internal: 1+B..2+2B children (B+1 of them)
//! ```

use pmem_sim::PAddr;
use ptm::{Tx, TxResult};

/// Maximum keys per node.
pub const B: usize = 16;
/// Words per node block.
pub const NODE_WORDS: usize = 2 + 2 * B;

const META: u64 = 0;
const KEYS: u64 = 1;
const VALS: u64 = 1 + B as u64; // leaf only
const CHILD: u64 = 1 + B as u64; // internal only (B+1 slots)
const NEXT: u64 = 1 + 2 * B as u64; // leaf only

/// Header block words.
const H_ROOT: u64 = 0;
/// Header block size.
pub const HEADER_WORDS: usize = 4;

#[inline]
fn meta(count: usize, leaf: bool) -> u64 {
    ((count as u64) << 1) | leaf as u64
}

/// A handle to a persistent B+Tree: just the address of its header block,
/// cheap to copy and valid across crashes (store it in a heap root).
///
/// ```
/// use pmem_sim::{Machine, MachineConfig, DurabilityDomain};
/// use palloc::PHeap;
/// use ptm::{Ptm, PtmConfig, TxThread};
/// use pstructs::BpTree;
///
/// let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
/// let heap = PHeap::format(&m, "heap", 1 << 16, 8);
/// let mut th = TxThread::new(Ptm::new(PtmConfig::redo()), heap, m.session(0));
///
/// let tree = th.run(BpTree::create);
/// th.run(|tx| tree.insert(tx, 7, 700).map(|_| ()));
/// assert_eq!(th.run(|tx| tree.get(tx, 7)), Some(700));
/// assert_eq!(th.run(|tx| tree.remove(tx, 7)), Some(700));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpTree {
    header: PAddr,
}

impl BpTree {
    /// Create an empty tree inside the current transaction.
    pub fn create(tx: &mut Tx<'_>) -> TxResult<BpTree> {
        let header = tx.alloc(HEADER_WORDS);
        let root = tx.alloc(NODE_WORDS);
        tx.write_at(root, META, meta(0, true))?;
        tx.write_at(root, NEXT, 0)?;
        tx.write_at(header, H_ROOT, root.0)?;
        Ok(BpTree { header })
    }

    /// Re-attach to a tree whose header address was persisted (e.g. in a
    /// heap root slot).
    pub fn from_header(header: PAddr) -> BpTree {
        BpTree { header }
    }

    /// The persistent header address (store this in a root slot).
    pub fn header(&self) -> PAddr {
        self.header
    }

    /// Number of key/value pairs. O(n): walks the leaf chain. The count
    /// is deliberately **not** maintained in the header — a shared
    /// counter would serialize every insert/remove through one word,
    /// which no benchmark-grade tree does.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        Ok(self.scan_all(tx)?.len() as u64)
    }

    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    #[inline]
    fn node_count_leaf(tx: &mut Tx<'_>, node: PAddr) -> TxResult<(usize, bool)> {
        tx.expect_read(node, NODE_WORDS as u64);
        let m = tx.read_at(node, META)?;
        Ok(((m >> 1) as usize, m & 1 == 1))
    }

    /// Binary search for the first slot in `node` whose key is >= `key`.
    fn lower_bound(tx: &mut Tx<'_>, node: PAddr, count: usize, key: u64) -> TxResult<usize> {
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = tx.read_at(node, KEYS + mid as u64)?;
            if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Child index to descend into: number of keys <= `key` (separator k
    /// sends key >= k to the right).
    fn child_index(tx: &mut Tx<'_>, node: PAddr, count: usize, key: u64) -> TxResult<usize> {
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = tx.read_at(node, KEYS + mid as u64)?;
            if key >= k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Point lookup.
    pub fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let mut node = tx.read_ptr(self.header.offset(H_ROOT))?;
        loop {
            let (count, leaf) = Self::node_count_leaf(tx, node)?;
            if leaf {
                let pos = Self::lower_bound(tx, node, count, key)?;
                if pos < count && tx.read_at(node, KEYS + pos as u64)? == key {
                    return Ok(Some(tx.read_at(node, VALS + pos as u64)?));
                }
                return Ok(None);
            }
            let ci = Self::child_index(tx, node, count, key)?;
            node = PAddr(tx.read_at(node, CHILD + ci as u64)?);
        }
    }

    /// Insert or replace; returns the previous value if the key existed.
    pub fn insert(&self, tx: &mut Tx<'_>, key: u64, val: u64) -> TxResult<Option<u64>> {
        let root = tx.read_ptr(self.header.offset(H_ROOT))?;
        let (rcount, rleaf) = Self::node_count_leaf(tx, root)?;
        let mut cur = if rcount == B {
            // Grow the tree: new root with the old root as its only child.
            let new_root = tx.alloc(NODE_WORDS);
            tx.write_at(new_root, META, meta(0, false))?;
            tx.write_at(new_root, CHILD, root.0)?;
            tx.write_ptr(self.header.offset(H_ROOT), new_root)?;
            Self::split_child(tx, new_root, 0, root, rleaf)?;
            new_root
        } else {
            root
        };
        loop {
            let (count, leaf) = Self::node_count_leaf(tx, cur)?;
            if leaf {
                let pos = Self::lower_bound(tx, cur, count, key)?;
                if pos < count && tx.read_at(cur, KEYS + pos as u64)? == key {
                    let old = tx.read_at(cur, VALS + pos as u64)?;
                    tx.write_at(cur, VALS + pos as u64, val)?;
                    return Ok(Some(old));
                }
                // Shift right and insert.
                for i in (pos..count).rev() {
                    let k = tx.read_at(cur, KEYS + i as u64)?;
                    let v = tx.read_at(cur, VALS + i as u64)?;
                    tx.write_at(cur, KEYS + i as u64 + 1, k)?;
                    tx.write_at(cur, VALS + i as u64 + 1, v)?;
                }
                tx.write_at(cur, KEYS + pos as u64, key)?;
                tx.write_at(cur, VALS + pos as u64, val)?;
                tx.write_at(cur, META, meta(count + 1, true))?;
                return Ok(None);
            }
            let mut ci = Self::child_index(tx, cur, count, key)?;
            let mut child = PAddr(tx.read_at(cur, CHILD + ci as u64)?);
            let (ccount, cleaf) = Self::node_count_leaf(tx, child)?;
            if ccount == B {
                Self::split_child(tx, cur, ci, child, cleaf)?;
                // Re-route: the separator key now at `ci` decides.
                let sep = tx.read_at(cur, KEYS + ci as u64)?;
                if key >= sep {
                    ci += 1;
                }
                child = PAddr(tx.read_at(cur, CHILD + ci as u64)?);
            }
            cur = child;
        }
    }

    /// Split the full `child` (at `parent`'s slot `ci`) into two nodes,
    /// promoting a separator into `parent`. `parent` must not be full.
    fn split_child(
        tx: &mut Tx<'_>,
        parent: PAddr,
        ci: usize,
        child: PAddr,
        child_is_leaf: bool,
    ) -> TxResult<()> {
        let (pcount, pleaf) = Self::node_count_leaf(tx, parent)?;
        debug_assert!(!pleaf && pcount < B);
        let right = tx.alloc(NODE_WORDS);
        let mid = B / 2;
        let sep;
        if child_is_leaf {
            // Right leaf takes keys[mid..B]; separator = its first key.
            let rcount = B - mid;
            for i in 0..rcount {
                let k = tx.read_at(child, KEYS + (mid + i) as u64)?;
                let v = tx.read_at(child, VALS + (mid + i) as u64)?;
                tx.write_at(right, KEYS + i as u64, k)?;
                tx.write_at(right, VALS + i as u64, v)?;
            }
            sep = tx.read_at(right, KEYS)?;
            let next = tx.read_at(child, NEXT)?;
            tx.write_at(right, NEXT, next)?;
            tx.write_at(child, NEXT, right.0)?;
            tx.write_at(right, META, meta(rcount, true))?;
            tx.write_at(child, META, meta(mid, true))?;
        } else {
            // Internal: promote keys[mid]; right takes keys[mid+1..] and
            // children[mid+1..].
            sep = tx.read_at(child, KEYS + mid as u64)?;
            let rcount = B - mid - 1;
            for i in 0..rcount {
                let k = tx.read_at(child, KEYS + (mid + 1 + i) as u64)?;
                tx.write_at(right, KEYS + i as u64, k)?;
            }
            for i in 0..=rcount {
                let c = tx.read_at(child, CHILD + (mid + 1 + i) as u64)?;
                tx.write_at(right, CHILD + i as u64, c)?;
            }
            tx.write_at(right, META, meta(rcount, false))?;
            tx.write_at(child, META, meta(mid, false))?;
        }
        // Make room in the parent at slot ci.
        for i in (ci..pcount).rev() {
            let k = tx.read_at(parent, KEYS + i as u64)?;
            tx.write_at(parent, KEYS + i as u64 + 1, k)?;
        }
        for i in (ci + 1..=pcount).rev() {
            let c = tx.read_at(parent, CHILD + i as u64)?;
            tx.write_at(parent, CHILD + i as u64 + 1, c)?;
        }
        tx.write_at(parent, KEYS + ci as u64, sep)?;
        tx.write_at(parent, CHILD + ci as u64 + 1, right.0)?;
        tx.write_at(parent, META, meta(pcount + 1, false))?;
        Ok(())
    }

    /// Remove a key; returns its value if present. Leaves may underflow
    /// (no rebalancing — the standard benchmark simplification).
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let mut node = tx.read_ptr(self.header.offset(H_ROOT))?;
        loop {
            let (count, leaf) = Self::node_count_leaf(tx, node)?;
            if leaf {
                let pos = Self::lower_bound(tx, node, count, key)?;
                if pos < count && tx.read_at(node, KEYS + pos as u64)? == key {
                    let old = tx.read_at(node, VALS + pos as u64)?;
                    for i in pos + 1..count {
                        let k = tx.read_at(node, KEYS + i as u64)?;
                        let v = tx.read_at(node, VALS + i as u64)?;
                        tx.write_at(node, KEYS + i as u64 - 1, k)?;
                        tx.write_at(node, VALS + i as u64 - 1, v)?;
                    }
                    tx.write_at(node, META, meta(count - 1, true))?;
                    return Ok(Some(old));
                }
                return Ok(None);
            }
            let ci = Self::child_index(tx, node, count, key)?;
            node = PAddr(tx.read_at(node, CHILD + ci as u64)?);
        }
    }

    /// In-order key/value scan via the leaf chain (tests, debugging).
    pub fn scan_all(&self, tx: &mut Tx<'_>) -> TxResult<Vec<(u64, u64)>> {
        // Find the leftmost leaf.
        let mut node = tx.read_ptr(self.header.offset(H_ROOT))?;
        loop {
            let (_, leaf) = Self::node_count_leaf(tx, node)?;
            if leaf {
                break;
            }
            node = PAddr(tx.read_at(node, CHILD)?);
        }
        let mut out = Vec::new();
        loop {
            let (count, _) = Self::node_count_leaf(tx, node)?;
            for i in 0..count {
                out.push((
                    tx.read_at(node, KEYS + i as u64)?,
                    tx.read_at(node, VALS + i as u64)?,
                ));
            }
            let next = tx.read_at(node, NEXT)?;
            if next == 0 {
                return Ok(out);
            }
            node = PAddr(next);
        }
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
        let ptm = Ptm::new(cfg);
        let th = TxThread::new(ptm, heap.clone(), m.session(0));
        (m, heap, th)
    }

    #[test]
    fn empty_tree_lookups_miss() {
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let t = th.run(BpTree::create);
        let r = th.run(|tx| t.get(tx, 42));
        assert_eq!(r, None);
        assert_eq!(th.run(|tx| t.len(tx)), 0);
    }

    #[test]
    fn insert_get_roundtrip_with_splits() {
        for algo in Algo::ALL {
            let (_m, _h, mut th) = setup(algo);
            let t = th.run(BpTree::create);
            let n = 500u64;
            for k in 0..n {
                let key = (k * 2654435761) % 10_000; // scrambled inserts
                th.run(|tx| t.insert(tx, key, key * 10).map(|_| ()));
            }
            for k in 0..n {
                let key = (k * 2654435761) % 10_000;
                let v = th.run(|tx| t.get(tx, key));
                assert_eq!(v, Some(key * 10), "{algo:?} key {key}");
            }
            assert_eq!(th.run(|tx| t.get(tx, 10_001)), None);
        }
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let t = th.run(BpTree::create);
        assert_eq!(th.run(|tx| t.insert(tx, 7, 1)), None);
        assert_eq!(th.run(|tx| t.insert(tx, 7, 2)), Some(1));
        assert_eq!(th.run(|tx| t.get(tx, 7)), Some(2));
        assert_eq!(th.run(|tx| t.len(tx)), 1);
    }

    #[test]
    fn remove_works_and_tolerates_missing() {
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let t = th.run(BpTree::create);
        for k in 0..200u64 {
            th.run(|tx| t.insert(tx, k, k).map(|_| ()));
        }
        for k in (0..200u64).step_by(2) {
            assert_eq!(th.run(|tx| t.remove(tx, k)), Some(k));
        }
        assert_eq!(th.run(|tx| t.remove(tx, 0)), None);
        assert_eq!(th.run(|tx| t.len(tx)), 100);
        for k in 0..200u64 {
            let expect = (k % 2 == 1).then_some(k);
            assert_eq!(th.run(|tx| t.get(tx, k)), expect, "key {k}");
        }
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let t = th.run(BpTree::create);
        let keys = [50u64, 10, 90, 30, 70, 20, 80, 40, 60, 0];
        for &k in &keys {
            th.run(|tx| t.insert(tx, k, k + 1).map(|_| ()));
        }
        let scan = th.run(|tx| t.scan_all(tx));
        let got_keys: Vec<u64> = scan.iter().map(|&(k, _)| k).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got_keys, want);
        for (k, v) in scan {
            assert_eq!(v, k + 1);
        }
    }

    #[test]
    fn sequential_inserts_build_deep_tree() {
        let (_m, _h, mut th) = setup(Algo::RedoLazy);
        let t = th.run(BpTree::create);
        let n = 3_000u64;
        for k in 0..n {
            th.run(|tx| t.insert(tx, k, !k).map(|_| ()));
        }
        assert_eq!(th.run(|tx| t.len(tx)), n);
        for k in (0..n).step_by(97) {
            assert_eq!(th.run(|tx| t.get(tx, k)), Some(!k));
        }
        let scan = th.run(|tx| t.scan_all(tx));
        assert_eq!(scan.len() as u64, n);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn model_check_against_btreemap() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for algo in Algo::ALL {
            let (_m, _h, mut th) = setup(algo);
            let t = th.run(BpTree::create);
            let mut model = std::collections::BTreeMap::new();
            let mut rng = SmallRng::seed_from_u64(12345);
            for _ in 0..4_000 {
                let key = rng.gen_range(0..512u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let v = rng.gen::<u32>() as u64;
                        let got = th.run(|tx| t.insert(tx, key, v));
                        assert_eq!(got, model.insert(key, v), "{algo:?} insert {key}");
                    }
                    1 => {
                        let got = th.run(|tx| t.get(tx, key));
                        assert_eq!(got, model.get(&key).copied(), "{algo:?} get {key}");
                    }
                    _ => {
                        let got = th.run(|tx| t.remove(tx, key));
                        assert_eq!(got, model.remove(&key), "{algo:?} remove {key}");
                    }
                }
            }
            assert_eq!(th.run(|tx| t.len(tx)), model.len() as u64);
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
        let heap = PHeap::format(&m, "heap", 1 << 20, 8);
        let ptm = Ptm::new(PtmConfig::redo());
        let mut th0 = TxThread::new(ptm.clone(), heap.clone(), m.session(0));
        let t = th0.run(BpTree::create);
        drop(th0);
        let threads = 4usize;
        let per = 300u64;
        m.begin_run(threads, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let m = Arc::clone(&m);
                let ptm = Arc::clone(&ptm);
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    let mut th = TxThread::new(ptm, heap, m.session(tid));
                    for i in 0..per {
                        let key = tid as u64 * 1_000_000 + i;
                        th.run(|tx| t.insert(tx, key, key).map(|_| ()));
                    }
                });
            }
        });
        m.begin_run(1, u64::MAX);
        let mut th = TxThread::new(ptm, heap, m.session(0));
        assert_eq!(th.run(|tx| t.len(tx)), threads as u64 * per);
        for tid in 0..threads {
            for i in (0..per).step_by(37) {
                let key = tid as u64 * 1_000_000 + i;
                assert_eq!(th.run(|tx| t.get(tx, key)), Some(key));
            }
        }
    }
}
