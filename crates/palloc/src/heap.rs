//! The persistent heap: allocation fast paths and the root table.
//!
//! Concurrency note: the volatile bookkeeping (bump pointer, free lists)
//! is guarded by a mutex, but **no simulated-time operation happens while
//! the mutex is held** — a thread throttled by the virtual-clock window
//! must never hold a lock that a behind-schedule thread needs. Fresh-block
//! headers are therefore persisted with untimed pool operations inside the
//! critical section (preserving the crash-ordering invariant: a header is
//! durable before its block can be reused or reached), and the modeled
//! cost of the header store + `clwb` + `sfence` is charged to the caller's
//! clock after the lock is released.

use std::sync::{Arc, Mutex};

use pmem_sim::{Machine, MemSession, PAddr, PmemPool};

use crate::classes::{class_index, class_words, NUM_CLASSES};
use crate::gc::{self, GcReport};
use crate::layout::{
    decode_header, encode_header, heap_start, HEAP_MAGIC, OFF_LEN, OFF_MAGIC, OFF_ROOTS,
    OFF_ROOTS_LEN, TAG_FREE, TAG_LIVE,
};

/// Why [`PHeap::attach`] refused a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The pool does not begin with [`HEAP_MAGIC`].
    BadMagic(u64),
    /// The recorded length does not match the pool.
    LengthMismatch { recorded: u64, actual: u64 },
    /// The recorded root count puts the root table past the pool end.
    RootsOverrun { roots: u64, len: u64 },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::BadMagic(m) => write!(f, "bad heap magic {m:#x}"),
            AttachError::LengthMismatch { recorded, actual } => {
                write!(
                    f,
                    "heap length mismatch: header says {recorded}, pool has {actual}"
                )
            }
            AttachError::RootsOverrun { roots, len } => {
                write!(f, "{roots} root slots overrun the pool ({len} words)")
            }
        }
    }
}

impl std::error::Error for AttachError {}

pub(crate) struct Inner {
    /// Next unallocated word (a header position).
    pub bump: u64,
    /// Per-class stacks of reusable data-word offsets.
    pub free: Vec<Vec<u64>>,
}

/// A persistent heap inside one pool.
///
/// ```
/// use pmem_sim::{Machine, MachineConfig, DurabilityDomain};
/// use palloc::PHeap;
///
/// let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
/// let heap = PHeap::format(&m, "heap", 1 << 14, 4);
/// let mut s = m.session(0);
///
/// let block = heap.alloc(&mut s, 10);
/// s.store(block, 42);
/// heap.set_root(&mut s, 0, block);         // anchor it for recovery
///
/// // After a crash: reboot, re-attach (GC reclaims anything unrooted).
/// let image = m.crash(0);
/// let m2 = Machine::reboot(&image, MachineConfig::functional(DurabilityDomain::Eadr));
/// let (heap2, report) = PHeap::attach(m2.pool(heap.pool().id())).unwrap();
/// assert_eq!(report.live_blocks, 1);
/// assert_eq!(heap2.pool().raw_load(heap2.root_raw(0).word()), 42);
/// ```
pub struct PHeap {
    pool: Arc<PmemPool>,
    start: u64,
    roots: usize,
    inner: Mutex<Inner>,
}

impl PHeap {
    /// Create and format a fresh heap of `len_words` with `roots` root
    /// slots. Formatting is a setup-time operation and is untimed.
    pub fn format(
        machine: &Arc<Machine>,
        name: &str,
        len_words: usize,
        roots: usize,
    ) -> Arc<PHeap> {
        Self::format_with_media(machine, name, len_words, roots, pmem_sim::MediaKind::Optane)
    }

    /// Like [`PHeap::format`] but with an explicit backing media — the
    /// paper's DRAM-ramdisk baseline places the "persistent" heap in DRAM.
    pub fn format_with_media(
        machine: &Arc<Machine>,
        name: &str,
        len_words: usize,
        roots: usize,
        media: pmem_sim::MediaKind,
    ) -> Arc<PHeap> {
        let pool = machine.alloc_pool(name, len_words, media);
        let start = heap_start(roots as u64)
            .filter(|&s| (s as usize) < pool.len_words())
            .expect("heap too small for its root table");
        pool.raw_store(OFF_MAGIC, HEAP_MAGIC);
        pool.raw_store(OFF_LEN, pool.len_words() as u64);
        pool.raw_store(OFF_ROOTS_LEN, roots as u64);
        for line in 0..start / pmem_sim::WORDS_PER_LINE as u64 {
            pool.persist_line_now(line);
        }
        Arc::new(PHeap {
            pool,
            start,
            roots,
            inner: Mutex::new(Inner {
                bump: start,
                free: vec![Vec::new(); NUM_CLASSES],
            }),
        })
    }

    /// Attach to (recover) a previously formatted heap, typically after
    /// [`Machine::reboot`]. Runs the conservative mark-sweep GC on the
    /// calling thread to rebuild the volatile free lists and reclaim
    /// leaked blocks, and returns the heap only once they are installed:
    /// the one attach path, Makalu's offline recovery GC. Untimed:
    /// recovery happens outside measured execution.
    pub fn attach(pool: Arc<PmemPool>) -> Result<(Arc<PHeap>, GcReport), AttachError> {
        let (start, roots) = Self::check_header(&pool)?;
        let (inner, report) = gc::recover(&pool, start, roots);
        Ok((
            Arc::new(PHeap {
                pool,
                start,
                roots,
                inner: Mutex::new(inner),
            }),
            report,
        ))
    }

    fn check_header(pool: &Arc<PmemPool>) -> Result<(u64, usize), AttachError> {
        let magic = pool.raw_load(OFF_MAGIC);
        if magic != HEAP_MAGIC {
            return Err(AttachError::BadMagic(magic));
        }
        let recorded = pool.raw_load(OFF_LEN);
        if recorded != pool.len_words() as u64 {
            return Err(AttachError::LengthMismatch {
                recorded,
                actual: pool.len_words() as u64,
            });
        }
        // The GC's mark reads every root slot: a corrupt count must not
        // send it past the pool end.
        let roots = pool.raw_load(OFF_ROOTS_LEN);
        match heap_start(roots) {
            Some(start) if start <= recorded => Ok((start, roots as usize)),
            _ => Err(AttachError::RootsOverrun {
                roots,
                len: recorded,
            }),
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// First allocatable word.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Allocate `words` data words; returns the address of the first data
    /// word. Contents of reused blocks are unspecified (see
    /// [`PHeap::alloc_zeroed`]).
    ///
    /// # Panics
    /// Panics when the heap is exhausted.
    pub fn alloc(&self, s: &mut MemSession, words: usize) -> PAddr {
        let class = class_words(words);
        let idx = class_index(class);
        enum Got {
            Reused(u64),
            Fresh(u64),
        }
        let got = {
            let mut inner = self.inner.lock().unwrap();
            if let Some(data) = inner.free[idx].pop() {
                Got::Reused(data)
            } else {
                let hdr = inner.bump;
                let end = hdr + 1 + class as u64;
                assert!(
                    (end as usize) <= self.pool.len_words(),
                    "persistent heap `{}` exhausted ({} words requested)",
                    self.pool.name(),
                    class
                );
                // Untimed header persist inside the lock: durable before
                // the block can become reachable (see module docs).
                self.pool.raw_store(hdr, encode_header(TAG_LIVE, class));
                self.pool
                    .persist_line_now(hdr / pmem_sim::WORDS_PER_LINE as u64);
                inner.bump = end;
                Got::Fresh(hdr + 1)
            }
        };
        match got {
            Got::Reused(data) => {
                // Reused block: flip the tag back to live (timed; no fence
                // needed — GC liveness is reachability, the tag is advisory).
                s.store(self.pool.addr(data - 1), encode_header(TAG_LIVE, class));
                self.pool.addr(data)
            }
            Got::Fresh(data) => {
                // Charge the modeled cost of the header store+clwb+sfence
                // performed under the lock.
                let m = s.machine().model();
                let cost = m.store_hit_ns + m.clwb_optane_ns + m.sfence_ns;
                s.advance(cost);
                self.pool.addr(data)
            }
        }
    }

    /// Allocate and zero `words` data words (timed stores).
    pub fn alloc_zeroed(&self, s: &mut MemSession, words: usize) -> PAddr {
        let addr = self.alloc(s, words);
        for i in 0..words as u64 {
            s.store(addr.offset(i), 0);
        }
        addr
    }

    /// Return a block to the allocator.
    ///
    /// # Panics
    /// Panics on double free or on an address that is not a block start.
    pub fn free(&self, s: &mut MemSession, addr: PAddr) {
        assert_eq!(addr.pool(), self.pool.id(), "free of foreign address");
        let hdr_word = addr.word() - 1;
        let (tag, class) = decode_header(self.pool.raw_load(hdr_word))
            .unwrap_or_else(|| panic!("free({addr}): not a block start"));
        assert_eq!(tag, TAG_LIVE, "double free of {addr}");
        s.store(self.pool.addr(hdr_word), encode_header(TAG_FREE, class));
        let mut inner = self.inner.lock().unwrap();
        inner.free[class_index(class)].push(addr.word());
    }

    /// Data size class of the block at `addr`, in words.
    pub fn block_words(&self, addr: PAddr) -> usize {
        decode_header(self.pool.raw_load(addr.word() - 1))
            .unwrap_or_else(|| panic!("block_words({addr}): not a block start"))
            .1
    }

    /// Store a persistent root pointer (flushed and fenced: roots are the
    /// GC's anchor and must always be durable).
    pub fn set_root(&self, s: &mut MemSession, slot: usize, value: PAddr) {
        assert!(slot < self.roots, "root slot {slot} out of range");
        let addr = self.pool.addr(OFF_ROOTS + slot as u64);
        s.store(addr, value.0);
        s.clwb(addr);
        s.sfence();
    }

    /// Load a persistent root pointer (timed).
    pub fn root(&self, s: &mut MemSession, slot: usize) -> PAddr {
        assert!(slot < self.roots, "root slot {slot} out of range");
        PAddr(s.load(self.pool.addr(OFF_ROOTS + slot as u64)))
    }

    /// Untimed root read (recovery / assertions).
    pub fn root_raw(&self, slot: usize) -> PAddr {
        assert!(slot < self.roots, "root slot {slot} out of range");
        PAddr(self.pool.raw_load(OFF_ROOTS + slot as u64))
    }

    /// Exhaustive consistency check of the persistent header chain
    /// against the volatile bookkeeping. O(heap) time, O(free entries)
    /// memory; meant for crash harnesses and tests, not hot paths.
    ///
    /// Checks that headers parse cleanly from the heap start up to the
    /// bump pointer, and that every free-list entry is the data start of
    /// a scanned block of the matching size class, with no duplicates.
    /// (Free-list entries may still carry a live tag: the restart GC
    /// reclaims leaked blocks without rewriting their headers.) The free
    /// entries are sorted by address and merged against the one walk of
    /// the chain; a chain error is reported ahead of a free-list error.
    pub fn validate(&self) -> Result<(), String> {
        let inner = self.inner.lock().unwrap();
        let len = self.pool.len_words() as u64;
        let mut entries: Vec<(u64, usize)> = inner
            .free
            .iter()
            .enumerate()
            .flat_map(|(idx, list)| list.iter().map(move |&data| (data, idx)))
            .collect();
        entries.sort_unstable();
        let mut free_err = entries
            .windows(2)
            .find(|pair| pair[0].0 == pair[1].0)
            .map(|pair| format!("block {} appears twice on free lists", pair[0].0));
        let mut pending = entries.iter().peekable();
        let mut cursor = self.start;
        while cursor < inner.bump {
            let word = self.pool.raw_load(cursor);
            let Some((_tag, class)) = decode_header(word) else {
                return Err(format!(
                    "word {cursor} below bump {} is not a block header ({word:#x})",
                    inner.bump
                ));
            };
            if cursor + 1 + class as u64 > len {
                // The overrun that used to panic the mark phase: a
                // corrupted class word claiming words past the pool end.
                return Err(format!(
                    "block header at {cursor} (class {class}) overruns the pool ({len} words)"
                ));
            }
            let data = cursor + 1;
            // An entry below this block's data start lies inside an
            // earlier block or on this header.
            while let Some(&(entry, idx)) = pending.next_if(|e| e.0 <= data) {
                let err = if entry != data {
                    format!("free-list entry {entry} is not a block start")
                } else if class_index(class) != idx {
                    format!("free-list entry {entry} has class {class}, filed under index {idx}")
                } else {
                    continue;
                };
                free_err.get_or_insert(err);
            }
            cursor = data + class as u64;
        }
        if cursor != inner.bump {
            return Err(format!(
                "header chain ends at {cursor}, bump pointer says {} \
                 (a class word overrunning into a neighbouring block skews the chain)",
                inner.bump
            ));
        }
        if let Some(&&(entry, _)) = pending.peek() {
            free_err.get_or_insert(format!("free-list entry {entry} is not a block start"));
        }
        free_err.map_or(Ok(()), Err)
    }

    /// Total words currently consumed from the bump region.
    pub fn high_water_words(&self) -> u64 {
        self.inner.lock().unwrap().bump - self.start
    }

    /// Number of blocks currently on free lists (tests/introspection).
    pub fn free_blocks(&self) -> usize {
        self.inner.lock().unwrap().free.iter().map(Vec::len).sum()
    }

    /// Occupancy snapshot: bump watermark, free-list totals, and the
    /// per-class free counts (fragmentation diagnosis).
    pub fn stats(&self) -> HeapStats {
        let inner = self.inner.lock().unwrap();
        let mut per_class = Vec::new();
        let mut free_words = 0u64;
        for (idx, list) in inner.free.iter().enumerate() {
            if !list.is_empty() {
                let class = crate::classes::index_class(idx);
                per_class.push((class, list.len()));
                free_words += (class * list.len()) as u64;
            }
        }
        HeapStats {
            total_words: self.pool.len_words() as u64,
            high_water_words: inner.bump - self.start,
            free_blocks: per_class.iter().map(|&(_, n)| n as u64).sum(),
            free_words,
            per_class,
        }
    }
}

/// Snapshot of a heap's occupancy (see [`PHeap::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Pool size in words.
    pub total_words: u64,
    /// Words ever carved from the bump region (headers included).
    pub high_water_words: u64,
    /// Blocks currently reusable.
    pub free_blocks: u64,
    /// Data words currently reusable.
    pub free_words: u64,
    /// (class size, count) for each non-empty free list.
    pub per_class: Vec<(usize, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{DurabilityDomain, MachineConfig};

    fn setup() -> (Arc<Machine>, Arc<PHeap>) {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let h = PHeap::format(&m, "heap", 1 << 16, 8);
        (m, h)
    }

    #[test]
    fn alloc_returns_distinct_in_bounds_blocks() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 10);
        let b = h.alloc(&mut s, 10);
        assert_ne!(a, b);
        assert!(a.word() >= h.start());
        assert_eq!(h.block_words(a), 12); // class-rounded
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 16);
        h.free(&mut s, a);
        let b = h.alloc(&mut s, 16);
        assert_eq!(a, b, "same class must reuse the freed block");
    }

    #[test]
    fn different_classes_do_not_reuse() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 4);
        h.free(&mut s, a);
        let b = h.alloc(&mut s, 64);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        h.free(&mut s, a);
        h.free(&mut s, a);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let h = PHeap::format(&m, "tiny", 256, 4);
        let mut s = m.session(0);
        loop {
            h.alloc(&mut s, 32);
        }
    }

    #[test]
    fn alloc_zeroed_zeroes_reused_contents() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        for i in 0..8 {
            s.store(a.offset(i), 0xDEAD);
        }
        h.free(&mut s, a);
        let b = h.alloc_zeroed(&mut s, 8);
        assert_eq!(b, a);
        for i in 0..8 {
            assert_eq!(s.load(b.offset(i)), 0);
        }
    }

    #[test]
    fn roots_roundtrip_and_persist() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        h.set_root(&mut s, 3, a);
        assert_eq!(h.root(&mut s, 3), a);
        assert_eq!(h.root_raw(3), a);
        // Durable: present in the shadow.
        let shadow = h.pool().shadow().unwrap();
        assert_eq!(shadow.load(OFF_ROOTS + 3), a.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn root_slot_bounds_checked() {
        let (m, h) = setup();
        let mut s = m.session(0);
        h.set_root(&mut s, 99, PAddr::NULL);
    }

    #[test]
    fn header_is_durable_before_block_use() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let shadow = h.pool().shadow().unwrap();
        let hdr = shadow.load(a.word() - 1);
        assert_eq!(decode_header(hdr).map(|(_, w)| w), Some(8));
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let h = PHeap::format(&m, "heap", 1 << 18, 4);
        m.begin_run(4, u64::MAX);
        let addrs: Vec<Vec<PAddr>> = std::thread::scope(|scope| {
            (0..4)
                .map(|tid| {
                    let m = Arc::clone(&m);
                    let h = Arc::clone(&h);
                    scope.spawn(move || {
                        let mut s = m.session(tid);
                        (0..500).map(|i| h.alloc(&mut s, 1 + i % 20)).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        let mut all: Vec<u64> = addrs.iter().flatten().map(|a| a.word()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no block handed out twice");
    }

    #[test]
    fn stats_reflect_occupancy() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 10); // class 12
        let b = h.alloc(&mut s, 30); // class 32
        h.free(&mut s, a);
        let st = h.stats();
        assert_eq!(st.high_water_words, (12 + 1) + (32 + 1));
        assert_eq!(st.free_blocks, 1);
        assert_eq!(st.free_words, 12);
        assert_eq!(st.per_class, vec![(12, 1)]);
        let _ = b;
    }

    #[test]
    fn validate_accepts_live_and_attached_heaps() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 10);
        let b = h.alloc(&mut s, 30);
        h.free(&mut s, a);
        h.set_root(&mut s, 0, b);
        h.validate().unwrap();
        // After crash + GC attach (which leaves stale tags on reclaimed
        // blocks) the heap must still validate.
        let img = m.crash(0);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
        let (h2, _) = PHeap::attach(m2.pool(h.pool().id())).unwrap();
        h2.validate().unwrap();
    }

    #[test]
    fn validate_rejects_corrupted_headers() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 10);
        h.pool().raw_store(a.word() - 1, u64::MAX); // smash the header
        let err = h.validate().unwrap_err();
        assert!(err.contains("not a block header"), "{err}");
    }

    #[test]
    fn validate_rejects_overrunning_class() {
        // A corrupted class word overrunning the pool used to index out
        // of bounds in the GC; validate must now name the overrun.
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 10);
        h.pool().raw_store(
            a.word() - 1,
            crate::layout::encode_header(TAG_LIVE, h.pool().len_words()),
        );
        let err = h.validate().unwrap_err();
        assert!(err.contains("overruns the pool"), "{err}");
    }

    #[test]
    fn validate_rejects_overlap_into_next_block() {
        // A class word overrunning *into the next block* skews the chain
        // off the bump pointer; validate must catch the mismatch.
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let _b = h.alloc(&mut s, 8);
        h.pool()
            .raw_store(a.word() - 1, encode_header(TAG_LIVE, 8 + 4));
        let err = h.validate().unwrap_err();
        assert!(
            err.contains("not a block header") || err.contains("skews the chain"),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_chain_bump_mismatch() {
        // The last block's class grows, still inside the pool: the chain
        // now ends past the bump pointer.
        let (m, h) = setup();
        let mut s = m.session(0);
        let _a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        h.pool()
            .raw_store(b.word() - 1, encode_header(TAG_LIVE, 16));
        let err = h.validate().unwrap_err();
        assert!(err.contains("skews the chain"), "{err}");
    }

    /// File `data` on free list `idx` behind the allocator's back.
    fn file_free(h: &PHeap, idx: usize, data: u64) {
        h.inner.lock().unwrap().free[idx].push(data);
    }

    #[test]
    fn validate_rejects_duplicate_free_entry() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        h.free(&mut s, a);
        h.validate().unwrap();
        file_free(&h, class_index(8), a.word());
        let err = h.validate().unwrap_err();
        assert!(err.contains("appears twice on free lists"), "{err}");
    }

    #[test]
    fn validate_rejects_non_start_free_entries() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        let bump = h.start() + h.high_water_words();
        // Inside a block, on a header, and where a block past the last
        // one would start.
        for bad in [a.word() + 3, b.word() - 1, bump + 1] {
            file_free(&h, class_index(8), bad);
            let err = h.validate().unwrap_err();
            let want = format!("free-list entry {bad} is not a block start");
            assert!(err.contains(&want), "{err}");
            h.inner.lock().unwrap().free[class_index(8)].clear();
            h.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_wrong_class_index() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        file_free(&h, class_index(4), a.word());
        let err = h.validate().unwrap_err();
        let want = format!(
            "free-list entry {} has class 8, filed under index 0",
            a.word()
        );
        assert!(err.contains(&want), "{err}");
    }

    #[test]
    fn free_blocks_counter() {
        let (m, h) = setup();
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        assert_eq!(h.free_blocks(), 0);
        h.free(&mut s, a);
        h.free(&mut s, b);
        assert_eq!(h.free_blocks(), 2);
    }
}
