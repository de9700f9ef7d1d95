//! Restart conservative mark-sweep (Makalu's recovery GC), instrumented.
//!
//! After a crash, the volatile free lists are gone and some blocks may
//! have leaked (allocated but never linked before the failure). Recovery
//!
//! 1. **scans** the heap's block headers from `start` (headers are
//!    persisted before their block can be referenced, so a zero word
//!    terminates the allocated region);
//! 2. **marks** conservatively from the root table: any word inside a
//!    reachable block whose bit pattern equals the address of a block's
//!    first data word is treated as a pointer;
//! 3. **sweeps** every unmarked block onto the volatile free lists, in
//!    address order: free lists are stacks, and allocation determinism
//!    after restart (tests pin "leaked block must be recycled first")
//!    requires a stable push order.
//!
//! Conservatism can only over-retain (an integer that happens to look
//! like a block address keeps that block alive) — never reclaim live
//! data.
//!
//! All three phases run on the calling thread — for an online attach
//! that is [`crate::PHeap::attach_online`]'s one background thread.
//! Serial on purpose: a worker-parallel scan and mark measured slower
//! than this path in every cell of `recovery_bench`'s grid
//! (EXPERIMENTS.md "Restart latency").
//!
//! GC writes nothing persistent — all three phases only rebuild volatile
//! state — so a crash during restart GC needs no repair of its own.
//!
//! # Corruption defense
//!
//! A corrupted header whose class word overruns the pool used to panic
//! the mark phase (out-of-bounds load); one that overruns into a
//! neighbouring block silently skewed the chain. The scan now detects
//! both: a block extent past the pool end, and a chain terminating on a
//! *nonzero* non-header word (header slots only ever hold zero or an
//! encoded header, so a nonzero terminator means the hop walked into
//! block data). Both increment [`GcReport::corrupt_headers`] and
//! quarantine the tail — the bump pointer is pinned to the pool end so
//! no future allocation can land on memory the chain no longer accounts
//! for (fail toward leak, never toward corruption).

use std::time::Instant;

use pmem_sim::{PAddr, PmemPool};

use crate::classes::{class_index, NUM_CLASSES};
use crate::heap::Inner;
use crate::layout::{decode_header, TAG_LIVE};

/// What recovery found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Blocks discovered in the header scan.
    pub blocks_scanned: usize,
    /// Blocks reachable from roots (kept allocated).
    pub live_blocks: usize,
    /// Blocks swept to the free lists.
    pub reclaimed_blocks: usize,
    /// Of the reclaimed, how many still carried a live tag — i.e. leaks
    /// (allocated but unreachable at crash time, or freed-tag lost).
    pub leaked_blocks: usize,
    /// Words reclaimed (data words, headers excluded).
    pub reclaimed_words: u64,
    /// Corrupted headers detected during the scan: a class word whose
    /// extent overruns the pool, or a chain terminating on a nonzero
    /// non-header word (overlap into block data). Nonzero means the
    /// unscanned tail was quarantined — see the module docs.
    pub corrupt_headers: usize,
    /// Wall-clock nanoseconds spent in the header scan.
    pub gc_scan_ns: u64,
    /// Wall-clock nanoseconds spent in the conservative mark.
    pub gc_mark_ns: u64,
    /// Wall-clock nanoseconds spent rebuilding the free lists.
    pub gc_sweep_ns: u64,
}

impl GcReport {
    /// Fold another shard's (or phase's) report into this one. Counters
    /// add saturating (a merged report must never wrap into nonsense —
    /// mirror of the `delta_since` fix); wall-clock phase times take the
    /// max, since per-shard GCs run concurrently and the restart clock
    /// is the slowest shard.
    pub fn merge(&mut self, other: &GcReport) {
        self.blocks_scanned = self.blocks_scanned.saturating_add(other.blocks_scanned);
        self.live_blocks = self.live_blocks.saturating_add(other.live_blocks);
        self.reclaimed_blocks = self.reclaimed_blocks.saturating_add(other.reclaimed_blocks);
        self.leaked_blocks = self.leaked_blocks.saturating_add(other.leaked_blocks);
        self.reclaimed_words = self.reclaimed_words.saturating_add(other.reclaimed_words);
        self.corrupt_headers = self.corrupt_headers.saturating_add(other.corrupt_headers);
        self.gc_scan_ns = self.gc_scan_ns.max(other.gc_scan_ns);
        self.gc_mark_ns = self.gc_mark_ns.max(other.gc_mark_ns);
        self.gc_sweep_ns = self.gc_sweep_ns.max(other.gc_sweep_ns);
    }
}

/// One discovered block: data-start word, data words, header tag.
type Block = (u64, usize, u64);

/// Header scan: walk the header chain from `start` until it reaches the
/// pool end or terminates. Returns the discovered blocks (address
/// order), the recovered bump pointer, and the corrupt-header count.
fn scan(pool: &PmemPool, start: u64) -> (Vec<Block>, u64, usize) {
    let len = pool.len_words() as u64;
    let mut blocks = Vec::new();
    let mut cursor = start;
    while cursor < len {
        let word = pool.raw_load(cursor);
        let data = cursor + 1;
        match decode_header(word) {
            Some((tag, class)) if data + class as u64 <= len => {
                blocks.push((data, class, tag));
                cursor = data + class as u64;
            }
            // The clean end of the allocated region.
            None if word == 0 => break,
            // Corruption — an extent overrunning the pool, or a nonzero
            // non-header terminator: quarantine the tail (never
            // re-allocate over words the chain no longer accounts for).
            _ => return (blocks, len, 1),
        }
    }
    (blocks, cursor, 0)
}

/// Mark the block whose first data word `word` addresses, if there is
/// one; returns its index when this call newly marked it.
fn mark_target(pool: &PmemPool, blocks: &[Block], marked: &mut [bool], word: u64) -> Option<usize> {
    let p = PAddr(word);
    if p.pool() != pool.id() {
        return None;
    }
    let i = blocks.binary_search_by_key(&p.word(), |b| b.0).ok()?;
    (!std::mem::replace(&mut marked[i], true)).then_some(i)
}

/// Conservative mark from the root table: one worklist, seeded from the
/// root slots, scanning every word of each reached block for pointers
/// into other blocks. Returns the per-block mark bits, index-aligned
/// with `blocks`.
fn mark(pool: &PmemPool, blocks: &[Block], roots: usize) -> Vec<bool> {
    let mut marked = vec![false; blocks.len()];
    let mut worklist: Vec<usize> = (0..roots as u64)
        .filter_map(|slot| {
            let root = pool.raw_load(crate::layout::OFF_ROOTS + slot);
            mark_target(pool, blocks, &mut marked, root)
        })
        .collect();
    while let Some(i) = worklist.pop() {
        let (data, class, _) = blocks[i];
        for w in data..data + class as u64 {
            worklist.extend(mark_target(pool, blocks, &mut marked, pool.raw_load(w)));
        }
    }
    marked
}

/// Scan + mark + sweep; returns the rebuilt volatile state and a report.
pub(crate) fn recover(pool: &PmemPool, start: u64, roots: usize) -> (Inner, GcReport) {
    let t0 = Instant::now();
    let (blocks, bump, corrupt_headers) = scan(pool, start);
    let gc_scan_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let marked = mark(pool, &blocks, roots);
    let gc_mark_ns = t1.elapsed().as_nanos() as u64;

    // Sweep in address order — free lists are stacks, and restart
    // allocation determinism depends on a stable push order.
    let t2 = Instant::now();
    let mut free = vec![Vec::new(); NUM_CLASSES];
    let mut report = GcReport {
        blocks_scanned: blocks.len(),
        corrupt_headers,
        gc_scan_ns,
        gc_mark_ns,
        ..GcReport::default()
    };
    for (&(data, class, tag), &live) in blocks.iter().zip(&marked) {
        if live {
            report.live_blocks += 1;
        } else {
            report.reclaimed_blocks += 1;
            report.reclaimed_words += class as u64;
            if tag == TAG_LIVE {
                report.leaked_blocks += 1;
            }
            free[class_index(class)].push(data);
        }
    }
    report.gc_sweep_ns = t2.elapsed().as_nanos() as u64;
    (Inner { bump, free }, report)
}

#[cfg(test)]
mod tests {
    use crate::heap::PHeap;
    use crate::layout::{encode_header, TAG_LIVE};
    use pmem_sim::{DurabilityDomain, Machine, MachineConfig, PAddr};
    use std::sync::Arc;

    fn machine() -> Arc<Machine> {
        Machine::new(MachineConfig::functional(DurabilityDomain::Eadr))
    }

    /// Crash the machine and re-attach to the surviving heap.
    fn crash_and_attach(
        m: &Arc<Machine>,
        h: &Arc<PHeap>,
        seed: u64,
    ) -> (Arc<Machine>, Arc<PHeap>, super::GcReport) {
        let img = m.crash(seed);
        let m2 = Machine::reboot(&img, MachineConfig::functional(m.domain()));
        let pool = m2.pool(h.pool().id());
        let (h2, report) = PHeap::attach(pool).expect("attach");
        (m2, h2, report)
    }

    #[test]
    fn empty_heap_recovers_empty() {
        let m = machine();
        let h = PHeap::format(&m, "h", 4096, 4);
        let (_m2, h2, r) = crash_and_attach(&m, &h, 0);
        assert_eq!(r.blocks_scanned, 0);
        assert_eq!(h2.high_water_words(), 0);
    }

    #[test]
    fn rooted_chain_survives_and_leak_is_reclaimed() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 14, 4);
        let mut s = m.session(0);
        // Build root -> a -> b; leak c.
        let a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        let c = h.alloc(&mut s, 8);
        s.store(a.offset(0), b.0); // a points to b
        s.store(b.offset(0), 1234);
        s.store(c.offset(0), 5678); // never linked: leaks
        h.set_root(&mut s, 0, a);
        let (_m2, h2, r) = crash_and_attach(&m, &h, 7);
        assert_eq!(r.blocks_scanned, 3);
        assert_eq!(r.live_blocks, 2);
        assert_eq!(r.reclaimed_blocks, 1);
        assert_eq!(r.leaked_blocks, 1);
        assert_eq!(r.corrupt_headers, 0);
        // The survivors kept their contents and identity.
        let root = h2.root_raw(0);
        assert_eq!(root, a);
        assert_eq!(h2.pool().raw_load(root.word()), b.0);
        assert_eq!(
            h2.pool()
                .raw_load(PAddr(h2.pool().raw_load(root.word())).word()),
            1234
        );
        // The leak is reusable.
        let mut s2 = _m2.session(0);
        let d = h2.alloc(&mut s2, 8);
        assert_eq!(d, c, "leaked block must be recycled first");
    }

    #[test]
    fn freed_blocks_are_rebuilt_onto_free_lists() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 14, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 16);
        let b = h.alloc(&mut s, 16);
        h.set_root(&mut s, 0, b);
        h.free(&mut s, a);
        let (_m2, h2, r) = crash_and_attach(&m, &h, 1);
        assert_eq!(r.reclaimed_blocks, 1);
        assert_eq!(h2.free_blocks(), 1);
    }

    #[test]
    fn cyclic_structures_stay_live() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 14, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 4);
        let b = h.alloc(&mut s, 4);
        s.store(a.offset(0), b.0);
        s.store(b.offset(0), a.0); // cycle
        h.set_root(&mut s, 1, a);
        let (_m2, _h2, r) = crash_and_attach(&m, &h, 2);
        assert_eq!(r.live_blocks, 2);
        assert_eq!(r.reclaimed_blocks, 0);
    }

    #[test]
    fn null_and_foreign_roots_are_ignored() {
        let m = machine();
        let other = m.alloc_pool("other", 64, pmem_sim::MediaKind::Optane);
        let h = PHeap::format(&m, "h", 1 << 12, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 4);
        h.set_root(&mut s, 0, PAddr::NULL);
        h.set_root(&mut s, 1, other.addr(8)); // foreign pool
        h.set_root(&mut s, 2, PAddr::new(h.pool().id(), 999_999)); // junk
        let _ = a;
        let (_m2, _h2, r) = crash_and_attach(&m, &h, 3);
        assert_eq!(r.live_blocks, 0);
        assert_eq!(r.reclaimed_blocks, 1);
    }

    #[test]
    fn interior_pointers_do_not_mark() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 12, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        // Root block holds a pointer *into the middle* of b: conservative
        // marking only honors exact data-start pointers.
        s.store(a.offset(0), b.offset(3).0);
        h.set_root(&mut s, 0, a);
        let (_m2, _h2, r) = crash_and_attach(&m, &h, 4);
        assert_eq!(r.live_blocks, 1);
        assert_eq!(r.reclaimed_blocks, 1);
    }

    #[test]
    fn bump_pointer_recovers_past_last_block() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 14, 4);
        let mut s = m.session(0);
        for _ in 0..10 {
            let x = h.alloc(&mut s, 8);
            let _ = x;
        }
        let hw = h.high_water_words();
        let (_m2, h2, _r) = crash_and_attach(&m, &h, 5);
        assert_eq!(h2.high_water_words(), hw);
    }

    #[test]
    fn adr_crash_leaked_unflushed_header_truncates_safely() {
        // Under ADR with an unflushed header, the scan may stop early; the
        // blocks beyond are by construction unreachable, so attach must
        // still succeed and the reachable prefix must be intact.
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
        let h = PHeap::format(&m, "h", 1 << 14, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        s.store(a.offset(0), 42);
        s.clwb(a.offset(0));
        s.sfence();
        h.set_root(&mut s, 0, a);
        for seed in 0..16 {
            let img = m.crash(seed);
            let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Adr));
            let (h2, r) = PHeap::attach(m2.pool(h.pool().id())).expect("attach");
            let root = h2.root_raw(0);
            assert_eq!(root, a);
            assert_eq!(h2.pool().raw_load(root.word()), 42);
            assert_eq!(r.corrupt_headers, 0, "truncation is not corruption");
        }
    }

    /// Build a heap whose live graph is a wide rooted tree plus leaks.
    fn populated_heap(blocks: usize) -> (Arc<Machine>, Arc<PHeap>) {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 18, 8);
        let mut s = m.session(0);
        let spine = h.alloc(&mut s, blocks);
        for i in 0..blocks {
            let leaf = h.alloc(&mut s, 1 + i % 17);
            s.store(leaf.offset(0), (i as u64) << 16);
            if i % 3 != 0 {
                s.store(spine.offset(i as u64), leaf.0); // live
            } // else: leaked
        }
        h.set_root(&mut s, 0, spine);
        (m, h)
    }

    /// A class word smashed to overrun the pool end must be detected and
    /// quarantined, not panic the mark phase.
    #[test]
    fn overrunning_header_is_detected_not_panicking() {
        let (m, h) = populated_heap(20);
        let mut s = m.session(0);
        let victim = h.alloc(&mut s, 8);
        // Class claims more words than the pool holds.
        h.pool().raw_store(
            victim.word() - 1,
            encode_header(TAG_LIVE, h.pool().len_words()),
        );
        h.pool()
            .persist_line_now((victim.word() - 1) / pmem_sim::WORDS_PER_LINE as u64);
        let img = m.crash(1);
        let m2 = Machine::reboot(&img, MachineConfig::functional(m.domain()));
        let (h2, r) = PHeap::attach(m2.pool(h.pool().id())).expect("attach must fail soft");
        assert_eq!(r.corrupt_headers, 1);
        // Quarantine: the tail is never handed out again.
        assert_eq!(
            h2.high_water_words(),
            h2.pool().len_words() as u64 - h2.start()
        );
    }

    /// A class word smashed to overrun *into the next block* lands the
    /// chain on nonzero block data: detected as corruption (the old code
    /// silently skipped the remaining blocks).
    #[test]
    fn overlapping_header_is_detected() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 14, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        for i in 0..8 {
            // Nonzero non-header data everywhere the skewed chain can
            // land (0xEF is not a valid header tag).
            s.store(b.offset(i), 0xDEAD_BEEF);
        }
        h.set_root(&mut s, 0, b);
        // a's class now claims 3 extra words: the hop from a's header
        // lands inside b's data.
        h.pool()
            .raw_store(a.word() - 1, encode_header(TAG_LIVE, 8 + 3));
        h.pool()
            .persist_line_now((a.word() - 1) / pmem_sim::WORDS_PER_LINE as u64);
        let img = m.crash(2);
        let m2 = Machine::reboot(&img, MachineConfig::functional(m.domain()));
        let (_h2, r) = PHeap::attach(m2.pool(h.pool().id())).expect("attach must fail soft");
        assert_eq!(r.corrupt_headers, 1, "skewed chain must be flagged");
    }
}
