//! Restart conservative mark-sweep (Makalu's recovery GC), instrumented.
//!
//! After a crash, the volatile free lists are gone and some blocks may
//! have leaked (allocated but never linked before the failure). Recovery
//! works over two bitmaps with one bit per word of the scanned region
//! `[start, end)` — `end` is where the header chain stops — and
//!
//! 1. **scans** the heap's block headers from `start` (headers are
//!    persisted before their block can be referenced, so a zero word
//!    terminates the allocated region), setting a *start* bit at each
//!    block's first data word;
//! 2. **marks** conservatively from the root table: a word is a pointer
//!    iff its pool id is the heap's, its word index lies in the scanned
//!    region, and that index has a start bit — the address of a block's
//!    first data word. A pointer sets the block's *mark* bit and pushes
//!    it onto the one worklist; every word of a reached block is then
//!    tested the same way, its extent read from the header at
//!    `data - 1`;
//! 3. **sweeps** every started-but-unmarked bit onto the volatile free
//!    lists, in address order (the bitmaps are walked low word first):
//!    free lists are stacks, and allocation determinism after restart
//!    (tests pin "leaked block must be recycled first") requires a
//!    stable push order. Only a swept block's header is read again, for
//!    its class and tag; a marked block is counted by `count_ones`.
//!
//! Each pointer test is O(1) bit tests, and the GC holds at most two
//! bits per scanned word plus the worklist, freed when it returns
//! (DESIGN.md §5 decision 22). Conservatism can only over-retain (an
//! integer that happens to look like a block address keeps that block
//! alive) — never reclaim live data.
//!
//! All three phases run on the thread that calls [`crate::PHeap::attach`],
//! which hands the heap out only after the sweep has installed the free
//! lists. Serial on purpose: a worker-parallel scan and mark measured slower
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
//! for (fail toward leak, never toward corruption). The blocks before
//! the corruption are marked and swept as usual; the scanned region ends
//! at the last of them, so nothing past it is ever taken for a block.

use std::time::Instant;

use pmem_sim::{PAddr, PmemPool, PoolId};

use crate::classes::{class_index, NUM_CLASSES};
use crate::heap::Inner;
use crate::layout::{decode_header, OFF_ROOTS, TAG_LIVE};

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

/// What the header scan found.
struct Scan {
    /// Start bits: bit `i` is set iff word `start + i` is a block's first
    /// data word. Covers the scanned region in whole `u64`s.
    starts: Vec<u64>,
    /// Words in the scanned region `[start, start + span)`: up to the end
    /// of the last well-formed block.
    span: u64,
    /// Blocks discovered.
    blocks: usize,
    /// The recovered bump pointer (the pool end when quarantined).
    bump: u64,
    /// Corrupt headers detected (0 or 1: the scan stops at the first).
    corrupt_headers: usize,
}

/// Header scan: walk the header chain from `start` until it reaches the
/// pool end or terminates, setting a start bit at each block's first
/// data word. The bitmap grows with the walk, so it covers the heap's
/// data, not the pool.
fn scan(pool: &PmemPool, start: u64) -> Scan {
    let len = pool.len_words() as u64;
    let mut starts: Vec<u64> = Vec::new();
    let mut blocks = 0;
    let mut cursor = start;
    let mut corrupt_headers = 0;
    while cursor < len {
        let word = pool.raw_load(cursor);
        let data = cursor + 1;
        match decode_header(word) {
            Some((_, class)) if data + class as u64 <= len => {
                let i = data - start;
                let k = (i / 64) as usize;
                if k >= starts.len() {
                    starts.resize(k + 1, 0);
                }
                starts[k] |= 1 << (i % 64);
                blocks += 1;
                cursor = data + class as u64;
            }
            // The clean end of the allocated region.
            None if word == 0 => break,
            // Corruption — an extent overrunning the pool, or a nonzero
            // non-header terminator: quarantine the tail (never
            // re-allocate over words the chain no longer accounts for).
            _ => {
                corrupt_headers = 1;
                break;
            }
        }
    }
    let span = cursor - start;
    starts.resize(span.div_ceil(64) as usize, 0);
    Scan {
        starts,
        span,
        blocks,
        bump: if corrupt_headers == 0 { cursor } else { len },
        corrupt_headers,
    }
}

/// The conservative pointer test, against the scan's start bits: mark
/// the block whose first data word `word` addresses, if there is one;
/// returns that data word when this call newly marked it.
#[inline]
fn mark_target(id: PoolId, start: u64, scan: &Scan, marks: &mut [u64], word: u64) -> Option<u64> {
    let p = PAddr(word);
    // Wrapping: a word index below `start` lands far past `span`.
    let i = p.word().wrapping_sub(start);
    if p.pool() != id || i >= scan.span {
        return None;
    }
    let (k, bit) = ((i / 64) as usize, 1u64 << (i % 64));
    if scan.starts[k] & bit == 0 || marks[k] & bit != 0 {
        return None;
    }
    marks[k] |= bit;
    Some(p.word())
}

/// Conservative mark from the root table: one worklist of data words,
/// seeded from the root slots, scanning every word of each reached block
/// for pointers into other blocks. Returns the mark bits, aligned with
/// the scan's start bits.
fn mark(pool: &PmemPool, start: u64, scan: &Scan, roots: usize) -> Vec<u64> {
    let id = pool.id();
    let mut marks = vec![0u64; scan.starts.len()];
    let mut worklist: Vec<u64> = (0..roots as u64)
        .filter_map(|slot| {
            let root = pool.raw_load(OFF_ROOTS + slot);
            mark_target(id, start, scan, &mut marks, root)
        })
        .collect();
    while let Some(data) = worklist.pop() {
        // The scan decoded this header, and nothing rewrites a header
        // while the GC runs (alloc and free wait for it).
        let class = decode_header(pool.raw_load(data - 1)).map_or(0, |(_, c)| c as u64);
        for w in data..data + class {
            worklist.extend(mark_target(id, start, scan, &mut marks, pool.raw_load(w)));
        }
    }
    marks
}

/// Scan + mark + sweep; returns the rebuilt volatile state and a report.
pub(crate) fn recover(pool: &PmemPool, start: u64, roots: usize) -> (Inner, GcReport) {
    let t0 = Instant::now();
    let scan = scan(pool, start);
    let gc_scan_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let marks = mark(pool, start, &scan, roots);
    let gc_mark_ns = t1.elapsed().as_nanos() as u64;

    // Sweep in address order — free lists are stacks, and restart
    // allocation determinism depends on a stable push order.
    let t2 = Instant::now();
    let mut free = vec![Vec::new(); NUM_CLASSES];
    let mut report = GcReport {
        blocks_scanned: scan.blocks,
        corrupt_headers: scan.corrupt_headers,
        gc_scan_ns,
        gc_mark_ns,
        ..GcReport::default()
    };
    for (k, (&started, &marked)) in scan.starts.iter().zip(&marks).enumerate() {
        report.live_blocks += marked.count_ones() as usize;
        let mut dead = started & !marked;
        while dead != 0 {
            let data = start + k as u64 * 64 + dead.trailing_zeros() as u64;
            dead &= dead - 1;
            let Some((tag, class)) = decode_header(pool.raw_load(data - 1)) else {
                continue;
            };
            report.reclaimed_blocks += 1;
            report.reclaimed_words += class as u64;
            if tag == TAG_LIVE {
                report.leaked_blocks += 1;
            }
            free[class_index(class)].push(data);
        }
    }
    report.gc_sweep_ns = t2.elapsed().as_nanos() as u64;
    (
        Inner {
            bump: scan.bump,
            free,
        },
        report,
    )
}

/// The block-vector GC this module replaced, kept as the differential
/// oracle's reference: a `Vec` of every block and a binary search per
/// scanned word.
#[cfg(test)]
mod reference {
    use pmem_sim::{PAddr, PmemPool};

    use super::GcReport;
    use crate::classes::{class_index, NUM_CLASSES};
    use crate::heap::Inner;
    use crate::layout::{decode_header, TAG_LIVE};

    /// One discovered block: data-start word, data words, header tag.
    type Block = (u64, usize, u64);

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
                None if word == 0 => break,
                _ => return (blocks, len, 1),
            }
        }
        (blocks, cursor, 0)
    }

    fn mark_target(
        pool: &PmemPool,
        blocks: &[Block],
        marked: &mut [bool],
        word: u64,
    ) -> Option<usize> {
        let p = PAddr(word);
        if p.pool() != pool.id() {
            return None;
        }
        let i = blocks.binary_search_by_key(&p.word(), |b| b.0).ok()?;
        (!std::mem::replace(&mut marked[i], true)).then_some(i)
    }

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

    /// Scan + mark + sweep, timings left at zero.
    pub(super) fn recover(pool: &PmemPool, start: u64, roots: usize) -> (Inner, GcReport) {
        let (blocks, bump, corrupt_headers) = scan(pool, start);
        let marked = mark(pool, &blocks, roots);
        let mut free = vec![Vec::new(); NUM_CLASSES];
        let mut report = GcReport {
            blocks_scanned: blocks.len(),
            corrupt_headers,
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
        (Inner { bump, free }, report)
    }
}

#[cfg(test)]
mod tests {
    use crate::classes::{class_index, index_class, NUM_CLASSES};
    use crate::heap::PHeap;
    use crate::layout::{encode_header, OFF_ROOTS_LEN, TAG_LIVE};
    use pmem_sim::{DurabilityDomain, Machine, MachineConfig, PAddr};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
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
        // a's class now claims 4 extra words (still a class size): the
        // hop from a's header lands inside b's data.
        h.pool()
            .raw_store(a.word() - 1, encode_header(TAG_LIVE, 8 + 4));
        h.pool()
            .persist_line_now((a.word() - 1) / pmem_sim::WORDS_PER_LINE as u64);
        let img = m.crash(2);
        let m2 = Machine::reboot(&img, MachineConfig::functional(m.domain()));
        let (_h2, r) = PHeap::attach(m2.pool(h.pool().id())).expect("attach must fail soft");
        assert_eq!(r.corrupt_headers, 1, "skewed chain must be flagged");
    }

    /// A class word flipped to a size that is no class used to pass the
    /// scan and panic the sweep when it filed the block (`class_index`
    /// of 100 underflows): it is a nonzero non-header word, so corruption.
    #[test]
    fn non_class_size_is_corruption_not_a_panic() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 12, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let leak = h.alloc(&mut s, 8);
        h.set_root(&mut s, 0, a);
        h.pool().raw_store(leak.word() - 1, (100 << 8) | TAG_LIVE);
        let (h2, r) = PHeap::attach(Arc::clone(h.pool())).expect("attach must fail soft");
        assert_eq!(
            (r.blocks_scanned, r.live_blocks, r.corrupt_headers),
            (1, 1, 1)
        );
        assert!(h2.validate().is_err());
    }

    /// A pointer into the words a corrupt header claimed, past the last
    /// well-formed block, is not a pointer: the scanned region ends where
    /// the chain stopped.
    #[test]
    fn nothing_past_the_quarantined_chain_is_marked() {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 12, 4);
        let mut s = m.session(0);
        let a = h.alloc(&mut s, 8);
        let b = h.alloc(&mut s, 8);
        s.store(a.offset(0), b.0);
        h.set_root(&mut s, 0, a);
        h.pool().raw_store(b.word() - 1, 0xDEAD_BEEF);
        let (_h2, r) = PHeap::attach(Arc::clone(h.pool())).expect("attach must fail soft");
        assert_eq!(
            (r.blocks_scanned, r.live_blocks, r.corrupt_headers),
            (1, 1, 1)
        );
    }

    /// A random heap for the differential oracle, built through the
    /// allocator: mixed size classes; data words that are pointers to
    /// random blocks (so cycles), interior pointers, foreign-pool
    /// addresses, addresses past the pool end, or junk; random roots;
    /// freed blocks and unreached (leaked) ones; and, one time in three
    /// each, a header smashed to overrun the pool or to skew the chain
    /// onto nonzero data.
    fn random_heap(seed: u64) -> (Arc<Machine>, Arc<PHeap>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = machine();
        let foreign = m.alloc_pool("foreign", 64, pmem_sim::MediaKind::Optane);
        let roots = rng.gen_range(1usize..12);
        // Room for 120 blocks of the largest class drawn (1,024 words).
        let h = PHeap::format(&m, "h", 1 << 18, roots);
        let id = h.pool().id();
        let len = h.pool().len_words() as u64;
        let mut s = m.session(0);
        let n = rng.gen_range(0usize..120);
        let blocks: Vec<PAddr> = (0..n)
            .map(|_| {
                let words = match rng.gen_range(0u32..8) {
                    0 => rng.gen_range(65usize..600),
                    _ => rng.gen_range(1usize..64),
                };
                h.alloc(&mut s, words)
            })
            .collect();
        let word = |rng: &mut SmallRng| -> u64 {
            let pick = |rng: &mut SmallRng| blocks[rng.gen_range(0..blocks.len())];
            match rng.gen_range(0u32..9) {
                0..=2 if !blocks.is_empty() => pick(rng).0,
                3 if !blocks.is_empty() => pick(rng).offset(rng.gen_range(1u64..4)).0,
                4 if !blocks.is_empty() => pick(rng).0 - 1, // its header
                5 => foreign.addr(rng.gen_range(0u64..64)).0,
                6 => PAddr::new(id, len + rng.gen_range(0u64..1 << 20)).0,
                7 => rng.gen(),
                _ => 0,
            }
        };
        for &b in &blocks {
            for w in 0..h.block_words(b) as u64 {
                if rng.gen_bool(0.5) {
                    s.store(b.offset(w), word(&mut rng));
                }
            }
        }
        for slot in 0..roots {
            let root = PAddr(word(&mut rng));
            h.set_root(&mut s, slot, root);
        }
        for &b in &blocks {
            if rng.gen_bool(0.15) {
                h.free(&mut s, b);
            }
        }
        if !blocks.is_empty() {
            let victim = blocks[rng.gen_range(0..blocks.len())];
            let hdr = victim.word() - 1;
            let class = h.block_words(victim);
            match rng.gen_range(0u32..3) {
                // Overrun: a class whose extent passes the pool end.
                0 => h.pool().raw_store(hdr, encode_header(TAG_LIVE, 1 << 22)),
                // Skew: a larger class, so the next hop lands in data
                // (nonzero there: a nonzero terminator).
                1 => {
                    let bigger = index_class((class_index(class) + 1).min(NUM_CLASSES - 1));
                    let end = victim.word() + bigger as u64;
                    if end < len {
                        h.pool().raw_store(end, 0xDEAD_BEEF);
                    }
                    h.pool().raw_store(hdr, encode_header(TAG_LIVE, bigger));
                }
                _ => {}
            }
        }
        (m, h)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The bitmap GC and the block-vector reference agree on every
        /// report field but the timings, on every free list (per class,
        /// in order) and on the bump pointer.
        #[test]
        fn bitmap_gc_matches_the_block_vector_reference(seed in any::<u64>()) {
            let (_m, h) = random_heap(seed);
            let roots = h.pool().raw_load(OFF_ROOTS_LEN) as usize;
            let (inner, mut got) = super::recover(h.pool(), h.start(), roots);
            let (want_inner, want) = super::reference::recover(h.pool(), h.start(), roots);
            (got.gc_scan_ns, got.gc_mark_ns, got.gc_sweep_ns) = (0, 0, 0);
            prop_assert_eq!(got, want, "seed {}", seed);
            prop_assert_eq!(inner.bump, want_inner.bump, "seed {}", seed);
            prop_assert_eq!(inner.free, want_inner.free, "seed {}", seed);
        }
    }

    /// The generator reaches every shape the oracle is meant to cover.
    #[test]
    fn random_heaps_cover_the_oracle_shapes() {
        let (mut live, mut leaked, mut freed, mut corrupt, mut quarantined) = (0, 0, 0, 0, 0);
        for seed in 0..96 {
            let (_m, h) = random_heap(seed);
            let roots = h.pool().raw_load(OFF_ROOTS_LEN) as usize;
            let (inner, r) = super::recover(h.pool(), h.start(), roots);
            live += r.live_blocks;
            leaked += r.leaked_blocks;
            freed += r.reclaimed_blocks - r.leaked_blocks;
            corrupt += r.corrupt_headers;
            quarantined += usize::from(inner.bump == h.pool().len_words() as u64);
        }
        assert!(
            live > 0 && leaked > 0 && freed > 0,
            "{live} {leaked} {freed}"
        );
        assert!(
            corrupt > 10 && quarantined == corrupt,
            "{corrupt} {quarantined}"
        );
    }
}
