//! Property-based tests of the persistent allocator.

use palloc::classes::{class_index, class_words, index_class, NUM_CLASSES};
use palloc::layout::{OFF_LEN, OFF_ROOTS, OFF_ROOTS_LEN};
use palloc::PHeap;
use pmem_sim::{DurabilityDomain, Machine, MachineConfig, PAddr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

fn machine() -> Arc<Machine> {
    Machine::new(MachineConfig::functional(DurabilityDomain::Eadr))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Size classes: monotone covers, fixpoints, index bijection.
    #[test]
    fn classes_are_well_formed(words in 1usize..5_000) {
        let c = class_words(words);
        prop_assert!(c >= words);
        prop_assert_eq!(class_words(c), c);
        let idx = class_index(c);
        prop_assert!(idx < NUM_CLASSES);
        prop_assert_eq!(index_class(idx), c);
    }

    /// Random alloc/free interleavings: live blocks never overlap, frees
    /// are reusable, and block_words reports the class.
    #[test]
    fn alloc_free_no_overlap(ops in prop::collection::vec((0u8..3, 1usize..200), 1..120)) {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 18, 4);
        let mut s = m.session(0);
        let mut live: Vec<(PAddr, usize)> = Vec::new();
        for &(op, words) in &ops {
            match op {
                0 | 1 => {
                    let a = h.alloc(&mut s, words);
                    let cls = h.block_words(a);
                    prop_assert!(cls >= words);
                    // No overlap with any live block (incl. headers).
                    let lo = a.word() - 1;
                    let hi = a.word() + cls as u64;
                    for &(b, bcls) in &live {
                        let blo = b.word() - 1;
                        let bhi = b.word() + bcls as u64;
                        prop_assert!(hi <= blo || bhi <= lo,
                            "overlap: [{},{}) vs [{},{})", lo, hi, blo, bhi);
                    }
                    live.push((a, cls));
                }
                _ => {
                    if let Some((a, _)) = live.pop() {
                        h.free(&mut s, a);
                    }
                }
            }
        }
    }

    /// Crash + attach preserves every rooted chain and reclaims
    /// everything else; the allocator keeps working afterwards.
    #[test]
    fn gc_preserves_rooted_chains(
        chain_lens in prop::collection::vec(1usize..8, 1..4),
        leaks in 0usize..6,
        seed in any::<u64>(),
    ) {
        let m = machine();
        let h = PHeap::format(&m, "h", 1 << 16, 8);
        let mut s = m.session(0);
        // Build one linked chain per root; node payload word 1 = id.
        let mut expected: HashMap<usize, Vec<u64>> = HashMap::new();
        for (slot, &len) in chain_lens.iter().enumerate() {
            let mut head = PAddr::NULL;
            let mut ids = Vec::new();
            for i in 0..len {
                let n = h.alloc(&mut s, 2);
                let id = (slot * 100 + i) as u64;
                s.store(n.offset(0), head.0);
                s.store(n.offset(1), id);
                head = n;
                ids.push(id);
            }
            h.set_root(&mut s, slot, head);
            expected.insert(slot, ids);
        }
        for _ in 0..leaks {
            let _ = h.alloc(&mut s, 3);
        }
        let total_blocks: usize = chain_lens.iter().sum::<usize>() + leaks;
        let img = m.crash(seed);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Eadr));
        let (h2, gc) = PHeap::attach(m2.pool(h.pool().id())).unwrap();
        prop_assert_eq!(gc.blocks_scanned, total_blocks);
        prop_assert_eq!(gc.reclaimed_blocks, leaks);
        // Walk each chain; ids must come back in reverse insertion order.
        for (slot, ids) in &expected {
            let mut cur = h2.root_raw(*slot);
            let mut got = Vec::new();
            while !cur.is_null() {
                got.push(h2.pool().raw_load(cur.word() + 1));
                cur = PAddr(h2.pool().raw_load(cur.word()));
            }
            let mut want = ids.clone();
            want.reverse();
            prop_assert_eq!(got, want);
        }
        // Allocator still functional.
        let mut s2 = m2.session(0);
        let fresh = h2.alloc(&mut s2, 5);
        prop_assert!(fresh.word() > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fail-soft restart: random bit flips wherever a restart reads — block
    /// headers, root slots, data words, `OFF_LEN`, `OFF_ROOTS_LEN` — of a
    /// committed heap's rebooted pool. `PHeap::attach` and a `validate`
    /// of the heap it returns give `Ok` or `Err`, never a panic.
    #[test]
    fn restart_fails_soft_on_bit_flips(
        flips in prop::collection::vec((0u8..5, any::<u64>(), 0u32..64), 1..5),
        seed in any::<u64>(),
    ) {
        let (m, h, blocks) = committed_heap(seed);
        let img = m.crash(seed);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Eadr));
        let pool = m2.pool(h.pool().id());
        for &(target, pick, bit) in &flips {
            let b = blocks[pick as usize % blocks.len()];
            let word = match target {
                0 => b.word() - 1,
                1 => OFF_ROOTS + pick % ROOTS as u64,
                2 => b.word() + pick % h.block_words(b) as u64,
                3 => OFF_LEN,
                _ => OFF_ROOTS_LEN,
            };
            pool.raw_store(word, pool.raw_load(word) ^ (1 << bit));
        }
        if let Ok((h2, _)) = PHeap::attach(pool) {
            let _ = h2.validate();
        }
    }
}

/// Root slots of [`committed_heap`].
const ROOTS: usize = 6;

/// A heap whose every store is durable: one chain of mixed-size blocks
/// per root slot (each block's word 0 points at the next, its other words
/// hold small integers), plus leaked and freed blocks. Returns every
/// block.
fn committed_heap(seed: u64) -> (Arc<Machine>, Arc<PHeap>, Vec<PAddr>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = machine();
    let h = PHeap::format(&m, "h", 1 << 16, ROOTS);
    let mut s = m.session(0);
    let mut blocks = Vec::new();
    for slot in 0..ROOTS {
        let mut head = PAddr::NULL;
        for _ in 0..rng.gen_range(0usize..8) {
            let b = h.alloc(&mut s, rng.gen_range(1usize..150));
            s.store(b, head.0);
            for w in 1..h.block_words(b) as u64 {
                s.store(b.offset(w), rng.gen_range(0u64..1_000));
            }
            head = b;
            blocks.push(b);
        }
        h.set_root(&mut s, slot, head);
    }
    for _ in 0..rng.gen_range(1usize..8) {
        let b = h.alloc(&mut s, rng.gen_range(1usize..40));
        if rng.gen_bool(0.5) {
            h.free(&mut s, b);
        }
        blocks.push(b);
    }
    (m, h, blocks)
}
