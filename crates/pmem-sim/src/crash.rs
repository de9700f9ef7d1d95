//! Power-failure simulation.
//!
//! [`Machine::crash`] produces a [`CrashImage`]: the memory contents that
//! survive a power failure under the active durability domain.
//!
//! * DRAM-backed pools are always lost (zeroed).
//! * Under eADR / PDRAM / PDRAM-Lite, Optane-backed pools survive with
//!   their full cache-visible contents (the reserve power flushes caches).
//! * Under ADR (and the deprecated NoPowerReserve), a pool survives with
//!   its durable shadow — the lines committed by `clwb`+`sfence` or
//!   displaced by evictions — **plus an adversarially random subset of the
//!   words that were dirty but unflushed**. Real hardware gives no
//!   guarantee either way for such words (they may have been evicted
//!   moments before the failure), so recovery code must be correct for
//!   every subset; randomizing over seeds gives property tests teeth.
//!
//! [`Machine::reboot`] rebuilds a machine from an image, preserving pool
//! ids so persistent offsets ([`crate::PAddr`]) remain meaningful across
//! the crash — exactly like re-mapping a DAX file at the same base.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::domain::DurabilityDomain;
use crate::machine::{Machine, MachineConfig};
use crate::pool::{FrozenShadow, MediaKind, PersistenceClass, PmemPool};
use crate::WORDS_PER_LINE;

/// How the crash adversary decides the fate of each word that was dirty
/// but unflushed at failure time (ADR-class domains only).
///
/// The original simulator hardcoded an independent fair coin per word
/// ([`AdversaryPolicy::PerWord`]). That distribution almost never
/// produces the extreme images — *no* dirty word drained, *every* dirty
/// word drained — nor the cache-line-granular tearing that real Optane
/// produces (the media drains whole 64-byte lines; see Izraelevitz et
/// al.'s device measurements), so recovery bugs that only manifest under
/// those images escape randomized testing entirely. Crash-site sweeps
/// run all of [`AdversaryPolicy::SWEEP`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdversaryPolicy {
    /// No unflushed dirty word reaches media: the most forgetful
    /// allowed failure.
    AllOld,
    /// Every unflushed dirty word reaches media: the maximally drained
    /// failure (cache-visible state, as if the WPQ flushed everything).
    AllNew,
    /// Each unflushed dirty word independently survives with
    /// probability `p`.
    Biased(f64),
    /// Whole cache lines drain or are lost atomically (fair coin per
    /// line) — the granularity hardware actually evicts at. Words of
    /// one line never tear against each other, but lines tear against
    /// other lines.
    PerLine,
    /// The legacy fair coin per word (`Biased(0.5)`); the default.
    #[default]
    PerWord,
}

impl AdversaryPolicy {
    /// The policies a crash-site sweep exercises, in severity order.
    pub const SWEEP: [AdversaryPolicy; 4] = [
        AdversaryPolicy::PerWord,
        AdversaryPolicy::AllOld,
        AdversaryPolicy::AllNew,
        AdversaryPolicy::PerLine,
    ];

    /// Parse the reproducer-line spelling produced by [`std::fmt::Display`].
    pub fn parse(s: &str) -> Option<AdversaryPolicy> {
        match s {
            "all-old" => Some(AdversaryPolicy::AllOld),
            "all-new" => Some(AdversaryPolicy::AllNew),
            "per-line" => Some(AdversaryPolicy::PerLine),
            "per-word" => Some(AdversaryPolicy::PerWord),
            _ => {
                let p: f64 = s.strip_prefix("biased:")?.parse().ok()?;
                (0.0..=1.0)
                    .contains(&p)
                    .then_some(AdversaryPolicy::Biased(p))
            }
        }
    }
}

impl std::fmt::Display for AdversaryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdversaryPolicy::AllOld => write!(f, "all-old"),
            AdversaryPolicy::AllNew => write!(f, "all-new"),
            AdversaryPolicy::Biased(p) => write!(f, "biased:{p}"),
            AdversaryPolicy::PerLine => write!(f, "per-line"),
            AdversaryPolicy::PerWord => write!(f, "per-word"),
        }
    }
}

/// Surviving contents of one pool.
#[derive(Debug, Clone)]
pub struct PoolImage {
    pub name: String,
    pub media: MediaKind,
    pub class: PersistenceClass,
    pub words: Vec<u64>,
}

/// Surviving contents of the whole machine.
#[derive(Debug, Clone)]
pub struct CrashImage {
    pub domain: DurabilityDomain,
    /// Pool images in pool-id order (id 1 first).
    pub pools: Vec<PoolImage>,
}

impl Machine {
    /// Simulate a power failure and return what survives.
    ///
    /// `seed` drives the adversarial choices (ADR-class domains only);
    /// running recovery over many seeds explores the space of possible
    /// failure images.
    ///
    /// # Panics
    /// Panics if the machine was built without `track_persistence` and the
    /// domain needs a durable shadow (ADR / NoPowerReserve).
    pub fn crash(&self, seed: u64) -> CrashImage {
        self.crash_with(seed, AdversaryPolicy::default())
    }

    /// Like [`Machine::crash`], with an explicit adversary policy for the
    /// fate of unflushed dirty words.
    pub fn crash_with(&self, seed: u64, policy: AdversaryPolicy) -> CrashImage {
        let mut rng = SmallRng::seed_from_u64(seed);
        let domain = self.domain();
        // An instantaneous power cut is one cross-pool cut: freeze every
        // pool's durability pipeline for the whole capture, so a persist
        // racing on a sibling thread (e.g. another virtual thread's
        // `sfence` when an injector fires) lands either entirely
        // before the cut or entirely after it — never a torn image where
        // a later persist is included but an earlier one is not.
        // The freeze folds each durability journal first, and the shadow
        // is read through the guards it returns.
        let all = self.pools();
        let frozen: Vec<_> = all.iter().map(|p| p.freeze_applies()).collect();
        let pools = all
            .iter()
            .zip(&frozen)
            .map(|(pool, shadow)| PoolImage {
                name: pool.name().to_string(),
                media: pool.media_kind(),
                class: pool.class(),
                words: surviving_words(pool, shadow.as_ref(), domain, policy, &mut rng),
            })
            .collect();
        CrashImage { domain, pools }
    }

    /// Build a fresh machine whose pools are reconstructed from `image`,
    /// with identical pool ids (so persisted [`crate::PAddr`]s stay valid).
    pub fn reboot(image: &CrashImage, config: MachineConfig) -> Arc<Machine> {
        let machine = Machine::new(config);
        for pi in &image.pools {
            machine.add_pool(|id, track| PmemPool::from_image(id, pi, track));
        }
        machine
    }
}

/// What survives of one pool, read word by word straight from the pool
/// and its frozen durable shadow. The image starts as the allocator's zeroed
/// memory and only non-zero survivors are written into it, so it costs
/// host memory where the pool held data (DESIGN.md §5 decision 19). The
/// adversary draws from `rng` once per dirty word (per dirty line under
/// [`AdversaryPolicy::PerLine`]), in address order.
fn surviving_words(
    pool: &PmemPool,
    shadow: Option<&FrozenShadow<'_>>,
    domain: DurabilityDomain,
    policy: AdversaryPolicy,
    rng: &mut SmallRng,
) -> Vec<u64> {
    let mut words = vec![0u64; pool.len_words()];
    if pool.media_kind() == MediaKind::Dram {
        return words;
    }
    let mut keep = |w: usize, v: u64| {
        if v != 0 {
            words[w] = v;
        }
    };
    let current = |w: usize| pool.raw_load(w as u64);
    if domain.preserves_cache_visible(pool.media_kind(), pool.class()) {
        (0..pool.len_words()).for_each(|w| keep(w, current(w)));
        return words;
    }
    let shadow = shadow.unwrap_or_else(|| {
        panic!(
            "crash under {domain:?} requires track_persistence \
             (pool `{}` has no durable shadow)",
            pool.name()
        )
    });
    let durable = |w: usize| shadow.load(w as u64);
    // Adversary: each unflushed dirty word may or may not have reached
    // media, per the policy.
    match policy {
        AdversaryPolicy::AllOld => (0..pool.len_words()).for_each(|w| keep(w, durable(w))),
        AdversaryPolicy::AllNew => (0..pool.len_words()).for_each(|w| keep(w, current(w))),
        AdversaryPolicy::Biased(_) | AdversaryPolicy::PerWord => {
            // The fair coin is the biased one at 0.5.
            let p = if let AdversaryPolicy::Biased(p) = policy {
                p
            } else {
                0.5
            };
            for w in 0..pool.len_words() {
                let (old, new) = (durable(w), current(w));
                let drained = old != new && rng.gen_bool(p);
                keep(w, if drained { new } else { old });
            }
        }
        AdversaryPolicy::PerLine => {
            for base in (0..pool.len_words()).step_by(WORDS_PER_LINE) {
                let old: [u64; WORDS_PER_LINE] = std::array::from_fn(|i| durable(base + i));
                let new: [u64; WORDS_PER_LINE] = std::array::from_fn(|i| current(base + i));
                let drained = old != new && rng.gen_bool(0.5);
                for (i, v) in (if drained { new } else { old }).into_iter().enumerate() {
                    keep(base + i, v);
                }
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::pool::PAddr;
    use crate::DurabilityDomain as DD;

    fn tracked(domain: DD) -> Arc<Machine> {
        Machine::new(MachineConfig {
            domain,
            track_persistence: true,
            ..MachineConfig::default()
        })
    }

    #[test]
    fn dram_pool_is_lost() {
        let m = tracked(DD::Eadr);
        let p = m.alloc_pool("d", 64, MediaKind::Dram);
        let mut s = m.session(0);
        s.store(p.addr(0), 123);
        let img = m.crash(0);
        assert_eq!(img.pools[0].words[0], 0);
    }

    #[test]
    fn eadr_preserves_unflushed_stores() {
        let m = tracked(DD::Eadr);
        let p = m.alloc_pool("o", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(5), 99); // never flushed
        let img = m.crash(0);
        assert_eq!(img.pools[0].words[5], 99);
    }

    #[test]
    fn adr_preserves_flushed_stores_always() {
        let m = tracked(DD::Adr);
        let p = m.alloc_pool("o", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(2), 7);
        s.clwb(p.addr(2));
        s.sfence();
        for seed in 0..32 {
            let img = m.crash(seed);
            assert_eq!(img.pools[0].words[2], 7, "seed {seed}");
        }
    }

    #[test]
    fn adr_unflushed_store_sometimes_lost_sometimes_kept() {
        let m = tracked(DD::Adr);
        let p = m.alloc_pool("o", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 55); // dirty, unflushed
        let mut kept = 0;
        let mut lost = 0;
        for seed in 0..64 {
            let img = m.crash(seed);
            match img.pools[0].words[0] {
                55 => kept += 1,
                0 => lost += 1,
                other => panic!("impossible survivor value {other}"),
            }
        }
        assert!(kept > 0, "adversary must sometimes persist dirty words");
        assert!(lost > 0, "adversary must sometimes drop dirty words");
    }

    #[test]
    fn pdram_preserves_everything_optane_backed() {
        let m = tracked(DD::Pdram);
        let p = m.alloc_pool("o", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(1), 1);
        s.store(p.addr(9), 2);
        let img = m.crash(3);
        assert_eq!(img.pools[0].words[1], 1);
        assert_eq!(img.pools[0].words[9], 2);
    }

    #[test]
    fn pdram_lite_preserves_lite_pool_and_normal_pool() {
        let m = tracked(DD::PdramLite);
        let log =
            m.alloc_pool_with_class("log", 64, MediaKind::Optane, PersistenceClass::PdramLite);
        let heap = m.alloc_pool("heap", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(log.addr(0), 10);
        s.store(heap.addr(0), 20);
        let img = m.crash(0);
        assert_eq!(img.pools[0].words[0], 10, "lite pool survives");
        assert_eq!(img.pools[1].words[0], 20, "eADR semantics for the rest");
    }

    #[test]
    fn reboot_restores_pool_ids_and_contents() {
        let m = tracked(DD::Eadr);
        let a = m.alloc_pool("a", 64, MediaKind::Optane);
        let b = m.alloc_pool("b", 128, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(a.addr(3), 30);
        s.store(b.addr(7), 70);
        // A persisted cross-pool pointer.
        let ptr = b.addr(7);
        s.store(a.addr(0), ptr.0);
        let img = m.crash(0);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DD::Eadr));
        let a2 = m2.pool(a.id());
        assert_eq!(a2.name(), "a");
        assert_eq!(a2.raw_load(3), 30);
        // The persisted pointer still resolves.
        let restored = PAddr(a2.raw_load(0));
        assert_eq!(m2.pool(restored.pool()).raw_load(restored.word()), 70);
    }

    #[test]
    #[should_panic(expected = "requires track_persistence")]
    fn adr_crash_without_tracking_panics() {
        let m = Machine::new(MachineConfig {
            domain: DD::Adr,
            track_persistence: false,
            ..MachineConfig::default()
        });
        m.alloc_pool("o", 64, MediaKind::Optane);
        let _ = m.crash(0);
    }

    /// Regression for the hardcoded `gen_bool(0.5)` adversary: with 32
    /// independent fair coins the all-old and all-new images each occur
    /// with probability 2^-32 — effectively never — yet recovery must be
    /// correct for them. The policy enum makes them first-class.
    #[test]
    fn extreme_images_are_reachable_by_policy() {
        let m = tracked(DD::Adr);
        let p = m.alloc_pool("o", 256, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..32 {
            s.store(p.addr(i), i + 1); // all dirty, none flushed
        }
        let old = m.crash_with(0, AdversaryPolicy::AllOld);
        let new = m.crash_with(0, AdversaryPolicy::AllNew);
        for i in 0..32 {
            assert_eq!(old.pools[0].words[i as usize], 0, "all-old word {i}");
            assert_eq!(new.pools[0].words[i as usize], i + 1, "all-new word {i}");
        }
        // The fair per-word coin mixes both (sanity that the default
        // remains adversarial at all).
        let mixed = m.crash_with(3, AdversaryPolicy::PerWord);
        let kept = (0..32).filter(|&i| mixed.pools[0].words[i] != 0).count();
        assert!(kept > 0 && kept < 32, "per-word must mix: kept {kept}/32");
    }

    #[test]
    fn per_line_policy_never_tears_within_a_line() {
        let m = tracked(DD::Adr);
        let p = m.alloc_pool("o", 256, MediaKind::Optane);
        let mut s = m.session(0);
        // Two dirty words in each of four lines.
        for line in 0..4u64 {
            s.store(p.addr(line * 8), 100 + line);
            s.store(p.addr(line * 8 + 1), 200 + line);
        }
        let mut seen_kept = false;
        let mut seen_lost = false;
        let mut seen_mixed_lines = false;
        for seed in 0..64 {
            let img = m.crash_with(seed, AdversaryPolicy::PerLine);
            let mut fates = Vec::new();
            for line in 0..4u64 {
                let a = img.pools[0].words[(line * 8) as usize];
                let b = img.pools[0].words[(line * 8 + 1) as usize];
                match (a, b) {
                    (0, 0) => {
                        seen_lost = true;
                        fates.push(false);
                    }
                    (x, y) if x == 100 + line && y == 200 + line => {
                        seen_kept = true;
                        fates.push(true);
                    }
                    other => panic!("seed {seed} line {line}: intra-line tear {other:?}"),
                }
            }
            if fates.iter().any(|&f| f) && fates.iter().any(|&f| !f) {
                seen_mixed_lines = true;
            }
        }
        assert!(seen_kept, "some lines must drain");
        assert!(seen_lost, "some lines must be lost");
        assert!(seen_mixed_lines, "lines must tear against each other");
    }

    #[test]
    fn biased_policy_skews_survival() {
        let m = tracked(DD::Adr);
        let p = m.alloc_pool("o", 1024, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..128 {
            s.store(p.addr(i), 1);
        }
        let survivors = |policy| -> usize {
            (0..8)
                .map(|seed| {
                    let img = m.crash_with(seed, policy);
                    (0..128).filter(|&i| img.pools[0].words[i] == 1).count()
                })
                .sum()
        };
        let low = survivors(AdversaryPolicy::Biased(0.05));
        let high = survivors(AdversaryPolicy::Biased(0.95));
        assert!(low * 4 < high, "bias must matter: low {low} high {high}");
    }

    #[test]
    fn policy_display_parse_roundtrip() {
        for p in [
            AdversaryPolicy::AllOld,
            AdversaryPolicy::AllNew,
            AdversaryPolicy::PerLine,
            AdversaryPolicy::PerWord,
            AdversaryPolicy::Biased(0.25),
        ] {
            assert_eq!(AdversaryPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(AdversaryPolicy::parse("biased:1.5"), None);
        assert_eq!(AdversaryPolicy::parse("junk"), None);
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let m = tracked(DD::Adr);
        let p = m.alloc_pool("o", 256, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..32 {
            s.store(p.addr(i), i + 1);
        }
        let x = m.crash(42);
        let y = m.crash(42);
        assert_eq!(x.pools[0].words, y.pools[0].words);
    }

    fn dump_current(pool: &PmemPool) -> Vec<u64> {
        (0..pool.len_words() as u64)
            .map(|w| pool.raw_load(w))
            .collect()
    }

    fn dump_shadow(pool: &PmemPool) -> Vec<u64> {
        let s = pool.freeze_applies().expect("tracked pool");
        (0..pool.len_words() as u64).map(|w| s.load(w)).collect()
    }

    /// The capture as it was before it went sparse: a dense copy of the
    /// shadow and of the current words, then the policy loop over them.
    /// Kept as the oracle the sparse capture must equal, RNG draw for
    /// RNG draw.
    fn dense_capture(m: &Machine, seed: u64, policy: AdversaryPolicy) -> Vec<Vec<u64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let domain = m.domain();
        let mut images = Vec::new();
        for pool in &m.pools() {
            if pool.media_kind() == MediaKind::Dram {
                images.push(vec![0u64; pool.len_words()]);
                continue;
            }
            if domain.preserves_cache_visible(pool.media_kind(), pool.class()) {
                images.push(dump_current(pool));
                continue;
            }
            let mut base = dump_shadow(pool);
            let current = dump_current(pool);
            match policy {
                AdversaryPolicy::AllOld => {}
                AdversaryPolicy::AllNew => base.copy_from_slice(&current),
                AdversaryPolicy::Biased(_) | AdversaryPolicy::PerWord => {
                    let p = if let AdversaryPolicy::Biased(p) = policy {
                        p
                    } else {
                        0.5
                    };
                    for (w, slot) in base.iter_mut().enumerate() {
                        if *slot != current[w] && rng.gen_bool(p) {
                            *slot = current[w];
                        }
                    }
                }
                AdversaryPolicy::PerLine => {
                    for (line, chunk) in base.chunks_mut(WORDS_PER_LINE).enumerate() {
                        let cur = &current[line * WORDS_PER_LINE..];
                        let dirty = chunk.iter().zip(cur).any(|(s, c)| s != c);
                        if dirty && rng.gen_bool(0.5) {
                            chunk.copy_from_slice(&cur[..chunk.len()]);
                        }
                    }
                }
            }
            images.push(base);
        }
        images
    }

    /// A machine whose pools hold every kind of word a capture must get
    /// right; returns it with the heap word that was persisted non-zero
    /// and then overwritten with 0 (shadow non-zero, current zero).
    fn mixed_machine(domain: DD) -> (Arc<Machine>, u64) {
        let m = Machine::new(MachineConfig::functional(domain));
        let heap = m.alloc_pool("heap", 512, MediaKind::Optane);
        let log =
            m.alloc_pool_with_class("log", 128, MediaKind::Optane, PersistenceClass::PdramLite);
        let dram = m.alloc_pool("dram", 64, MediaKind::Dram);
        let mut s = m.session(0);
        // Lines 0-3 flushed and fenced; lines 4-11 dirty, some words of a
        // line more than others; the rest of the heap untouched.
        for w in 0..32 {
            s.store(heap.addr(w), 1000 + w);
        }
        for w in (0..32).step_by(WORDS_PER_LINE) {
            s.clwb(heap.addr(w));
        }
        s.sfence();
        for w in (32..96).filter(|w| w % 3 != 0) {
            s.store(heap.addr(w), 2000 + w);
        }
        // Flushed lines re-dirtied: one word to a new value, one to 0.
        s.store(heap.addr(9), 77);
        let zeroed = 17;
        s.store(heap.addr(zeroed), 0);
        for w in [0, 1, 8, 40] {
            s.store(log.addr(w), 3000 + w);
        }
        s.clwb(log.addr(0));
        s.sfence();
        s.store(log.addr(2), 4000);
        s.store(dram.addr(3), 5000);
        (m, zeroed)
    }

    #[test]
    fn sparse_capture_equals_the_dense_reference() {
        let policies = [
            AdversaryPolicy::AllOld,
            AdversaryPolicy::AllNew,
            AdversaryPolicy::PerWord,
            AdversaryPolicy::PerLine,
            AdversaryPolicy::Biased(0.2),
        ];
        for domain in DD::ALL {
            let (m, zeroed) = mixed_machine(domain);
            let heap = &m.pools()[0];
            if domain == DD::Adr {
                assert_ne!(dump_shadow(heap)[zeroed as usize], 0);
                assert_eq!(heap.raw_load(zeroed), 0);
            }
            for policy in policies {
                for seed in 0..8 {
                    let img = m.crash_with(seed, policy);
                    let dense = dense_capture(&m, seed, policy);
                    let sparse: Vec<_> = img.pools.iter().map(|p| p.words.clone()).collect();
                    assert_eq!(sparse, dense, "{domain:?} {policy} seed {seed}");
                    let m2 = Machine::reboot(&img, MachineConfig::functional(domain));
                    for (pool, pi) in m2.pools().iter().zip(&img.pools) {
                        assert_eq!(dump_current(pool), pi.words, "{domain:?} {}", pi.name);
                        assert_eq!(dump_shadow(pool), pi.words, "{domain:?} {}", pi.name);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod no_power_reserve_tests {
    use crate::machine::{Machine, MachineConfig};
    use crate::pool::MediaKind;
    use crate::DurabilityDomain as DD;

    /// The deprecated pre-ADR domain: even flushed-and-fenced stores have
    /// no guarantee (the WPQ itself may be lost) — which is exactly why
    /// it was "too cumbersome and slow" to program against and was
    /// deprecated (paper §II-B).
    #[test]
    fn flushed_stores_may_still_be_lost() {
        let m = Machine::new(MachineConfig::functional(DD::NoPowerReserve));
        let p = m.alloc_pool("o", 64, MediaKind::Optane);
        let mut s = m.session(0);
        s.store(p.addr(0), 77);
        s.clwb(p.addr(0));
        s.sfence();
        let mut lost = 0;
        let mut kept = 0;
        for seed in 0..64 {
            match m.crash(seed).pools[0].words[0] {
                0 => lost += 1,
                77 => kept += 1,
                other => panic!("impossible value {other}"),
            }
        }
        assert!(lost > 0, "NoPowerReserve gives no flush+fence guarantee");
        assert!(kept > 0, "...but the write often drains anyway");
    }
}
