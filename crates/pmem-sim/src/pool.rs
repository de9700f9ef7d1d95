//! Word-addressable simulated memory pools.
//!
//! A [`PmemPool`] is a contiguous range of 64-bit words with a backing
//! media kind (DRAM or Optane) and a persistence class. The *current*
//! (cache-visible) contents live in `words`; when persistence tracking is
//! enabled the pool additionally carries a `media` array holding the
//! values that are *guaranteed durable* so far — the crash simulator
//! builds failure images from it (see [`crate::crash`]).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::crash::PoolImage;
use crate::host::{zeroed_words, Words};
use crate::WORDS_PER_LINE;

/// Identifies a pool within its [`crate::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolId(pub u32);

/// What physically backs the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Volatile DRAM: fast, lost on power failure under every domain.
    Dram,
    /// Optane DC media: slower, persistent (subject to the domain rules).
    Optane,
}

/// How the pool participates in the PDRAM-Lite durability domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistenceClass {
    /// Ordinary persistent data.
    Normal,
    /// A page range designated as PDRAM-Lite cacheable (the redo logs):
    /// under [`crate::DurabilityDomain::PdramLite`] it is served at DRAM
    /// latency while remaining durable.
    PdramLite,
}

/// A compact global word address: `pool << 40 | word`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PAddr(pub u64);

impl PAddr {
    const WORD_BITS: u32 = 40;

    /// Compose an address from a pool id and word index.
    #[inline]
    pub fn new(pool: PoolId, word: u64) -> Self {
        debug_assert!(word < 1 << Self::WORD_BITS);
        PAddr(((pool.0 as u64) << Self::WORD_BITS) | word)
    }

    /// The pool component.
    #[inline]
    pub fn pool(self) -> PoolId {
        PoolId((self.0 >> Self::WORD_BITS) as u32)
    }

    /// The word index within the pool.
    #[inline]
    pub fn word(self) -> u64 {
        self.0 & ((1 << Self::WORD_BITS) - 1)
    }

    /// The cache-line index within the pool.
    #[inline]
    pub fn line(self) -> u64 {
        self.word() / WORDS_PER_LINE as u64
    }

    /// Address displaced by `delta` words (same pool).
    #[inline]
    pub fn offset(self, delta: u64) -> PAddr {
        PAddr::new(self.pool(), self.word() + delta)
    }

    /// A sentinel null address (pool 0 word 0 is reserved by convention:
    /// allocators never hand it out).
    pub const NULL: PAddr = PAddr(0);

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for PAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}+{}", self.pool().0, self.word())
    }
}

/// Durable-so-far shadow of a pool (only allocated when the machine is
/// created with persistence tracking, i.e. for crash tests).
///
/// Applications of line snapshots are ordered by a per-pool **flush
/// epoch**: a snapshot captured at `clwb` time but applied at `sfence`
/// time must not overwrite data that a *later* flush (another thread's
/// writeback or an eviction) already persisted — on real hardware the
/// coherence protocol orders writebacks of a line, so the shadow must be
/// monotone in capture order.
#[derive(Debug)]
pub struct MediaShadow {
    words: Words,
    /// Last-applied flush epoch per cache line.
    applied: Words,
    /// Epoch source (incremented at snapshot/persist capture time).
    epoch: AtomicU64,
    /// Serializes shadow applications (the per-line `applied` epoch
    /// check and the word copies it guards); crash capture holds it for
    /// a cross-line cut (see [`PmemPool::freeze_applies`]). One lock per
    /// pool is enough: striping it by line measured no different on any
    /// tracked workload (EXPERIMENTS.md "Shadow-apply lock").
    apply_lock: std::sync::Mutex<()>,
}

impl MediaShadow {
    fn new(len: usize) -> Self {
        MediaShadow {
            words: zeroed_words(len),
            applied: zeroed_words(len / WORDS_PER_LINE),
            epoch: AtomicU64::new(0),
            apply_lock: std::sync::Mutex::new(()),
        }
    }

    /// Allocate a fresh capture epoch.
    pub fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Persist one word.
    #[inline]
    pub fn store(&self, word: u64, value: u64) {
        self.words[word as usize].store(value, Ordering::Relaxed);
    }

    /// Read the durable value of one word.
    #[inline]
    pub fn load(&self, word: u64) -> u64 {
        self.words[word as usize].load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// A simulated memory pool.
#[derive(Debug)]
pub struct PmemPool {
    id: PoolId,
    name: String,
    words: Words,
    media_kind: MediaKind,
    class: PersistenceClass,
    shadow: Option<MediaShadow>,
}

impl PmemPool {
    pub(crate) fn new(
        id: PoolId,
        name: &str,
        len_words: usize,
        media_kind: MediaKind,
        class: PersistenceClass,
        track: bool,
    ) -> Self {
        // Round up to whole cache lines so line-granular operations are safe.
        let len = len_words.div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE;
        PmemPool {
            id,
            name: name.to_string(),
            words: zeroed_words(len),
            media_kind,
            class,
            shadow: track.then(|| MediaShadow::new(len)),
        }
    }

    /// A fresh pool holding a crash image's contents, current and durable
    /// alike (reboot). Only the image's non-zero words are written: the
    /// rest are already zero, and untouched host pages stay unmapped.
    pub(crate) fn from_image(id: PoolId, image: &PoolImage, track: bool) -> Self {
        assert_eq!(
            image.words.len() % WORDS_PER_LINE,
            0,
            "pool `{}` image not line-aligned",
            image.name
        );
        let pool = PmemPool::new(
            id,
            &image.name,
            image.words.len(),
            image.media,
            image.class,
            track,
        );
        for (w, &v) in image.words.iter().enumerate() {
            if v != 0 {
                pool.words[w].store(v, Ordering::Relaxed);
                if let Some(shadow) = &pool.shadow {
                    shadow.store(w as u64, v);
                }
            }
        }
        pool
    }

    pub fn id(&self) -> PoolId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pool length in words (always a multiple of [`WORDS_PER_LINE`]).
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Pool length in cache lines.
    pub fn len_lines(&self) -> usize {
        self.words.len() / WORDS_PER_LINE
    }

    pub fn media_kind(&self) -> MediaKind {
        self.media_kind
    }

    pub fn class(&self) -> PersistenceClass {
        self.class
    }

    /// Address of word `word` in this pool.
    #[inline]
    pub fn addr(&self, word: u64) -> PAddr {
        debug_assert!((word as usize) < self.words.len());
        PAddr::new(self.id, word)
    }

    /// Untimed raw read of the current (cache-visible) value.
    ///
    /// Sessions use this internally after charging latency; tests and
    /// recovery code (which runs "after reboot", outside measured time)
    /// may use it directly.
    #[inline]
    pub fn raw_load(&self, word: u64) -> u64 {
        self.words[word as usize].load(Ordering::Acquire)
    }

    /// Untimed raw write of the current value.
    #[inline]
    pub fn raw_store(&self, word: u64, value: u64) {
        self.words[word as usize].store(value, Ordering::Release);
    }

    /// Host-only hint that `word` is about to be accessed (see
    /// [`crate::host::prefetch`]); a word past the pool's end is ignored.
    #[inline]
    pub fn prefetch(&self, word: u64) {
        if let Some(w) = self.words.get(word as usize) {
            crate::host::prefetch(w);
        }
    }

    /// The durable shadow, if tracking is enabled.
    pub fn shadow(&self) -> Option<&MediaShadow> {
        self.shadow.as_ref()
    }

    /// Persist the *current* contents of an entire cache line to the
    /// shadow. Models a line crossing the durability boundary (WPQ drain
    /// or cache eviction). Public for substrate code (e.g. the allocator)
    /// that performs untimed setup-or-under-lock persistence; application
    /// code should use [`crate::MemSession::clwb`]/`sfence` instead.
    pub fn persist_line_now(&self, line: u64) {
        if let Some(shadow) = &self.shadow {
            let _g = shadow.apply_lock.lock().unwrap();
            // Reading the current epoch (not an RMW on the shared
            // counter — that ping-pongs one cache line across every
            // concurrently-persisting thread) is enough: any snapshot
            // captured before this point carries an epoch <= it and
            // must lose to this fresher whole-line data. The max keeps
            // `applied` monotone when a newer snapshot already landed.
            let epoch = shadow.epoch.load(Ordering::Acquire);
            let base = line * WORDS_PER_LINE as u64;
            for i in 0..WORDS_PER_LINE as u64 {
                shadow.store(base + i, self.raw_load(base + i));
            }
            let cur = shadow.applied[line as usize].load(Ordering::Acquire);
            shadow.applied[line as usize].store(cur.max(epoch), Ordering::Release);
        }
    }

    /// Persist a snapshot captured earlier with [`PmemPool::snapshot_line`]
    /// (precise `clwb` semantics: the value that was flushed is the value
    /// at `clwb` time). Skipped if a later-captured flush of the same line
    /// already applied — shadow contents are monotone in capture order.
    pub(crate) fn persist_line_snapshot(
        &self,
        line: u64,
        values: &[u64; WORDS_PER_LINE],
        epoch: u64,
    ) {
        if let Some(shadow) = &self.shadow {
            let _g = shadow.apply_lock.lock().unwrap();
            if shadow.applied[line as usize].load(Ordering::Acquire) >= epoch {
                return;
            }
            let base = line * WORDS_PER_LINE as u64;
            for (i, &v) in values.iter().enumerate() {
                shadow.store(base + i as u64, v);
            }
            shadow.applied[line as usize].store(epoch, Ordering::Release);
        }
    }

    /// Snapshot the words of a line from current contents, with a capture
    /// epoch ordering it against other flushes of the same line.
    pub(crate) fn snapshot_line(&self, line: u64) -> ([u64; WORDS_PER_LINE], u64) {
        let epoch = self.shadow.as_ref().map_or(0, |s| s.next_epoch());
        let base = line * WORDS_PER_LINE as u64;
        (
            std::array::from_fn(|i| self.raw_load(base + i as u64)),
            epoch,
        )
    }

    /// Freeze this pool's durability pipeline: holds the shadow-apply
    /// lock so no concurrent `persist_line_now` / snapshot application
    /// can land while the guard lives. Pools without a durable shadow
    /// need no freezing (`None`). Crash capture holds every pool's
    /// guard at once so the image is a single cross-pool cut.
    pub(crate) fn freeze_applies(&self) -> Option<std::sync::MutexGuard<'_, ()>> {
        // Persist paths take no further lock under this one, so holding
        // every pool's at once cannot deadlock.
        self.shadow.as_ref().map(|s| s.apply_lock.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paddr_roundtrips() {
        let a = PAddr::new(PoolId(7), 123_456);
        assert_eq!(a.pool(), PoolId(7));
        assert_eq!(a.word(), 123_456);
        assert_eq!(a.line(), 123_456 / 8);
        assert_eq!(a.offset(8).word(), 123_464);
        assert!(PAddr::NULL.is_null());
        assert!(!a.is_null());
    }

    #[test]
    fn pool_rounds_to_lines() {
        let p = PmemPool::new(
            PoolId(0),
            "t",
            9,
            MediaKind::Dram,
            PersistenceClass::Normal,
            false,
        );
        assert_eq!(p.len_words(), 16);
        assert_eq!(p.len_lines(), 2);
    }

    #[test]
    fn raw_store_load() {
        let p = PmemPool::new(
            PoolId(0),
            "t",
            64,
            MediaKind::Optane,
            PersistenceClass::Normal,
            false,
        );
        p.raw_store(5, 99);
        assert_eq!(p.raw_load(5), 99);
        assert_eq!(p.raw_load(6), 0);
    }

    #[test]
    fn shadow_tracks_persisted_lines_only() {
        let p = PmemPool::new(
            PoolId(0),
            "t",
            16,
            MediaKind::Optane,
            PersistenceClass::Normal,
            true,
        );
        p.raw_store(0, 11);
        p.raw_store(8, 22);
        let s = p.shadow().unwrap();
        assert_eq!(s.load(0), 0); // not yet persisted
        p.persist_line_now(0);
        assert_eq!(s.load(0), 11);
        assert_eq!(s.load(8), 0); // other line untouched
    }

    #[test]
    fn snapshot_persistence_uses_captured_values() {
        let p = PmemPool::new(
            PoolId(0),
            "t",
            8,
            MediaKind::Optane,
            PersistenceClass::Normal,
            true,
        );
        p.raw_store(0, 1);
        let (snap, epoch) = p.snapshot_line(0);
        p.raw_store(0, 2); // modified after the (simulated) clwb
        p.persist_line_snapshot(0, &snap, epoch);
        assert_eq!(p.shadow().unwrap().load(0), 1);
        assert_eq!(p.raw_load(0), 2);
    }

    fn image(words: Vec<u64>) -> PoolImage {
        PoolImage {
            name: "t".into(),
            media: MediaKind::Optane,
            class: PersistenceClass::PdramLite,
            words,
        }
    }

    #[test]
    fn from_image_restores_contents_and_shadow() {
        let words = vec![7, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2];
        let p = PmemPool::from_image(PoolId(3), &image(words.clone()), true);
        assert_eq!((p.id(), p.name()), (PoolId(3), "t"));
        assert_eq!(p.class(), PersistenceClass::PdramLite);
        assert_eq!(p.len_words(), words.len());
        for (w, &v) in words.iter().enumerate() {
            assert_eq!(p.raw_load(w as u64), v, "word {w}");
            assert_eq!(p.shadow().unwrap().load(w as u64), v, "shadow {w}");
        }
        let untracked = PmemPool::from_image(PoolId(3), &image(words), false);
        assert!(untracked.shadow().is_none());
        assert_eq!(untracked.raw_load(15), 2);
    }

    #[test]
    #[should_panic(expected = "image not line-aligned")]
    fn from_image_checks_line_alignment() {
        PmemPool::from_image(PoolId(1), &image(vec![1, 2, 3]), false);
    }
}
