//! Word-addressable simulated memory pools.
//!
//! A [`PmemPool`] is a contiguous range of 64-bit words with a backing
//! media kind (DRAM or Optane) and a persistence class. The *current*
//! (cache-visible) contents live in `words`; when persistence tracking is
//! enabled the pool additionally carries a [`MediaShadow`] holding the
//! values that are *guaranteed durable* so far — the crash simulator
//! builds failure images from it (see [`crate::crash`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::crash::PoolImage;
use crate::host::zeroed_words;
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

/// One fenced line waiting in a pool's durability journal: its contents
/// at `clwb` time and the capture epoch that orders it against every
/// other persist of the line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JournalEntry {
    pub line: u64,
    pub epoch: u64,
    pub words: [u64; WORDS_PER_LINE],
}

/// Entries a durability journal holds before an append folds it: 1,024
/// × 80 B ≈ 80 KB per fenced pool. Far more than one fence appends (a
/// transfer or a TPCC commit fences a few to a few dozen lines), so a
/// fold overlaps the shadow misses of hundreds of fences; small enough
/// that the journal stays in a host L2 while it refills, and that the
/// fold a crash capture or a `shadow()` call pays stays short. It moves
/// no virtual number — a fold is invisible to the model — so there is
/// no second value anyone needs, and it is not a knob.
const JOURNAL_CAP: usize = 1_024;

/// How many entries ahead of the one it applies the fold asks the host
/// for: each entry needs three host lines (its `applied` word and the two
/// host lines a shadow line straddles), so eight entries keep about two
/// dozen misses in flight — what a core's fill buffers and L2 queue hold.
const FOLD_AHEAD: usize = 8;

/// Durable-so-far shadow of a pool (only allocated when the machine is
/// created with persistence tracking, i.e. for crash tests).
///
/// Persists of a line are ordered by a per-pool **flush epoch**: a
/// snapshot captured at `clwb` time but made durable at `sfence` time
/// must not overwrite data that a *later* flush (another thread's
/// writeback or an eviction) already persisted — on real hardware the
/// coherence protocol orders writebacks of a line, so the shadow must be
/// monotone in capture order. Two paths write the shadow, both under the
/// one journal lock:
///
/// * an `sfence` **appends** its snapshots of this pool's lines to the
///   durability journal, and they are **folded** in append order —
///   skipped where `applied[line] >= epoch` — when the journal reaches
///   [`JOURNAL_CAP`] and before anything reads the shadow
///   ([`PmemPool::shadow`], [`PmemPool::freeze_applies`]);
/// * [`PmemPool::persist_line_now`] (evictions, allocator headers,
///   recovery) applies the line's current contents at once, without
///   folding, under the current epoch.
///
/// Deferring the fold is invisible to any reader that folds first (DESIGN.md
/// §5 decision 21). A `persist_line_now` reads the epoch counter under the
/// lock, so its epoch is at least that of every snapshot appended before
/// it, and it overwrites the line whatever `applied` says. Under that
/// order, the line's final content is that of its largest-epoch event,
/// with `persist_line_now` winning ties, whatever order the snapshots
/// are applied in; and folding only moves a snapshot's application
/// later, never ahead of a `persist_line_now` it preceded.
#[derive(Debug)]
pub struct MediaShadow {
    words: Box<[AtomicU64]>,
    /// Last-applied flush epoch per cache line.
    applied: Box<[AtomicU64]>,
    /// Epoch source (incremented at snapshot capture time).
    epoch: AtomicU64,
    /// The durability journal. Its lock serializes every write to the
    /// shadow (fold, direct apply); crash capture holds it for a
    /// cross-pool cut (see [`PmemPool::freeze_applies`]). One lock per
    /// pool is enough: striping it by line measured no different on any
    /// tracked workload (EXPERIMENTS.md "Shadow-apply lock").
    journal: Mutex<Vec<JournalEntry>>,
}

impl MediaShadow {
    fn new(len: usize) -> Self {
        MediaShadow {
            words: zeroed_words(len),
            applied: zeroed_words(len / WORDS_PER_LINE),
            epoch: AtomicU64::new(0),
            journal: Mutex::new(Vec::new()),
        }
    }

    /// Allocate a fresh capture epoch.
    fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Read the durable value of one word (as of the last fold).
    #[inline]
    pub fn load(&self, word: u64) -> u64 {
        self.words[word as usize].load(Ordering::Relaxed)
    }

    /// The journal, under the lock every shadow write holds.
    fn lock(&self) -> MutexGuard<'_, Vec<JournalEntry>> {
        self.journal
            .lock()
            .expect("a thread panicked writing the durable shadow")
    }

    /// Append one fence's snapshots of this pool's lines under one lock,
    /// folding whenever the journal reaches [`JOURNAL_CAP`].
    fn append<'a>(&self, entries: impl Iterator<Item = &'a JournalEntry>) {
        let mut journal = self.lock();
        for e in entries {
            journal.push(*e);
            if journal.len() == JOURNAL_CAP {
                self.fold(&mut journal);
            }
        }
    }

    /// Apply the journal in append order, skipping an entry whose line
    /// already holds an equal or later epoch, and empty it. The caller
    /// holds the lock (`journal` is its guard's contents). The entries'
    /// shadow lines are cold and independent, so the host is asked for
    /// them [`FOLD_AHEAD`] entries early and their misses overlap.
    fn fold(&self, journal: &mut Vec<JournalEntry>) {
        for e in journal.iter().take(FOLD_AHEAD) {
            self.prefetch_line(e.line);
        }
        for (i, e) in journal.iter().enumerate() {
            if let Some(ahead) = journal.get(i + FOLD_AHEAD) {
                self.prefetch_line(ahead.line);
            }
            let applied = &self.applied[e.line as usize];
            if applied.load(Ordering::Acquire) >= e.epoch {
                continue;
            }
            let base = e.line as usize * WORDS_PER_LINE;
            for (w, &v) in self.words[base..base + WORDS_PER_LINE].iter().zip(&e.words) {
                w.store(v, Ordering::Relaxed);
            }
            applied.store(e.epoch, Ordering::Release);
        }
        journal.clear();
    }

    /// Write `line` at once from `current(word)`, under the lock and
    /// without folding (see the type's docs for why no reader can tell).
    fn apply_now(&self, line: u64, current: impl Fn(u64) -> u64) {
        let _journal = self.lock();
        // Reading the current epoch (not an RMW on the shared counter —
        // that ping-pongs one cache line across every concurrently
        // persisting thread) is enough: any snapshot captured before
        // this point carries an epoch <= it and must lose to this
        // fresher whole-line data. `applied` only grows: a newer
        // snapshot may already have landed.
        let epoch = self.epoch.load(Ordering::Acquire);
        let base = line * WORDS_PER_LINE as u64;
        for i in base..base + WORDS_PER_LINE as u64 {
            self.words[i as usize].store(current(i), Ordering::Relaxed);
        }
        let applied = &self.applied[line as usize];
        if applied.load(Ordering::Acquire) < epoch {
            applied.store(epoch, Ordering::Release);
        }
    }

    /// Write one word of a rebooted pool's image ([`PmemPool::from_image`]).
    fn restore_word(&self, word: u64, value: u64) {
        self.words[word as usize].store(value, Ordering::Relaxed);
    }

    /// Host-only hint for the lines a fold of `line` touches.
    fn prefetch_line(&self, line: u64) {
        let base = line as usize * WORDS_PER_LINE;
        prefetch_word(&self.applied, line as usize);
        prefetch_word(&self.words, base);
        prefetch_word(&self.words, base + WORDS_PER_LINE - 1);
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
    words: Box<[AtomicU64]>,
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
                    shadow.restore_word(w as u64, v);
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
        prefetch_word(&self.words, word as usize);
    }

    /// The durable shadow, if tracking is enabled, with its journal
    /// folded first: every fence that appended before this call is in
    /// it. Never called while this pool's [`PmemPool::freeze_applies`]
    /// guard is held — the fold takes the same lock.
    pub fn shadow(&self) -> Option<&MediaShadow> {
        let shadow = self.shadow.as_ref()?;
        shadow.fold(&mut shadow.lock());
        Some(shadow)
    }

    /// Persist the *current* contents of an entire cache line to the
    /// shadow. Models a line crossing the durability boundary (WPQ drain
    /// or cache eviction). Public for substrate code (e.g. the allocator)
    /// that performs untimed setup-or-under-lock persistence; application
    /// code should use [`crate::MemSession::clwb`]/`sfence` instead.
    pub fn persist_line_now(&self, line: u64) {
        if let Some(shadow) = &self.shadow {
            shadow.apply_now(line, |w| self.raw_load(w));
        }
    }

    /// Snapshot the words of a line from current contents (precise `clwb`
    /// semantics: what is flushed is the value at `clwb` time), with a
    /// capture epoch ordering it against other persists of the line.
    pub(crate) fn snapshot_line(&self, line: u64) -> JournalEntry {
        let epoch = self.shadow.as_ref().map_or(0, |s| s.next_epoch());
        let base = line * WORDS_PER_LINE as u64;
        JournalEntry {
            line,
            epoch,
            words: std::array::from_fn(|i| self.raw_load(base + i as u64)),
        }
    }

    /// Make one fence's snapshots of this pool's lines durable: append
    /// them to the durability journal under one lock (see
    /// [`MediaShadow`]). A no-op without a shadow.
    pub(crate) fn journal<'a>(&self, entries: impl Iterator<Item = &'a JournalEntry>) {
        if let Some(shadow) = &self.shadow {
            shadow.append(entries);
        }
    }

    /// Freeze this pool's durability pipeline: fold the journal and keep
    /// its lock, so no append, fold or `persist_line_now` can land while
    /// the guard lives. Pools without a durable shadow need no freezing
    /// (`None`). Crash capture holds every pool's guard at once so the
    /// image is a single cross-pool cut, and reads the shadow through
    /// the guards.
    pub(crate) fn freeze_applies(&self) -> Option<FrozenShadow<'_>> {
        // Persist paths take no further lock under this one, so holding
        // every pool's at once cannot deadlock.
        self.shadow.as_ref().map(|shadow| {
            let mut journal = shadow.lock();
            shadow.fold(&mut journal);
            FrozenShadow {
                shadow,
                _journal: journal,
            }
        })
    }
}

/// A pool's durable shadow held still by [`PmemPool::freeze_applies`]:
/// its journal folded and its lock held.
pub(crate) struct FrozenShadow<'a> {
    shadow: &'a MediaShadow,
    _journal: MutexGuard<'a, Vec<JournalEntry>>,
}

impl FrozenShadow<'_> {
    /// Read the durable value of one word.
    #[inline]
    pub(crate) fn load(&self, word: u64) -> u64 {
        self.shadow.load(word)
    }
}

/// Host-only hint for word `i` of `table`; a word past its end is
/// ignored (see [`crate::host::prefetch`]).
#[inline]
fn prefetch_word(table: &[AtomicU64], i: usize) {
    if let Some(w) = table.get(i) {
        crate::host::prefetch(w);
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
        let snap = p.snapshot_line(0);
        p.raw_store(0, 2); // modified after the (simulated) clwb
        p.journal(std::iter::once(&snap));
        assert_eq!(p.shadow().unwrap().load(0), 1);
        assert_eq!(p.raw_load(0), 2);
    }

    fn journal_len(p: &PmemPool) -> usize {
        p.shadow.as_ref().unwrap().lock().len()
    }

    /// Appends of every size — one entry, a fence's worth, several
    /// journals' worth in one call — leave at most `JOURNAL_CAP` entries
    /// waiting, and what was folded on the way is in the shadow.
    #[test]
    fn the_journal_never_holds_more_than_its_cap() {
        let chunks = [1, 7, JOURNAL_CAP - 1, 1, 2 * JOURNAL_CAP + 3, 1];
        let lines = chunks.iter().sum::<usize>() as u64;
        let p = PmemPool::new(
            PoolId(0),
            "t",
            lines as usize * WORDS_PER_LINE,
            MediaKind::Optane,
            PersistenceClass::Normal,
            true,
        );
        let mut line = 0;
        for chunk in chunks {
            let entries: Vec<_> = (line..line + chunk as u64)
                .map(|l| {
                    p.raw_store(l * WORDS_PER_LINE as u64, l + 1);
                    p.snapshot_line(l)
                })
                .collect();
            p.journal(entries.iter());
            line += chunk as u64;
            let waiting = journal_len(&p);
            assert!(waiting <= JOURNAL_CAP, "{waiting} entries after {line}");
            assert_eq!(
                waiting,
                line as usize % JOURNAL_CAP,
                "folds exactly at the cap"
            );
        }
        let folded = (line as usize / JOURNAL_CAP * JOURNAL_CAP) as u64;
        let s = p.shadow.as_ref().unwrap();
        for l in 0..lines {
            let want = if l < folded { l + 1 } else { 0 };
            assert_eq!(
                s.load(l * WORDS_PER_LINE as u64),
                want,
                "line {l} before a read"
            );
        }
        let s = p.shadow().unwrap();
        assert_eq!(journal_len(&p), 0);
        for l in 0..lines {
            assert_eq!(s.load(l * WORDS_PER_LINE as u64), l + 1, "line {l}");
        }
    }

    /// A crash capture taken while fences wait in the journal includes
    /// every one of them, and leaves the journal empty.
    #[test]
    fn a_capture_includes_every_appended_entry() {
        let m = crate::Machine::new(crate::MachineConfig::functional(
            crate::DurabilityDomain::Adr,
        ));
        let p = m.alloc_pool("h", 1 << 12, MediaKind::Optane);
        let q = m.alloc_pool("q", 1 << 10, MediaKind::Optane);
        let mut s = m.session(0);
        for line in 0..100u64 {
            for pool in [&p, &q] {
                s.store(pool.addr(line * 8 + line % 8), line + 7);
                s.clwb(pool.addr(line * 8));
            }
            if line % 10 == 9 {
                s.sfence();
            }
        }
        // Stores after the last fence: never durable under all-old.
        s.store(p.addr(0), 999);
        s.clwb(p.addr(0));
        assert_eq!((journal_len(&p), journal_len(&q)), (100, 100));
        let img = m.crash_with(0, crate::AdversaryPolicy::AllOld);
        assert_eq!((journal_len(&p), journal_len(&q)), (0, 0));
        for (i, words) in img.pools.iter().map(|pi| &pi.words).enumerate() {
            for line in 0..100u64 {
                let w = (line * 8 + line % 8) as usize;
                assert_eq!(words[w], line + 7, "pool {i} line {line}");
            }
            assert_eq!(words.iter().filter(|&&v| v != 0).count(), 100, "pool {i}");
        }
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
