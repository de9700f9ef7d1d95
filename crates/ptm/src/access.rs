//! Shared per-thread transaction machinery, independent of the logging
//! algorithm: read-set tracking, `U64Map`-deduped write-set structures,
//! the orec protocol, phase charging, the flush window (the one place
//! that turns a policy's durability obligations into `clwb`s), the
//! header-seal step every policy ends with, and trace emission.
//!
//! The orec protocol is here and nowhere else (DESIGN.md §5 decision
//! 23): one spin past a held stripe, one lock loop (`TxAccess::acquire`)
//! serving commit-time and encounter-time locking, one read-set check
//! behind extension and commit validation, one release, and the
//! hardware section's uncharged lock, release and stripe check. A policy
//! decides when to lock, never how.
//!
//! [`TxAccess`] owns everything a transaction attempt accumulates —
//! the [`crate::algo::LogPolicy`] implementations operate on it and keep
//! no state of their own. `txn.rs` drives the retry loop and the HTM
//! fast path on top of it.

use std::sync::Arc;

use palloc::PHeap;
use pmem_sim::{MemSession, PAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use trace::{AbortCause, EventKind, HtmAbortCause};

use crate::config::{FlushPlan, INDEX_NS, LOCK_SPIN, LOG_CAPACITY, MAX_BACKOFF_NS, OREC_NS};
use crate::log::TxLog;
use crate::orec::{is_locked, owner_of};
use crate::phases::{Phase, PhaseTimer};
use crate::stats::PtmStats;
use crate::txn::{Abort, Ptm, TxResult};
use crate::umap::{LineSet, U64Map};

/// The shared state of a transaction attempt (one per [`crate::TxThread`]).
///
/// Fields are `pub(crate)`: the algorithm policies in [`crate::algo`] and
/// the driver in [`crate::txn`] manipulate them directly, exactly like
/// the pre-seam monolith did.
pub struct TxAccess {
    pub(crate) ptm: Arc<Ptm>,
    pub(crate) heap: Arc<PHeap>,
    pub(crate) s: MemSession,
    pub(crate) tid: u64,
    pub(crate) log: TxLog,

    pub(crate) start_time: u64,
    pub(crate) read_set: Vec<(u32, u64)>,
    /// Duplicate filter over `read_set` (orec -> slot), maintained only
    /// under [`FlushPlan::Combined`]: repeated reads of a hot stripe then
    /// cost O(unique orecs) in `validate_reads`/`extend`.
    pub(crate) read_index: U64Map,
    /// Redo: (addr bits, new value). Undo: (addr bits, old value).
    pub(crate) entries: Vec<(u64, u64)>,
    pub(crate) redo_index: U64Map,
    /// What an offer to the flush window becomes: the configured
    /// [`FlushPlan`], with `Combined` resolved to `Batched` once per
    /// thread where the domain elides flushes (planning would only spend
    /// DRAM time and skew the planner counters there).
    window: FlushPlan,
    /// `Combined` window: every durability obligation offered since the
    /// last close, deduped at cache-line granularity.
    plan: LineSet,
    /// Reusable drain buffer handed to `MemSession::clwb_batch`.
    plan_scratch: Vec<PAddr>,
    /// Last line [`Self::offer_adjacent`] flushed directly this window.
    run_line: (pmem_sim::PoolId, u64),
    /// Held orecs with their pre-lock versions.
    pub(crate) owned: Vec<(u32, u64)>,
    pub(crate) owned_map: U64Map,
    pub(crate) undo_logged: U64Map,
    pub(crate) eager_writes: Vec<u64>,
    /// Blocks allocated and zero-initialized this transaction via the
    /// alloc-new optimization: their stores bypass the log (they are
    /// unreachable until a logged pointer-write commits) but their lines
    /// must be flushed before the commit point.
    pub(crate) fresh_blocks: Vec<(u64, usize)>,
    pub(crate) tx_allocs: Vec<PAddr>,
    pub(crate) tx_frees: Vec<PAddr>,
    /// Cached copy of the persistent undo sequence number (log header
    /// word `W_SEQ`).
    pub(crate) undo_seq: u64,
    /// Executing on the hardware path (no logging, no orec charges).
    pub(crate) in_htm: bool,
    /// Why the current hardware attempt aborted, set at the site that
    /// decided it (capacity overflow, conflict, explicit policy abort);
    /// consumed by the driver when the abort is counted.
    pub(crate) htm_abort_cause: Option<HtmAbortCause>,
    /// The commit timestamp of the in-flight commit, set by the driver
    /// after the clock bump so `make_durable` can seal entries with it.
    pub(crate) commit_wv: u64,
    /// `HtmLogged` back-end log ring base: entries `0..log_sealed` belong
    /// to earlier committed-but-unretired transactions. Lives *across*
    /// transactions (the ring is reset outside the hardware section);
    /// deliberately not cleared by [`Self::begin`].
    pub(crate) log_sealed: usize,
    pub(crate) rng: SmallRng,
    pub(crate) attempts: u32,
    /// Charges elapsed virtual time to [`Phase`]s; drained into
    /// `ptm.phases` at the end of every [`crate::TxThread::run`].
    pub(crate) timer: PhaseTimer,
    /// Abort attribution for the flight recorder: `(cause code, orec)`
    /// set at the site that decided to abort, consumed when the abort is
    /// counted (a `None` at that point means the closure itself returned
    /// `Err(Abort)` — a user abort with no contended orec).
    pub(crate) pending_abort: Option<(u64, u64)>,
}

/// [`TxAccess::run_line`] before the first adjacent offer of a window.
const NO_LINE: (pmem_sim::PoolId, u64) = (pmem_sim::PoolId(u32::MAX), u64::MAX);

impl TxAccess {
    pub(crate) fn new(ptm: Arc<Ptm>, heap: Arc<PHeap>, s: MemSession) -> TxAccess {
        let tid = s.tid() as u64;
        let log = TxLog::create(s.machine(), s.tid(), &ptm.config);
        let cap = LOG_CAPACITY.min(1 << 12);
        let window = match ptm.config.flush {
            FlushPlan::Combined if !s.machine().domain().requires_flushes() => FlushPlan::Batched,
            plan => plan,
        };
        TxAccess {
            ptm,
            heap,
            s,
            tid,
            log,
            start_time: 0,
            read_set: Vec::with_capacity(256),
            read_index: U64Map::new(256),
            entries: Vec::with_capacity(cap.min(256)),
            redo_index: U64Map::new(64),
            window,
            plan: LineSet::new(64),
            plan_scratch: Vec::with_capacity(64),
            run_line: NO_LINE,
            owned: Vec::with_capacity(64),
            owned_map: U64Map::new(64),
            undo_logged: U64Map::new(64),
            eager_writes: Vec::with_capacity(64),
            fresh_blocks: Vec::new(),
            tx_allocs: Vec::new(),
            tx_frees: Vec::new(),
            undo_seq: 0,
            in_htm: false,
            htm_abort_cause: None,
            commit_wv: 0,
            log_sealed: 0,
            rng: SmallRng::seed_from_u64(0x9E37 ^ tid),
            attempts: 0,
            timer: PhaseTimer::new(),
            pending_abort: None,
        }
    }

    /// Record a flight-recorder event. One boolean test when tracing is
    /// off (and the session only captures a ring when a sink is attached
    /// to the machine, so an enabled flag without a sink is still just a
    /// second branch).
    #[inline]
    pub(crate) fn trace(&mut self, kind: EventKind, a: u64, b: u64) {
        if self.ptm.config.tracing {
            self.s.trace_event(kind, a, b);
        }
    }

    /// Note which orec (and why) decided the current attempt must abort.
    #[inline]
    pub(crate) fn abort_at(&mut self, cause: AbortCause, orec: u32) {
        if self.ptm.config.tracing {
            self.pending_abort = Some((cause as u64, orec as u64));
        }
    }

    /// `sfence`, charged to [`Phase::FenceWait`]. Under eADR-class
    /// domains the session elides the fence, so ~0 ns is charged — this
    /// is how the profiler shows the ADR→eADR fence-wait collapse.
    #[inline]
    pub(crate) fn fence(&mut self) {
        if !self.ptm.config.elide_fences {
            let now = self.s.now();
            let prev = self.timer.switch(now, Phase::FenceWait);
            self.s.sfence();
            let now = self.s.now();
            self.timer.switch(now, prev);
        }
    }

    /// Direct `clwb`, charged to [`Phase::Flush`] (elided → ~0 under
    /// eADR): header lines, per-entry undo appends and rollback
    /// restores, which are never part of a window.
    #[inline]
    pub(crate) fn flush_line(&mut self, addr: PAddr) {
        let now = self.s.now();
        let prev = self.timer.switch(now, Phase::Flush);
        self.s.clwb(addr);
        let now = self.s.now();
        self.timer.switch(now, prev);
    }

    // ---- the flush window -----------------------------------------------
    //
    // A policy *offers* each line a fence must cover, then *closes* the
    // window and fences. Whether an offer is an immediate `clwb` or an
    // entry in the deduping plan drained at close is decided here and
    // nowhere else.

    /// Offer the cache line containing `addr` to the open window.
    #[inline]
    pub(crate) fn offer(&mut self, addr: PAddr) {
        if self.window == FlushPlan::Combined {
            let base = PAddr::new(addr.pool(), addr.line() * pmem_sim::WORDS_PER_LINE as u64);
            self.plan.insert(base.0);
        } else {
            self.flush_line(addr);
        }
    }

    /// [`Self::offer`] for a run of addresses whose same-line members are
    /// adjacent (consecutive log entries): a direct flush skips an offer
    /// on the line it flushed last. The plan dedupes by itself and counts
    /// every offer, so `flushes_elided` is what the direct arm would
    /// have saved.
    #[inline]
    pub(crate) fn offer_adjacent(&mut self, addr: PAddr) {
        if self.window == FlushPlan::Combined {
            self.offer(addr);
        } else if (addr.pool(), addr.line()) != self.run_line {
            self.flush_line(addr);
            self.run_line = (addr.pool(), addr.line());
        }
    }

    /// Offer the lines of alloc-new blocks (unlogged initialization) so
    /// they are durable before the commit point; overlapping blocks
    /// dedupe under a plan.
    pub(crate) fn offer_fresh_blocks(&mut self) {
        for i in 0..self.fresh_blocks.len() {
            let (addr_bits, words) = self.fresh_blocks[i];
            let base = PAddr(addr_bits);
            let mut w = 0u64;
            while w < words as u64 {
                self.offer(base.offset(w));
                w += pmem_sim::WORDS_PER_LINE as u64;
            }
        }
    }

    /// Redo appended log entry `i`. Incremental timing (§III-B) staggers
    /// `clwb`s during execution by flushing each log line as it
    /// *completes*, i.e. when the append after it starts a new line (the
    /// commit still covers every touched line). Flushing half-filled
    /// lines on every append would instead double the writeback traffic.
    #[inline]
    pub(crate) fn log_entry_appended(&mut self, i: usize) {
        if self.window == FlushPlan::Incremental && i > 0 {
            let (prev, e) = (self.log.entry_addr(i - 1), self.log.entry_addr(i));
            if prev.line() != e.line() || prev.pool() != e.pool() {
                self.flush_line(prev);
            }
        }
    }

    /// Close the window: drain a plan through the bank-interleaved
    /// batched flusher, charged to [`Phase::Flush`], and update the
    /// planner counters (`lines_planned`, `flushes_elided`). Direct
    /// offers were flushed as they came. The caller fences.
    pub(crate) fn close_window(&mut self) {
        self.run_line = NO_LINE;
        let unique = self.plan.len() as u64;
        let offered = self.plan.offered();
        if unique == 0 {
            return;
        }
        PtmStats::add(&self.ptm.stats.lines_planned, unique);
        PtmStats::add(&self.ptm.stats.flushes_elided, offered - unique);
        self.plan_scratch.clear();
        self.plan_scratch
            .extend(self.plan.lines().iter().map(|&k| PAddr(k)));
        self.plan.clear();
        let now = self.s.now();
        let prev = self.timer.switch(now, Phase::Flush);
        self.s.clwb_batch(&mut self.plan_scratch);
        let now = self.s.now();
        self.timer.switch(now, prev);
    }

    /// [`Self::close_window`] for a window of home data lines: a plan's
    /// unique-line count is the `max_write_lines` high-water mark.
    pub(crate) fn close_data_window(&mut self) {
        PtmStats::high_water(&self.ptm.stats.max_write_lines, self.plan.len() as u64);
        self.close_window();
    }

    #[inline]
    pub(crate) fn index_cost(&mut self) {
        if self.ptm.config.split_log_index {
            self.s.advance(INDEX_NS);
        } else {
            // Unsplit ablation: the index itself lives in Optane; charge a
            // partial media access per probe (some probes hit cache).
            let extra = self.s.machine().model().optane_load_ns / 4;
            self.s.advance(INDEX_NS + extra);
        }
    }

    pub(crate) fn begin(&mut self) {
        // A new attempt starts in speculation (also closes out the
        // previous attempt's backoff/rollback interval).
        let now = self.s.now();
        self.timer.switch(now, Phase::Speculation);
        self.read_set.clear();
        self.read_index.clear();
        self.entries.clear();
        self.redo_index.clear();
        self.plan.clear();
        self.owned.clear();
        self.owned_map.clear();
        self.undo_logged.clear();
        self.eager_writes.clear();
        self.fresh_blocks.clear();
        self.tx_allocs.clear();
        self.tx_frees.clear();
        self.start_time = self.ptm.clock.sample();
        self.s.advance(OREC_NS);
        self.pending_abort = None;
        self.htm_abort_cause = None;
        self.commit_wv = 0;
        let (attempts, start) = (self.attempts as u64, self.start_time);
        self.trace(EventKind::TxBegin, attempts, start);
    }

    // ---- the orec protocol -----------------------------------------------

    /// Wait out a held stripe: advance past a locked orec `o` up to
    /// [`LOCK_SPIN`] times across the caller's whole loop (`spins`), and
    /// return its unlocked version, or `None` once the spins are spent.
    /// The one place a thread waits on an orec another thread holds.
    fn wait_unlocked(&mut self, o: u32, spins: &mut u32) -> Option<u64> {
        loop {
            self.s.advance(OREC_NS);
            let v = self.ptm.orecs.load(o);
            if !is_locked(v) {
                return Some(v);
            }
            if *spins >= LOCK_SPIN {
                return None;
            }
            *spins += 1;
            self.s.advance(8);
        }
    }

    /// The first read-set entry whose orec moved since it was read, if
    /// any. A stripe this thread has locked since counts as unmoved when
    /// its pre-lock version is the one the read saw.
    fn first_moved_read(&self) -> Option<u32> {
        self.read_set.iter().find_map(|&(o, ver)| {
            let cur = self.ptm.orecs.load(o);
            let held_unmoved = is_locked(cur)
                && owner_of(cur) == self.tid
                && self
                    .owned_map
                    .get(o as u64)
                    .is_some_and(|i| self.owned[i as usize].1 == ver);
            (cur != ver && !held_unmoved).then_some(o)
        })
    }

    /// Timestamp extension: revalidate the read set at a newer clock.
    pub(crate) fn extend(&mut self) -> bool {
        let ts = self.ptm.clock.sample();
        self.s.advance(OREC_NS * (self.read_set.len() as u64 + 1));
        if self.first_moved_read().is_some() {
            return false;
        }
        self.start_time = ts;
        PtmStats::bump(&self.ptm.stats.extensions);
        true
    }

    /// Validate the read set against held/current orecs. Assumes write
    /// orecs are already acquired. On failure returns the orec whose
    /// version moved (abort attribution).
    pub(crate) fn validate_reads(&mut self) -> Result<(), u32> {
        self.s.advance(OREC_NS * self.read_set.len() as u64);
        self.first_moved_read().map_or(Ok(()), Err)
    }

    /// The shared validated-read protocol: spin past locked stripes,
    /// snapshot-check the orec around the data load, extend on a too-new
    /// version, and record the read in the (optionally duplicate-
    /// filtered) read set. Algorithm-specific own-write fast paths run
    /// before this via [`crate::algo::LogPolicy::on_read`].
    pub(crate) fn validated_read(&mut self, addr: PAddr, o: u32) -> TxResult<u64> {
        let mut spins = 0;
        loop {
            let Some(v1) = self.wait_unlocked(o, &mut spins) else {
                PtmStats::bump(&self.ptm.stats.aborts_read_locked);
                self.abort_at(AbortCause::ReadLocked, o);
                return Err(Abort);
            };
            if v1 > self.start_time {
                if self.extend() {
                    continue;
                }
                PtmStats::bump(&self.ptm.stats.aborts_read_version);
                self.abort_at(AbortCause::ReadVersion, o);
                return Err(Abort);
            }
            let val = self.s.load(addr);
            self.s.advance(OREC_NS);
            let v2 = self.ptm.orecs.load(o);
            if v2 != v1 {
                if spins < LOCK_SPIN {
                    spins += 1;
                    continue;
                }
                PtmStats::bump(&self.ptm.stats.aborts_read_version);
                self.abort_at(AbortCause::ReadVersion, o);
                return Err(Abort);
            }
            self.trace(EventKind::TxRead, o as u64, addr.0);
            if self.ptm.config.flush == FlushPlan::Combined {
                // Duplicate-filtered read set: one slot per orec. A
                // repeat hit must have observed the recorded version —
                // any later committer bumps the orec past start_time,
                // which forces the extension/abort path above before
                // this push point is reached.
                match self.read_index.get(o as u64) {
                    Some(slot) => {
                        debug_assert_eq!(
                            self.read_set[slot as usize].1, v1,
                            "re-read of orec {o} observed a version the recorded \
                             snapshot did not"
                        );
                    }
                    None => {
                        self.read_index.insert(o as u64, self.read_set.len() as u64);
                        self.read_set.push((o, v1));
                    }
                }
            } else {
                self.read_set.push((o, v1));
            }
            return Ok(val);
        }
    }

    /// The one lock loop, shared by commit-time and encounter-time
    /// acquisition of orec `o` (at once `Ok` if this thread holds it):
    /// wait out a held stripe, then CAS its version to this thread's lock
    /// word, retrying a lost CAS within the same spin budget. At encounter
    /// time (undo, before an in-place write) a version newer than the
    /// snapshot must first extend it: locking it as is would let reads of
    /// the locked stripe see post-snapshot values. On failure notes the
    /// abort cause and stats; the caller aborts and the driver rolls the
    /// attempt back.
    pub(crate) fn acquire(&mut self, o: u32, at_encounter: bool) -> TxResult<()> {
        if self.owned_map.get(o as u64).is_some() {
            return Ok(());
        }
        let mut spins = 0;
        while let Some(v) = self.wait_unlocked(o, &mut spins) {
            if at_encounter && v > self.start_time {
                if self.extend() {
                    continue;
                }
                break;
            }
            self.s.advance(OREC_NS);
            if self.ptm.orecs.try_lock(o, v, self.tid).is_ok() {
                self.owned_map.insert(o as u64, self.owned.len() as u64);
                self.owned.push((o, v));
                self.trace(EventKind::TxAcquire, o as u64, v);
                return Ok(());
            }
            if spins >= LOCK_SPIN {
                break;
            }
            spins += 1;
        }
        PtmStats::bump(&self.ptm.stats.aborts_acquire);
        self.abort_at(AbortCause::Acquire, o);
        Err(Abort)
    }

    /// Release every held orec, charged to `phase`: at `wv` (a commit's
    /// timestamp, or a fresh one after in-place writes were restored, so
    /// that readers of the speculative values fail validation) or, with
    /// `None`, at its pre-lock version (nothing was written in place).
    pub(crate) fn release_owned(&mut self, phase: Phase, wv: Option<u64>) {
        let now = self.s.now();
        self.timer.switch(now, phase);
        self.s.advance(OREC_NS * self.owned.len() as u64);
        for &(o, prev) in &self.owned {
            self.ptm.orecs.release(o, wv.unwrap_or(prev));
        }
        self.owned.clear();
        self.owned_map.clear();
    }

    /// The hardware section's lock of the write set's stripes. Orecs are
    /// DRAM metadata a real section touches like any other line, so the
    /// lock is uncharged, untraced and never spins: a held stripe, or one
    /// that moves under the CAS, is a conflict (`false`; the caller
    /// closes the section and releases what was taken).
    pub(crate) fn htm_lock_write_set(&mut self) -> bool {
        for i in 0..self.entries.len() {
            let o = self.ptm.orecs.index_of(PAddr(self.entries[i].0));
            if self.owned_map.get(o as u64).is_some() {
                continue;
            }
            let v = self.ptm.orecs.load(o);
            if is_locked(v) || self.ptm.orecs.try_lock(o, v, self.tid).is_err() {
                return false;
            }
            self.owned_map.insert(o as u64, self.owned.len() as u64);
            self.owned.push((o, v));
        }
        true
    }

    /// Release the section's locks at `wv` inside the crash-atomic
    /// application, uncharged like [`Self::htm_lock_write_set`].
    pub(crate) fn htm_release_owned(&mut self, wv: u64) {
        for &(o, _) in &self.owned {
            self.ptm.orecs.release(o, wv);
        }
    }

    /// Hardware-path read check: `false` when a software writer holds
    /// the stripe of `addr` or committed to it after the snapshot. The
    /// coherence protocol tracks the read, so no orec time is charged.
    pub(crate) fn htm_stripe_clean(&self, addr: PAddr) -> bool {
        let v = self.ptm.orecs.load(self.ptm.orecs.index_of(addr));
        !is_locked(v) && v <= self.start_time
    }

    /// Record the duplicate-filtered read-set high-water mark (only
    /// meaningful when [`FlushPlan::Combined`] maintains the filter).
    #[inline]
    pub(crate) fn note_read_set(&self) {
        if self.ptm.config.flush == FlushPlan::Combined {
            PtmStats::high_water(
                &self.ptm.stats.max_read_set_unique,
                self.read_set.len() as u64,
            );
        }
    }

    /// Store `state` to the log header's state word and make it durable
    /// (flush, fence), charged to [`Phase::LogAppend`]: a marker going
    /// down, or `STATE_IDLE` retiring the log.
    pub(crate) fn persist_state(&mut self, state: u64) {
        let now = self.s.now();
        self.timer.switch(now, Phase::LogAppend);
        let addr = self.log.state_addr();
        self.s.store(addr, state);
        self.flush_line(addr);
        self.fence();
    }

    /// The linearization + durability point of a marker-sealed log:
    /// persist `marker` with its entry count. The count rides inside the
    /// marker word (see `log::committed_marker`): marker and count must
    /// persist atomically, and a torn header line persists word by word.
    /// `W_COUNT`, on the same header line, is only a mirror.
    pub(crate) fn seal_header(&mut self, count: u64, marker: u64) {
        let now = self.s.now();
        self.timer.switch(now, Phase::LogAppend);
        let addr = self.log.count_addr();
        self.s.store(addr, count);
        self.persist_state(marker);
    }

    /// Own-write lookup in the buffered write set (`entries` indexed by
    /// `redo_index`): the `on_read` of every policy that buffers writes
    /// word by word.
    #[inline]
    pub(crate) fn buffered_read(&mut self, addr: PAddr) -> Option<TxResult<u64>> {
        if !self.entries.is_empty() {
            self.index_cost();
            if let Some(i) = self.redo_index.get(addr.0) {
                return Some(Ok(self.entries[i as usize].1));
            }
        }
        None
    }

    /// The one host hint (DESIGN.md §5 decision 17): the `words` words
    /// from `addr` will be accessed soon, so ask the host now for the
    /// lines that access waits on — per simulated line its orec group
    /// (one host line: [`crate::orec::OrecTable::index_of`]), L3 tag slot
    /// and home word. Host-only: nothing the model can see changes, and
    /// whatever part of the span is no memory of this session's is
    /// skipped.
    ///
    /// Two callers. A buffered-write policy that records a new write-set
    /// entry (`words == 1`): its commit will lock the orec and store and
    /// flush the home line, each behind a locked host operation that
    /// exposes a host cache miss in full. And [`crate::Tx::expect_read`],
    /// for a transaction body that knows its read footprint ahead of time.
    #[inline]
    pub(crate) fn expect_access(&mut self, addr: PAddr, words: u64) {
        const LINE: u64 = pmem_sim::WORDS_PER_LINE as u64;
        let orecs = &self.ptm.orecs;
        let end = addr.word() + self.s.prefetch(addr, words);
        let mut word = addr.word();
        while word < end {
            orecs.prefetch(orecs.index_of(PAddr::new(addr.pool(), word)));
            word = (word / LINE + 1) * LINE;
        }
    }

    /// Commit-time locking over the `n` written words `word(self, i)`
    /// (any unlocked version, whatever its timestamp), one index probe
    /// each, up to the first failed acquisition.
    pub(crate) fn acquire_each(&mut self, n: usize, word: impl Fn(&Self, usize) -> u64) -> bool {
        (0..n).all(|i| {
            let o = self.ptm.orecs.index_of(PAddr(word(self, i)));
            self.s.advance(INDEX_NS);
            self.acquire(o, false).is_ok()
        })
    }

    /// Return transactionally-allocated blocks after an abort.
    pub(crate) fn abort_cleanup(&mut self) {
        let now = self.s.now();
        self.timer.switch(now, Phase::Rollback);
        for i in 0..self.tx_allocs.len() {
            let a = self.tx_allocs[i];
            self.heap.free(&mut self.s, a);
        }
        self.tx_allocs.clear();
        self.tx_frees.clear();
    }

    /// Apply deferred frees after a successful commit (allocator work:
    /// charged to [`Phase::Speculation`] like `Tx::alloc`).
    pub(crate) fn apply_frees(&mut self) {
        let now = self.s.now();
        self.timer.switch(now, Phase::Speculation);
        for i in 0..self.tx_frees.len() {
            let a = self.tx_frees[i];
            self.heap.free(&mut self.s, a);
        }
        self.tx_frees.clear();
        self.tx_allocs.clear();
    }

    pub(crate) fn backoff(&mut self) {
        let now = self.s.now();
        self.timer.switch(now, Phase::Backoff);
        let shift = self.attempts.min(8);
        // Exponential growth saturates at the configured ceiling so a
        // victim of a hot orec is delayed a bounded amount per attempt.
        let ceiling = (100u64 << shift).min(MAX_BACKOFF_NS);
        let delay = self.rng.gen_range(ceiling / 2..=ceiling);
        PtmStats::high_water(&self.ptm.stats.max_backoff_ns, delay);
        // Stamped at backoff start so [ts, ts+delay] is the interval.
        self.trace(EventKind::Backoff, delay, self.attempts as u64);
        self.s.advance(delay);
        self.s.publish_clock();
        std::thread::yield_now();
        if self.attempts > 256 {
            // Deep backoff: on an oversubscribed host a pure yield loop
            // can starve the conflicting lock holder of real CPU time.
            // Virtual time is unaffected (already charged above).
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
}
