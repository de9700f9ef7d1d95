//! The transaction driver: retry/backoff loop, commit sequencing, and
//! the hardware-TM fast path.
//!
//! Algorithm-specific behavior (redo / undo / cow shadow) lives behind
//! [`crate::algo::LogPolicy`]; the shared per-attempt machinery (read
//! set, write-set structures, orec protocol, phase charging, trace
//! emission) lives in [`crate::access::TxAccess`]. This module never
//! matches on [`crate::config::Algo`] — it resolves the policy once via
//! the `crate::algo` registry and drives it.
//!
//! All algorithms follow TL2-style timestamp validation against the
//! global clock, with every optimization the paper enables:
//!
//! * **timestamp extension** — a read that observes a too-new version
//!   revalidates the read set and moves the start time forward instead of
//!   aborting;
//! * **read-only fast path** — transactions with no writes commit without
//!   touching the clock or any orec;
//! * **split log** — the log's hash index is a DRAM structure
//!   ([`crate::umap::U64Map`]); only the entry payloads occupy persistent
//!   memory;
//! * **commit-time validation elision** — if the commit timestamp is
//!   exactly `start_time + 2`, no other writer committed in between and
//!   the read set is valid by construction.
//!
//! The persistence choreography is the part the paper measures:
//!
//! * **orec-lazy** flushes its redo-log lines and issues **O(1)** fences:
//!   one after the log, one with the COMMITTED marker, one after
//!   writeback, one with the IDLE marker;
//! * **orec-eager** issues **O(W)** fences: every first write to a
//!   location persists an undo entry (`clwb` + `sfence`) *before* the
//!   in-place store;
//! * **cow shadow** is O(1)-fenced like redo, trading the log payload
//!   for shadow lines published home at commit;
//! * **htm-logged** commits in a hardware section whose contention
//!   window contains *no* `clwb` or `sfence` — persistence moves to a
//!   back-end log sealed after the section retires (two fences,
//!   amortized ring retirement), and is skipped where the domain makes
//!   cache visibility durable (see `crate::algo::htm`). It is the only
//!   hardware path; the driver attempts it `HTM_ATTEMPTS` times.
//!
//! Under eADR-class durability domains the `clwb`/`sfence` calls are
//! free ([`pmem_sim::MemSession`] elides them), which is precisely the
//! paper's ADR→eADR transformation. `PtmConfig::elide_fences` instead
//! skips only the fences while keeping flushes — the deliberately
//! incorrect variant behind Table III.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use palloc::PHeap;
use pmem_sim::{MemSession, PAddr};

use trace::{AbortCause, EventKind, HtmAbortCause};

use crate::access::TxAccess;
use crate::algo::htm::PendingEntry;
use crate::algo::LogPolicy;
use crate::config::{PtmConfig, HTM_ATTEMPTS};
use crate::orec::{GlobalClock, OrecTable};
use crate::phases::{Phase, PhaseSnapshot, PhaseStats};
use crate::stats::{PtmStats, PtmStatsSnapshot};

/// A shared PTM instance: one per machine/heap.
pub struct Ptm {
    pub config: PtmConfig,
    pub orecs: OrecTable,
    pub clock: GlobalClock,
    pub stats: PtmStats,
    /// Where transaction time goes, by [`Phase`] (see [`crate::phases`]).
    pub phases: PhaseStats,
    /// `HtmLogged` pending table: home address → the committed-but-
    /// unretired back-end log entry covering it (see `algo::htm`).
    /// Never iterated in a state-bearing order, so a `HashMap` keeps
    /// deterministic runs deterministic.
    ///
    /// Lock discipline: the mutex guards only DRAM bookkeeping. No
    /// holder may issue a timed memory operation (store/clwb/sfence)
    /// while inside — a timed op can block in the clock-domain lag
    /// window waiting for peers to advance, and a peer parked on this
    /// mutex never advances its virtual clock: deadlock.
    pub(crate) pending_log: Mutex<HashMap<u64, PendingEntry>>,
    /// Committers currently persisting tombstones *outside* the
    /// `pending_log` lock (see `algo::htm::append_and_seal`). Ring
    /// recycling must not reuse slots while a tombstone store to one of
    /// them may still be in flight, so `reset_ring` waits for this to
    /// drain before deregistering its records.
    pub(crate) tombstones_in_flight: std::sync::atomic::AtomicU64,
}

impl Ptm {
    pub fn new(config: PtmConfig) -> Arc<Ptm> {
        let orecs = OrecTable::new(config.orec_count);
        Arc::new(Ptm {
            config,
            orecs,
            clock: GlobalClock::new(),
            stats: PtmStats::new(),
            phases: PhaseStats::new(),
            pending_log: Mutex::new(HashMap::new()),
            tombstones_in_flight: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Snapshot of commit/abort counters.
    pub fn stats_snapshot(&self) -> PtmStatsSnapshot {
        self.stats.snapshot()
    }

    /// Snapshot of the per-phase time breakdown.
    pub fn phases_snapshot(&self) -> PhaseSnapshot {
        self.phases.snapshot()
    }
}

/// Marker type: the transaction must abort and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort;

/// Result of instrumented transactional operations.
pub type TxResult<T> = Result<T, Abort>;

/// Per-thread transaction executor.
///
/// Owns the thread's [`MemSession`] and persistent log (inside its
/// [`TxAccess`]) plus the algorithm policy resolved from the registry.
/// Obtain one per virtual thread, then call [`TxThread::run`] with a
/// closure over [`Tx`]. The closure **must propagate** `Err(Abort)`
/// from `read`/`write` (use `?`) — swallowing it would let inconsistent
/// reads escape.
pub struct TxThread {
    pub(crate) ax: TxAccess,
    pub(crate) policy: &'static dyn LogPolicy,
}

impl TxThread {
    /// Create an executor for the session's virtual thread; allocates the
    /// thread's persistent log pools on the session's machine.
    pub fn new(ptm: Arc<Ptm>, heap: Arc<PHeap>, s: MemSession) -> TxThread {
        let policy = crate::algo::policy(ptm.config.algo);
        TxThread {
            ax: TxAccess::new(ptm, heap, s),
            policy,
        }
    }

    /// Run `f` as a transaction, retrying on aborts until it commits.
    ///
    /// A policy with a hardware path ([`crate::config::Algo::HtmLogged`])
    /// is attempted there first, under every durability domain, with no
    /// orec instrumentation, flush or fence inside the section (a `clwb`
    /// aborts a hardware transaction — the paper's §V observation).
    /// Conflicts and capacity overflows fall back to the software
    /// sequence after [`HTM_ATTEMPTS`] tries.
    pub fn run<T>(&mut self, f: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        // Phase accounting brackets the whole call: every virtual
        // nanosecond between here and the drain is charged to exactly one
        // phase.
        let now = self.ax.s.now();
        self.ax.timer.start(now);
        let v = self.run_inner(f);
        let now = self.ax.s.now();
        self.ax.timer.drain(now, &self.ax.ptm.phases);
        v
    }

    fn run_inner<T>(&mut self, mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        self.ax.attempts = 0;
        if self.policy.htm_mode() {
            for attempt in 0..HTM_ATTEMPTS {
                // Before the section: the policy's only chance to fence
                // (ring recycling) without the flush landing inside the
                // TxBegin→HtmRetire window.
                self.policy.htm_prepare(&mut self.ax);
                self.ax.begin();
                self.ax.in_htm = true;
                self.ax.s.htm_begin();
                let outcome = f(&mut Tx { th: self });
                self.ax.in_htm = false;
                if let Ok(v) = outcome {
                    if self.policy.htm_commit(&mut self.ax) {
                        PtmStats::bump(&self.ax.ptm.stats.htm_commits);
                        self.note_commit(self.ax.entries.len() as u64, 2);
                        return v;
                    }
                }
                if self.ax.s.htm_in_section() {
                    // `Err(Abort)` escaped the closure with the section
                    // still open (policy commit paths close it themselves).
                    self.ax.s.htm_abort();
                }
                let cause = self
                    .ax
                    .htm_abort_cause
                    .take()
                    .unwrap_or(HtmAbortCause::Explicit);
                PtmStats::bump(&self.ax.ptm.stats.htm_aborts);
                PtmStats::bump(match cause {
                    HtmAbortCause::Capacity => &self.ax.ptm.stats.htm_capacity_aborts,
                    HtmAbortCause::Conflict => &self.ax.ptm.stats.htm_conflict_aborts,
                    HtmAbortCause::Explicit => &self.ax.ptm.stats.htm_explicit_aborts,
                });
                self.ax
                    .trace(EventKind::HtmAbort, cause as u64, attempt as u64);
                self.ax.abort_cleanup();
                let now = self.ax.s.now();
                self.ax.timer.switch(now, Phase::Backoff);
                let delay = 60u64 << attempt.min(6);
                self.ax.trace(EventKind::Backoff, delay, attempt as u64);
                self.ax.s.advance(delay);
            }
            PtmStats::bump(&self.ax.ptm.stats.htm_fallbacks);
            self.ax
                .trace(EventKind::HtmFallback, HTM_ATTEMPTS as u64, 0);
        }
        self.run_software(f)
    }

    /// The software (STM) retry loop.
    fn run_software<T>(&mut self, mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        self.ax.attempts = 0;
        loop {
            self.ax.begin();
            let outcome = f(&mut Tx { th: self });
            match outcome {
                Ok(v) => {
                    if self.try_commit() {
                        self.note_commit(self.policy.write_set_size(&self.ax), 0);
                        return v;
                    }
                }
                Err(Abort) => self.policy.abort_rollback(&mut self.ax, None),
            }
            self.note_abort();
            self.ax.abort_cleanup();
            self.ax.attempts += 1;
            assert!(
                self.ax.attempts < crate::config::MAX_RETRIES,
                "transaction livelock: {} consecutive aborts on thread {}",
                self.ax.attempts,
                self.ax.tid
            );
            self.ax.backoff();
        }
    }

    /// The underlying session, for non-transactional phases (setup).
    pub fn session_mut(&mut self) -> &mut MemSession {
        &mut self.ax.s
    }

    /// The heap this executor allocates from.
    pub fn heap(&self) -> &Arc<PHeap> {
        &self.ax.heap
    }

    /// The shared PTM.
    pub fn ptm(&self) -> &Arc<Ptm> {
        &self.ax.ptm
    }

    // ---- internals ------------------------------------------------------

    pub(crate) fn tx_read(&mut self, addr: PAddr) -> TxResult<u64> {
        if self.ax.in_htm {
            return self.htm_read(addr);
        }
        let o = self.ax.ptm.orecs.index_of(addr);
        if let Some(hit) = self.policy.on_read(&mut self.ax, addr, o) {
            return hit;
        }
        self.ax.validated_read(addr, o)
    }

    pub(crate) fn tx_write(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
        if self.ax.in_htm {
            return self.htm_write(addr, val);
        }
        self.policy.on_write(&mut self.ax, addr, val)
    }

    /// The shared commit sequence, composed of the steps below. The
    /// policy fills in acquisition, durability, and publication; the
    /// driver owns the clock protocol and read validation so every
    /// algorithm serializes identically. `CrossShardTx` runs the same
    /// steps on each writer shard, with 2PC's prepare and decide between
    /// validation and publication.
    pub(crate) fn try_commit(&mut self) -> bool {
        if self.policy.read_only(&self.ax) {
            self.ax.apply_frees();
            return true;
        }
        if !self.commit_acquire() {
            return false;
        }
        let wv = self.commit_stamp();
        if !self.commit_validate(wv) {
            self.policy.abort_rollback(&mut self.ax, Some(wv));
            return false;
        }
        self.policy.make_durable(&mut self.ax);
        self.policy.commit_publish(&mut self.ax, wv);
        self.commit_done();
        true
    }

    /// Commit-time locking. A failed acquisition rolls the attempt back.
    pub(crate) fn commit_acquire(&mut self) -> bool {
        let now = self.ax.s.now();
        self.ax.timer.switch(now, Phase::Validation);
        if self.policy.pre_commit_acquire(&mut self.ax) {
            return true;
        }
        self.policy.abort_rollback(&mut self.ax, None);
        false
    }

    /// Take the commit timestamp.
    pub(crate) fn commit_stamp(&mut self) -> u64 {
        let wv = self.ax.ptm.clock.bump();
        self.ax.commit_wv = wv;
        self.ax.s.advance(crate::config::OREC_NS);
        wv
    }

    /// TL2 read validation at `wv`. The caller rolls back on `false`.
    pub(crate) fn commit_validate(&mut self, wv: u64) -> bool {
        if wv == self.ax.start_time + 2 {
            return true;
        }
        if let Err(o) = self.ax.validate_reads() {
            PtmStats::bump(&self.ax.ptm.stats.aborts_validation);
            self.ax.abort_at(AbortCause::Validation, o);
            return false;
        }
        let reads = self.ax.read_set.len() as u64;
        self.ax.trace(EventKind::TxValidate, reads, wv);
        true
    }

    /// Bookkeeping after the writes are published.
    pub(crate) fn commit_done(&mut self) {
        self.ax
            .ptm
            .stats
            .note_write_set(self.policy.write_set_size(&self.ax));
        self.ax.note_read_set();
        self.ax.apply_frees();
    }

    /// Count and trace one committed transaction; `code` tells the
    /// commit path apart (0 software, 2 hardware, 3 cross-shard handle).
    #[inline]
    pub(crate) fn note_commit(&mut self, write_set: u64, code: u64) {
        PtmStats::bump(&self.ax.ptm.stats.commits);
        self.ax.trace(EventKind::TxCommit, write_set, code);
    }

    /// Count and trace one failed attempt, under the cause
    /// `TxAccess::abort_at` noted (`User` if none).
    #[inline]
    pub(crate) fn note_abort(&mut self) {
        PtmStats::bump(&self.ax.ptm.stats.aborts);
        if self.ax.ptm.config.tracing {
            let (cause, orec) = self
                .ax
                .pending_abort
                .take()
                .unwrap_or((AbortCause::User as u64, 0));
            self.ax.s.trace_event(EventKind::TxAbort, cause, orec);
        }
    }

    /// Hardware-path read: the cache coherence protocol does the conflict
    /// tracking, so no orec time is charged — but a locked or too-new
    /// stripe means a software writer is (or was) active and the hardware
    /// transaction must abort. The read's line joins the section's
    /// footprint; overflowing the modeled L1/L2 bound is a capacity
    /// abort.
    fn htm_read(&mut self, addr: PAddr) -> TxResult<u64> {
        if !self.ax.s.htm_track_read(addr) {
            self.ax.htm_abort_cause = Some(HtmAbortCause::Capacity);
            return Err(Abort);
        }
        if !self.ax.entries.is_empty() {
            if let Some(i) = self.ax.redo_index.get(addr.0) {
                return Ok(self.ax.entries[i as usize].1);
            }
        }
        if !self.ax.htm_stripe_clean(addr) {
            self.ax.htm_abort_cause = Some(HtmAbortCause::Conflict);
            return Err(Abort);
        }
        Ok(self.ax.s.load(addr))
    }

    /// Hardware-path write: buffered in the (volatile) write set. The
    /// capacity bound is the section's *distinct-line* footprint (what a
    /// real HTM tracks), not the entry count — many words on one line
    /// cost one footprint line.
    fn htm_write(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
        if !self.ax.s.htm_track_write(addr) {
            self.ax.htm_abort_cause = Some(HtmAbortCause::Capacity);
            return Err(Abort);
        }
        if let Some(i) = self.ax.redo_index.get(addr.0) {
            self.ax.entries[i as usize].1 = val;
            return Ok(());
        }
        self.ax.expect_access(addr, 1);
        self.ax.entries.push((addr.0, val));
        self.ax
            .redo_index
            .insert(addr.0, self.ax.entries.len() as u64 - 1);
        Ok(())
    }
}

/// Handle passed to transaction closures.
pub struct Tx<'a> {
    th: &'a mut TxThread,
}

impl Tx<'_> {
    /// Transactional 64-bit read.
    #[inline]
    pub fn read(&mut self, addr: PAddr) -> TxResult<u64> {
        self.th.tx_read(addr)
    }

    /// Transactional 64-bit write.
    #[inline]
    pub fn write(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
        self.th.tx_write(addr, val)
    }

    /// Tell the *host* that this transaction will read the `words` words
    /// from `addr` shortly, so the simulator's own cold lines behind
    /// those reads — each word's orec, each line's L3 tag slot and home
    /// word — are on their way when the reads arrive. Call it as soon as
    /// the address is known, at least one transactional access ahead of
    /// the first read it covers: a hint issued by the read itself is too
    /// late to hide anything (DESIGN.md §5 decision 17).
    ///
    /// It changes nothing the modelled machine or any observer of it can
    /// see — no virtual time, counter, read-set entry, hardware-section
    /// footprint, crash site or trace event — and accepts any span: the
    /// null address, a pool that does not exist, words past the pool's
    /// end and freed blocks are skipped.
    ///
    /// ```
    /// use pmem_sim::{Machine, MachineConfig, PAddr};
    /// use palloc::PHeap;
    /// use ptm::{Ptm, PtmConfig, TxThread};
    ///
    /// let m = Machine::new(MachineConfig::default());
    /// let heap = PHeap::format(&m, "heap", 1 << 12, 8);
    /// let mut th = TxThread::new(Ptm::new(PtmConfig::redo()), heap.clone(), m.session(0));
    /// let rows = heap.alloc(th.session_mut(), 64);
    /// let run = |th: &mut TxThread, hint: bool| {
    ///     m.clear_l3();
    ///     let t0 = th.session_mut().now();
    ///     let sum = th.run(|tx| {
    ///         if hint {
    ///             // Both rows are known before the first is read.
    ///             tx.expect_read(rows.offset(8), 3);
    ///             tx.expect_read(rows.offset(40), 3);
    ///             tx.expect_read(PAddr::NULL, 1 << 20);
    ///         }
    ///         Ok(tx.read_at(rows, 8)? + tx.read_at(rows, 40)?)
    ///     });
    ///     (sum, th.session_mut().now() - t0)
    /// };
    /// let plain = run(&mut th, false);
    /// assert_eq!(run(&mut th, true), plain, "same values, same virtual time");
    /// ```
    #[inline]
    pub fn expect_read(&mut self, addr: PAddr, words: u64) {
        self.th.ax.expect_access(addr, words);
    }

    /// Read `base + off` (field access sugar).
    #[inline]
    pub fn read_at(&mut self, base: PAddr, off: u64) -> TxResult<u64> {
        self.th.tx_read(base.offset(off))
    }

    /// Write `base + off`.
    #[inline]
    pub fn write_at(&mut self, base: PAddr, off: u64, val: u64) -> TxResult<()> {
        self.th.tx_write(base.offset(off), val)
    }

    /// Allocate from the persistent heap. Returned blocks are freed
    /// automatically if the transaction aborts.
    pub fn alloc(&mut self, words: usize) -> PAddr {
        let ax = &mut self.th.ax;
        let a = ax.heap.alloc(&mut ax.s, words);
        ax.tx_allocs.push(a);
        a
    }

    /// Free a block; deferred until the transaction commits.
    pub fn free(&mut self, addr: PAddr) {
        self.th.ax.tx_frees.push(addr);
    }

    /// Allocate a zeroed block with the alloc-new optimization: the
    /// zeroes are written directly (not logged — the block is unreachable
    /// until a logged pointer-write commits) and flushed with the commit.
    pub fn alloc_zeroed(&mut self, words: usize) -> PAddr {
        let ax = &mut self.th.ax;
        let a = ax.heap.alloc(&mut ax.s, words);
        for w in 0..words as u64 {
            ax.s.store(a.offset(w), 0);
        }
        ax.tx_allocs.push(a);
        ax.fresh_blocks.push((a.0, words));
        a
    }

    /// Read a pointer-valued word.
    #[inline]
    pub fn read_ptr(&mut self, addr: PAddr) -> TxResult<PAddr> {
        Ok(PAddr(self.th.tx_read(addr)?))
    }

    /// Write a pointer-valued word.
    #[inline]
    pub fn write_ptr(&mut self, addr: PAddr, p: PAddr) -> TxResult<()> {
        self.th.tx_write(addr, p.0)
    }
}
