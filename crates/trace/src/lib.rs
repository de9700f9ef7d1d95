//! # trace — a virtual-time flight recorder
//!
//! The paper's core findings are *temporal*: fence stalls inside critical
//! sections (§III-B), WPQ saturation under write bursts, and
//! contention-driven aborts all depend on *when* events happen. The
//! aggregate counters (`ptm::PtmStats`, `pmem_sim::MachineStats`) can say
//! ADR spends 36–65% of commit time persisting; they cannot say *which*
//! fence windows stall or *which* orecs thrash. This crate records the
//! event stream itself:
//!
//! * every virtual thread owns a fixed-capacity [`TraceRing`] — recording
//!   is a plain array store with no synchronization (the ring is owned by
//!   exactly one thread; "lock-free" by ownership, not by atomics);
//! * events are stamped in **virtual nanoseconds**, so tracing perturbs
//!   the measured timeline by *zero* virtual time by construction;
//! * overflow overwrites the oldest events and is **loss-accounted**: the
//!   ring knows exactly how many events it dropped, and every export
//!   surfaces the count (no silent caps);
//! * a shared [`TraceSink`] collects the rings when their threads finish
//!   and merges them into one timeline ordered by `(ts, tid, seq)` —
//!   deterministic for deterministic runs;
//! * [`export`] renders the merged timeline as Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`) or as a compact binary
//!   dump with an embedded counter block for offline cross-checking;
//! * [`fold`] is the one place an event's payload words are turned into
//!   counters ([`GaugeSet::apply`]): over a whole run for the counter
//!   cross-check, per sampling period for the `obs` time series;
//! * [`analyze`] derives an orec abort-attribution heatmap, a WPQ
//!   occupancy timeline with stall intervals, and per-fence-window flush
//!   counts — and cross-checks every folded total against the live
//!   counters so the trace and the counters can never silently disagree.
//!
//! The crate is dependency-free; `pmem-sim` and `ptm` embed it behind a
//! one-relaxed-load-when-off gate (same idiom as `pmem_sim::inject`).
//! Being the one crate every layer already depends on, it also hosts the
//! two things every layer's reporting shares: the declarative counter
//! tables ([`counters!`]) and the JSON writer/reader ([`json`]).

#![deny(unsafe_code)]

pub mod analyze;
pub mod counters;
pub mod export;
pub mod fold;
pub mod json;

pub use fold::GaugeSet;

use std::sync::{Arc, Mutex};

/// What happened. The `a`/`b` payload words of a [`TraceEvent`] are
/// interpreted per kind — see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Transaction attempt started. `a` = attempt number (0-based within
    /// this `run` call), `b` = start timestamp sampled from the global
    /// clock.
    TxBegin = 0,
    /// Transactional read validated and added to the read set.
    /// `a` = orec index, `b` = address bits.
    TxRead = 1,
    /// Transactional write recorded (redo-buffered or in-place).
    /// `a` = orec index, `b` = address bits.
    TxWrite = 2,
    /// Write orec acquired (encounter-time for undo, commit-time for
    /// redo). `a` = orec index, `b` = the pre-lock orec version.
    TxAcquire = 3,
    /// Commit-time read-set validation ran. `a` = read-set size in
    /// entries, `b` = commit timestamp.
    TxValidate = 4,
    /// Transaction committed. `a` = write-set size in log entries,
    /// `b` = 0 for software commits, 2 for `HtmLogged` hardware commits
    /// (aliased back-end logging), 3 for commits through the cross-shard
    /// handle.
    TxCommit = 5,
    /// Transaction attempt aborted. `a` = [`AbortCause`] code,
    /// `b` = the orec that caused it (0 when not orec-attributable).
    TxAbort = 6,
    /// Hardware-path attempt aborted. `a` = [`HtmAbortCause`] code,
    /// `b` = attempt number (0-based within this `run` call).
    HtmAbort = 7,
    /// Hardware retries exhausted; falling back to software.
    /// `a` = configured retry budget.
    HtmFallback = 8,
    /// `clwb` issued. `a` = global line key, `b` = 1 if the line was
    /// dirty (a writeback was issued), else 0.
    Clwb = 9,
    /// Batched flush drain started. `a` = lines in the batch.
    ClwbBatch = 10,
    /// `sfence` executed. `a` = virtual ns waited for WPQ acceptance of
    /// outstanding flushes (0 when the queue was idle). Timestamped at
    /// fence start, so `[ts, ts+a]` is the fence-wait interval.
    Sfence = 11,
    /// A flush was accepted by the WPQ. `a` = the accepting bank's
    /// backlog in virtual ns at acceptance (occupancy proxy),
    /// `b` = acceptance timestamp.
    WpqAccept = 12,
    /// The WPQ backlog bound was exceeded; the thread stalled
    /// synchronously. `a` = stall ns, `b` = backlog ns at issue.
    /// Timestamped at stall start, so `[ts, ts+a]` is the stall interval.
    WpqStall = 13,
    /// The simulated hardware section retired (HTM commit succeeded).
    /// Everything between the attempt's [`EventKind::TxBegin`] and this
    /// event executed *inside* the section, so no [`EventKind::Clwb`] or
    /// [`EventKind::Sfence`] may appear in that window. `a` = footprint
    /// in distinct cache lines, `b` = write-set size in log entries.
    HtmRetire = 20,
    /// Contention backoff started (STM retry or HTM inter-attempt
    /// pause). `a` = backoff duration in virtual ns, `b` = the failed
    /// attempt number. Timestamped at backoff start, so `[ts, ts+a]`
    /// is the backoff interval.
    Backoff = 21,
    /// An open-loop front-end request waited in the arrival queue
    /// before its worker picked it up. `a` = queue wait in virtual ns
    /// (0 when the worker was already behind the arrival), `b` = the
    /// request's arrival timestamp. Emitted at dequeue, timestamped at
    /// service start.
    QueueWait = 22,
}

impl EventKind {
    pub const COUNT: usize = 17;

    /// All kinds, in code order. Codes 14–16, 18 and 19 belonged to
    /// recovery and restart-GC events nothing records, and code 17 to
    /// the deleted group-commit fence join; they stay unassigned, so a
    /// dump holding one fails to read.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::TxBegin,
        EventKind::TxRead,
        EventKind::TxWrite,
        EventKind::TxAcquire,
        EventKind::TxValidate,
        EventKind::TxCommit,
        EventKind::TxAbort,
        EventKind::HtmAbort,
        EventKind::HtmFallback,
        EventKind::Clwb,
        EventKind::ClwbBatch,
        EventKind::Sfence,
        EventKind::WpqAccept,
        EventKind::WpqStall,
        EventKind::HtmRetire,
        EventKind::Backoff,
        EventKind::QueueWait,
    ];

    /// Stable wire/display name.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::TxBegin => "tx_begin",
            EventKind::TxRead => "tx_read",
            EventKind::TxWrite => "tx_write",
            EventKind::TxAcquire => "tx_acquire",
            EventKind::TxValidate => "tx_validate",
            EventKind::TxCommit => "tx_commit",
            EventKind::TxAbort => "tx_abort",
            EventKind::HtmAbort => "htm_abort",
            EventKind::HtmFallback => "htm_fallback",
            EventKind::Clwb => "clwb",
            EventKind::ClwbBatch => "clwb_batch",
            EventKind::Sfence => "sfence",
            EventKind::WpqAccept => "wpq_accept",
            EventKind::WpqStall => "wpq_stall",
            EventKind::HtmRetire => "htm_retire",
            EventKind::Backoff => "backoff",
            EventKind::QueueWait => "queue_wait",
        }
    }

    /// Decode a wire code (`None` for an unassigned one).
    pub fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|&k| k as u8 == code)
    }
}

/// Why a transaction attempt aborted (the `a` word of a
/// [`EventKind::TxAbort`] event). Mirrors the per-cause counters in
/// `ptm::PtmStats` plus `User` for `Err(Abort)` escaping the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbortCause {
    /// User code returned `Err(Abort)` (explicit retry).
    User = 0,
    /// A read found the orec locked past the spin budget.
    ReadLocked = 1,
    /// A read observed a too-new or unstable orec version.
    ReadVersion = 2,
    /// A write-orec acquisition failed (locked or too new).
    Acquire = 3,
    /// Commit-time read-set validation failed.
    Validation = 4,
}

impl AbortCause {
    pub const COUNT: usize = 5;
    pub const ALL: [AbortCause; AbortCause::COUNT] = [
        AbortCause::User,
        AbortCause::ReadLocked,
        AbortCause::ReadVersion,
        AbortCause::Acquire,
        AbortCause::Validation,
    ];

    pub fn label(self) -> &'static str {
        match self {
            AbortCause::User => "user",
            AbortCause::ReadLocked => "read_locked",
            AbortCause::ReadVersion => "read_version",
            AbortCause::Acquire => "acquire",
            AbortCause::Validation => "validation",
        }
    }

    pub fn from_code(code: u64) -> Option<AbortCause> {
        AbortCause::ALL.get(code as usize).copied()
    }
}

/// Why a hardware-path attempt aborted (the `a` word of an
/// [`EventKind::HtmAbort`] event). Mirrors the per-cause
/// `htm_*_aborts` counters in `ptm::PtmStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HtmAbortCause {
    /// The section's line footprint exceeded the model's capacity.
    Capacity = 0,
    /// A concurrent committer touched a line in the section's footprint
    /// (coherence conflict), or a read saw a locked/too-new orec.
    Conflict = 1,
    /// The policy aborted the section explicitly (e.g. the back-end log
    /// ring was full and needed a reset outside the section).
    Explicit = 2,
}

impl HtmAbortCause {
    pub const COUNT: usize = 3;
    pub const ALL: [HtmAbortCause; HtmAbortCause::COUNT] = [
        HtmAbortCause::Capacity,
        HtmAbortCause::Conflict,
        HtmAbortCause::Explicit,
    ];

    pub fn label(self) -> &'static str {
        match self {
            HtmAbortCause::Capacity => "capacity",
            HtmAbortCause::Conflict => "conflict",
            HtmAbortCause::Explicit => "explicit",
        }
    }

    pub fn from_code(code: u64) -> Option<HtmAbortCause> {
        HtmAbortCause::ALL.get(code as usize).copied()
    }
}

/// One recorded event: a virtual timestamp, a kind, and two payload words
/// interpreted per [`EventKind`]. 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub ts: u64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

/// A fixed-capacity, single-owner ring buffer of [`TraceEvent`]s.
///
/// Owned by exactly one virtual thread, so recording is a plain indexed
/// store — no atomics, no locks, no allocation after construction.
/// Overflow overwrites the oldest events; the total recorded count keeps
/// running, so [`TraceRing::dropped`] is exact.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Total events ever recorded (monotonic; `head % cap` is the next
    /// write slot once the ring has wrapped).
    head: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> TraceRing {
        let cap = cap.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
        }
    }

    /// Record one event. O(1), never fails; overwrites the oldest event
    /// when full (accounted by [`TraceRing::dropped`]).
    #[inline]
    pub fn record(&mut self, ts: u64, kind: EventKind, a: u64, b: u64) {
        let ev = TraceEvent { ts, kind, a, b };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            let slot = (self.head % self.cap as u64) as usize;
            self.buf[slot] = ev;
        }
        self.head += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.head
    }

    /// Events lost to overflow (oldest-first overwrites).
    pub fn dropped(&self) -> u64 {
        self.head - self.buf.len() as u64
    }

    /// The surviving events, oldest first.
    pub fn ordered(&self) -> Vec<TraceEvent> {
        if self.head <= self.cap as u64 {
            return self.buf.clone();
        }
        // Wrapped: the oldest surviving event sits at the next write slot.
        let split = (self.head % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[split..]);
        out.extend_from_slice(&self.buf[..split]);
        out
    }
}

/// One finished thread's contribution to a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    pub tid: u32,
    /// Surviving events, oldest first (timestamps non-decreasing: each
    /// virtual thread's clock is monotonic).
    pub events: Vec<TraceEvent>,
    /// Events this thread's ring overwrote (loss accounting).
    pub dropped: u64,
}

/// An event in the merged, cross-thread timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedEvent {
    pub ts: u64,
    pub tid: u32,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

/// Shard attribution: a sink created with [`TraceSink::new_for_shard`]
/// packs its shard index into the high bits of every submitted thread
/// id, so a merged multi-shard timeline keeps per-shard attribution
/// without widening the event format.
pub const SHARD_SHIFT: u32 = 20;

/// The shard a (possibly tagged) thread id belongs to.
#[inline]
pub fn shard_of_tid(tid: u32) -> u32 {
    tid >> SHARD_SHIFT
}

/// The within-shard thread id of a (possibly tagged) thread id.
#[inline]
pub fn local_tid(tid: u32) -> u32 {
    tid & ((1 << SHARD_SHIFT) - 1)
}

/// Collects per-thread rings and merges them by virtual timestamp.
///
/// Threads record into their own [`TraceRing`]s without synchronization;
/// the sink's mutex is only taken when a finished thread submits its ring
/// (once per thread per run) and at export time.
#[derive(Debug)]
pub struct TraceSink {
    ring_capacity: usize,
    /// `shard << SHARD_SHIFT`, OR-ed onto submitted thread ids (0 for
    /// unsharded sinks, leaving ids untouched).
    shard_tag: u32,
    threads: Mutex<Vec<ThreadTrace>>,
}

impl TraceSink {
    /// A sink handing out rings of `ring_capacity` events each.
    pub fn new(ring_capacity: usize) -> Arc<TraceSink> {
        TraceSink::new_for_shard(ring_capacity, 0)
    }

    /// A sink for shard `shard` of a sharded engine: submitted thread
    /// ids are tagged with the shard index (see [`SHARD_SHIFT`]).
    /// Panics unless the index fits the tag's `32 - SHARD_SHIFT` bits:
    /// a wider one would tag as a smaller shard.
    pub fn new_for_shard(ring_capacity: usize, shard: u32) -> Arc<TraceSink> {
        assert!(
            shard < 1 << (32 - SHARD_SHIFT),
            "shard {shard} does not fit a trace thread-id tag (at most {} shards)",
            1u32 << (32 - SHARD_SHIFT)
        );
        Arc::new(TraceSink {
            ring_capacity: ring_capacity.max(1),
            shard_tag: shard << SHARD_SHIFT,
            threads: Mutex::new(Vec::new()),
        })
    }

    /// The shard index this sink tags its threads with.
    pub fn shard(&self) -> u32 {
        self.shard_tag >> SHARD_SHIFT
    }

    /// Default per-thread capacity: large enough that the analyzer runs
    /// and CI smokes are lossless at their op counts (~32 events per
    /// small transaction), small enough to stay cheap (2 MiB/thread).
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

    /// A fresh ring for one thread.
    pub fn ring(&self) -> TraceRing {
        TraceRing::new(self.ring_capacity)
    }

    /// Submit a finished thread's ring, its id tagged with the sink's
    /// shard. Called once per thread at session teardown.
    pub fn submit(&self, tid: u32, ring: &TraceRing) {
        if ring.recorded() == 0 {
            return;
        }
        self.threads.lock().unwrap().push(ThreadTrace {
            tid: tid | self.shard_tag,
            events: ring.ordered(),
            dropped: ring.dropped(),
        });
    }

    /// Per-thread traces submitted so far, sorted by thread id (stable
    /// across submission races).
    pub fn threads(&self) -> Vec<ThreadTrace> {
        let mut v = self.threads.lock().unwrap().clone();
        v.sort_by_key(|t| t.tid);
        v
    }

    /// Total events dropped across all threads.
    pub fn dropped_events(&self) -> u64 {
        self.threads.lock().unwrap().iter().map(|t| t.dropped).sum()
    }

    /// The merged timeline: all threads' events ordered by
    /// `(ts, tid, per-thread sequence)`. Deterministic for deterministic
    /// runs; timestamps are non-decreasing.
    pub fn merged(&self) -> Vec<MergedEvent> {
        merge_threads(&self.threads())
    }

    /// Drop all submitted traces (reuse the sink for another run).
    pub fn clear(&self) {
        self.threads.lock().unwrap().clear();
    }
}

/// Merge per-thread traces into one `(ts, tid, seq)`-ordered timeline.
pub fn merge_threads(threads: &[ThreadTrace]) -> Vec<MergedEvent> {
    let total = threads.iter().map(|t| t.events.len()).sum();
    let mut out: Vec<(u64, u32, u32, MergedEvent)> = Vec::with_capacity(total);
    for t in threads {
        for (seq, ev) in t.events.iter().enumerate() {
            out.push((
                ev.ts,
                t.tid,
                seq as u32,
                MergedEvent {
                    ts: ev.ts,
                    tid: t.tid,
                    kind: ev.kind,
                    a: ev.a,
                    b: ev.b,
                },
            ));
        }
    }
    out.sort_unstable_by_key(|&(ts, tid, seq, _)| (ts, tid, seq));
    out.into_iter().map(|(_, _, _, ev)| ev).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_in_order_below_capacity() {
        let mut r = TraceRing::new(8);
        for i in 0..5u64 {
            r.record(i * 10, EventKind::Clwb, i, 0);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 0);
        let ev = r.ordered();
        assert_eq!(ev.len(), 5);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.a, i as u64);
        }
    }

    #[test]
    fn ring_wraps_overwriting_oldest_and_accounts_drops() {
        let mut r = TraceRing::new(4);
        for i in 0..11u64 {
            r.record(i, EventKind::TxCommit, i, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 11);
        assert_eq!(r.dropped(), 7, "11 recorded - 4 held");
        // Survivors are the newest four, oldest first.
        let ev = r.ordered();
        let seq: Vec<u64> = ev.iter().map(|e| e.a).collect();
        assert_eq!(seq, vec![7, 8, 9, 10]);
        // Timestamps non-decreasing.
        assert!(ev.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn ring_wrap_exactly_at_capacity_boundary() {
        let mut r = TraceRing::new(3);
        for i in 0..3u64 {
            r.record(i, EventKind::Sfence, i, 0);
        }
        assert_eq!(r.dropped(), 0);
        let seq: Vec<u64> = r.ordered().iter().map(|e| e.a).collect();
        assert_eq!(seq, vec![0, 1, 2]);
        r.record(3, EventKind::Sfence, 3, 0);
        assert_eq!(r.dropped(), 1);
        let seq: Vec<u64> = r.ordered().iter().map(|e| e.a).collect();
        assert_eq!(seq, vec![1, 2, 3]);
    }

    #[test]
    fn merged_timestamps_are_non_decreasing_across_threads() {
        let sink = TraceSink::new(64);
        // Thread 0: ts 0, 10, 20, ... ; thread 1: ts 5, 15, 25, ...
        let mut r0 = sink.ring();
        let mut r1 = sink.ring();
        for i in 0..10u64 {
            r0.record(i * 10, EventKind::Clwb, i, 0);
            r1.record(i * 10 + 5, EventKind::Sfence, i, 0);
        }
        sink.submit(1, &r1); // submission order must not matter
        sink.submit(0, &r0);
        let merged = sink.merged();
        assert_eq!(merged.len(), 20);
        assert!(
            merged.windows(2).all(|w| w[0].ts <= w[1].ts),
            "merged timestamps must be non-decreasing"
        );
        // Equal-ts ties (none here) aside, the interleave alternates.
        let tids: Vec<u32> = merged.iter().take(4).map(|e| e.tid).collect();
        assert_eq!(tids, vec![0, 1, 0, 1]);
    }

    #[test]
    fn merge_breaks_ties_by_tid_then_sequence() {
        let sink = TraceSink::new(8);
        let mut r0 = sink.ring();
        let mut r1 = sink.ring();
        // Same timestamp everywhere: order must be (tid, seq).
        r1.record(7, EventKind::TxBegin, 100, 0);
        r1.record(7, EventKind::TxCommit, 101, 0);
        r0.record(7, EventKind::TxBegin, 200, 0);
        sink.submit(1, &r1);
        sink.submit(0, &r0);
        let m = sink.merged();
        let key: Vec<(u32, u64)> = m.iter().map(|e| (e.tid, e.a)).collect();
        assert_eq!(key, vec![(0, 200), (1, 100), (1, 101)]);
    }

    #[test]
    fn sink_accounts_dropped_events() {
        let sink = TraceSink::new(2);
        let mut r = sink.ring();
        for i in 0..5u64 {
            r.record(i, EventKind::Clwb, i, 0);
        }
        sink.submit(3, &r);
        assert_eq!(sink.dropped_events(), 3);
        let t = sink.threads();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].tid, 3);
        assert_eq!(t[0].dropped, 3);
    }

    #[test]
    fn empty_rings_are_not_submitted() {
        let sink = TraceSink::new(4);
        let r = sink.ring();
        sink.submit(0, &r);
        assert!(sink.threads().is_empty());
    }

    #[test]
    fn shard_sinks_tag_thread_ids() {
        let sink = TraceSink::new_for_shard(4, 2);
        assert_eq!(sink.shard(), 2);
        let mut r = sink.ring();
        r.record(1, EventKind::Clwb, 0, 0);
        sink.submit(1, &r);
        sink.submit(5, &r);
        let tids: Vec<u32> = sink.threads().iter().map(|t| t.tid).collect();
        assert_eq!(tids, [(2 << SHARD_SHIFT) | 1, (2 << SHARD_SHIFT) | 5]);
        assert_eq!((shard_of_tid(tids[0]), local_tid(tids[0])), (2, 1));
        assert_eq!((shard_of_tid(tids[1]), local_tid(tids[1])), (2, 5));
        // Unsharded sinks leave ids untouched.
        let plain = TraceSink::new(4);
        plain.submit(1, &r);
        assert_eq!(plain.threads()[0].tid, 1);
    }

    #[test]
    fn highest_shard_the_tag_holds_is_accepted() {
        let last = (1 << (32 - SHARD_SHIFT)) - 1;
        assert_eq!(last, 4095);
        let sink = TraceSink::new_for_shard(4, last);
        assert_eq!(sink.shard(), last);
        let mut r = sink.ring();
        r.record(1, EventKind::Clwb, 0, 0);
        sink.submit(3, &r);
        let tid = sink.threads()[0].tid;
        assert_eq!((shard_of_tid(tid), local_tid(tid)), (last, 3));
    }

    #[test]
    #[should_panic(expected = "shard 4096 does not fit")]
    fn a_shard_past_the_tag_panics() {
        TraceSink::new_for_shard(4, 1 << (32 - SHARD_SHIFT));
    }

    #[test]
    fn kind_codes_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_code(k as u8), Some(k));
        }
        for code in [14, 15, 16, 17, 18, 19, 23] {
            assert_eq!(EventKind::from_code(code), None, "code {code}");
        }
        assert!(EventKind::ALL
            .windows(2)
            .all(|w| (w[0] as u8) < (w[1] as u8)));
        for (i, c) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(AbortCause::from_code(i as u64), Some(*c));
        }
        assert_eq!(AbortCause::from_code(AbortCause::COUNT as u64), None);
        for (i, c) in HtmAbortCause::ALL.iter().enumerate() {
            assert_eq!(HtmAbortCause::from_code(i as u64), Some(*c));
        }
        assert_eq!(HtmAbortCause::from_code(HtmAbortCause::COUNT as u64), None);
    }
}
