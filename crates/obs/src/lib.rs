//! # obs — continuous virtual-time telemetry
//!
//! The counters (`ptm::PtmStats`, `pmem_sim::MemStats`) answer "how much,
//! in total"; the flight recorder (`crates/trace`) answers "what happened,
//! event by event". This crate fills the gap in between: *how do the
//! engine's gauges evolve over a run*, and *what exactly is a tail latency
//! made of*.
//!
//! Three layers:
//!
//! * a **time-series sampler** ([`Sampler`] / [`SampleRing`]): every event
//!   that reaches `MemSession::trace_event` is also folded into a
//!   [`GaugeSet`] accumulator; when virtual time crosses a sampling-period
//!   boundary the accumulator is flushed as one [`Sample`] into a
//!   fixed-capacity per-thread ring. Sampling adds **zero virtual time**
//!   (the ingest path never touches the clock) and is deterministic:
//!   sample contents depend only on each thread's deterministic virtual
//!   execution, and merged series are ordered by `(ts, tid, seq)` —
//!   independent of OS scheduling or submission order (see
//!   [`merge_samplers`]);
//! * **critical-path span reconstruction** ([`spans`]): rebuild
//!   per-transaction span trees from trace events and decompose exact
//!   p50/p95/p99 latencies into queue wait, execution, commit protocol,
//!   log flush, fence wait, WPQ stall, backoff and rollback;
//! * a **trend guard** ([`trend`]): diff archived `results/BENCH_*.json`
//!   files across PRs and flag metric regressions beyond a tolerance.
//!
//! The sampler arms exactly like the tracer: `Machine::attach_sampler`
//! stores an `Arc<Sampler>`; each session created while armed carries a
//! private [`SampleRing`] and submits it back on drop. One relaxed
//! atomic load when disarmed — the disabled path is bit-identical to a
//! build without telemetry.

pub mod export;
pub mod series;
pub mod spans;
pub mod trend;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use trace::{AbortCause, EventKind, HtmAbortCause};

/// Default sampling period: 10 µs of simulated time.
pub const DEFAULT_PERIOD_NS: u64 = 10_000;

/// Default per-thread sample-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 12;

/// One sampling window's worth of gauge deltas and high-waters.
///
/// Counters are deltas *within the window*; `*_hw_ns` fields are
/// high-water gauges (maxima observed within the window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSet {
    /// Committed transactions (software + hardware paths).
    pub commits: u64,
    /// Hardware-path commits (plain HTM or `HtmLogged`).
    pub htm_commits: u64,
    /// Commits issued through the cross-shard handle (`TxCommit` with
    /// `b == 3`), 2PC and single-shard-fast-path alike.
    pub twopc_commits: u64,
    /// Software aborts by [`AbortCause`] code.
    pub aborts: [u64; AbortCause::COUNT],
    /// Hardware aborts by [`HtmAbortCause`] code (PR 8 cause split).
    pub htm_aborts: [u64; HtmAbortCause::COUNT],
    /// Hardware retry budgets exhausted (software fallbacks).
    pub htm_fallbacks: u64,
    /// Transactional reads + writes (load proxy).
    pub reads: u64,
    pub writes: u64,
    /// Redo/undo/shadow log entries persisted by commits
    /// (`TxCommit.a`), and HTM back-end ring-log entries retired
    /// (`HtmRetire.b` — the `HtmLogged` ring-log occupancy proxy).
    pub log_entries: u64,
    pub htm_log_entries: u64,
    /// Own `sfence`s executed and virtual ns waited in them.
    pub sfences: u64,
    pub fence_wait_ns: u64,
    /// Group-commit window joins (fences elided) and ns waited for the
    /// covering fence.
    pub fence_joins: u64,
    pub join_wait_ns: u64,
    /// Cache-line write-backs issued and batched drains started.
    pub clwbs: u64,
    pub clwb_batches: u64,
    /// Flushes accepted by the WPQ, and the highest accepting-bank
    /// backlog (virtual ns) seen at acceptance — the WPQ occupancy
    /// gauge.
    pub wpq_accepts: u64,
    pub wpq_backlog_hw_ns: u64,
    /// Synchronous WPQ stalls and total stall ns.
    pub wpq_stalls: u64,
    pub wpq_stall_ns: u64,
    /// Contention backoffs: total ns slept and the single longest
    /// backoff in the window (high-water).
    pub backoffs: u64,
    pub backoff_ns: u64,
    pub backoff_hw_ns: u64,
    /// Open-loop front-end queue waits observed at dequeue.
    pub queue_waits: u64,
    pub queue_wait_ns: u64,
}

impl GaugeSet {
    /// True when no event touched the window.
    pub fn is_empty(&self) -> bool {
        *self == GaugeSet::default()
    }

    /// Fold one trace event into the window.
    pub fn apply(&mut self, kind: EventKind, a: u64, b: u64) {
        match kind {
            EventKind::TxCommit => {
                self.commits += 1;
                self.log_entries += a;
                if b == 1 || b == 2 {
                    self.htm_commits += 1;
                }
                if b == 3 {
                    self.twopc_commits += 1;
                }
            }
            EventKind::TxAbort => {
                let c = AbortCause::from_code(a).map_or(AbortCause::User as usize, |c| c as usize);
                self.aborts[c] += 1;
            }
            EventKind::HtmAbort => {
                let c = HtmAbortCause::from_code(a)
                    .map_or(HtmAbortCause::Explicit as usize, |c| c as usize);
                self.htm_aborts[c] += 1;
            }
            EventKind::HtmFallback => self.htm_fallbacks += 1,
            EventKind::HtmRetire => self.htm_log_entries += b,
            EventKind::TxRead => self.reads += 1,
            EventKind::TxWrite => self.writes += 1,
            EventKind::Sfence => {
                self.sfences += 1;
                self.fence_wait_ns += a;
            }
            EventKind::FenceJoin => {
                self.fence_joins += 1;
                self.join_wait_ns += a;
            }
            EventKind::Clwb => self.clwbs += 1,
            EventKind::ClwbBatch => self.clwb_batches += 1,
            EventKind::WpqAccept => {
                self.wpq_accepts += 1;
                self.wpq_backlog_hw_ns = self.wpq_backlog_hw_ns.max(a);
            }
            EventKind::WpqStall => {
                self.wpq_stalls += 1;
                self.wpq_stall_ns += a;
            }
            EventKind::Backoff => {
                self.backoffs += 1;
                self.backoff_ns += a;
                self.backoff_hw_ns = self.backoff_hw_ns.max(a);
            }
            EventKind::QueueWait => {
                self.queue_waits += 1;
                self.queue_wait_ns += a;
            }
            // Begin/acquire/validate and recovery events carry no gauge.
            _ => {}
        }
    }

    /// Accumulate another window into this one (counter deltas add,
    /// high-waters take the max).
    pub fn merge(&mut self, o: &GaugeSet) {
        self.commits += o.commits;
        self.htm_commits += o.htm_commits;
        self.twopc_commits += o.twopc_commits;
        for (d, s) in self.aborts.iter_mut().zip(o.aborts.iter()) {
            *d += s;
        }
        for (d, s) in self.htm_aborts.iter_mut().zip(o.htm_aborts.iter()) {
            *d += s;
        }
        self.htm_fallbacks += o.htm_fallbacks;
        self.reads += o.reads;
        self.writes += o.writes;
        self.log_entries += o.log_entries;
        self.htm_log_entries += o.htm_log_entries;
        self.sfences += o.sfences;
        self.fence_wait_ns += o.fence_wait_ns;
        self.fence_joins += o.fence_joins;
        self.join_wait_ns += o.join_wait_ns;
        self.clwbs += o.clwbs;
        self.clwb_batches += o.clwb_batches;
        self.wpq_accepts += o.wpq_accepts;
        self.wpq_backlog_hw_ns = self.wpq_backlog_hw_ns.max(o.wpq_backlog_hw_ns);
        self.wpq_stalls += o.wpq_stalls;
        self.wpq_stall_ns += o.wpq_stall_ns;
        self.backoffs += o.backoffs;
        self.backoff_ns += o.backoff_ns;
        self.backoff_hw_ns = self.backoff_hw_ns.max(o.backoff_hw_ns);
        self.queue_waits += o.queue_waits;
        self.queue_wait_ns += o.queue_wait_ns;
    }

    /// Total aborts across causes.
    pub fn aborts_total(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Total hardware aborts across causes.
    pub fn htm_aborts_total(&self) -> u64 {
        self.htm_aborts.iter().sum()
    }
}

/// One flushed sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Window start (a multiple of the sampling period).
    pub ts: u64,
    /// Flush order within the producing thread (dense, from 0).
    pub seq: u32,
    /// The window's gauges.
    pub g: GaugeSet,
}

/// Single-owner per-thread sample ring. Events are bucketed into
/// period-aligned windows; a window is flushed when virtual time first
/// crosses its end. Empty windows are skipped (idle time produces no
/// samples), and when the ring is full the *oldest* sample is dropped —
/// the tail of a run is always retained, and the loss is exact in
/// [`SampleRing::dropped`].
#[derive(Debug)]
pub struct SampleRing {
    period_ns: u64,
    capacity: usize,
    /// Window currently accumulating (index = ts / period).
    window: Option<u64>,
    acc: GaugeSet,
    seq: u32,
    samples: std::collections::VecDeque<Sample>,
    dropped: u64,
}

impl SampleRing {
    pub fn new(period_ns: u64, capacity: usize) -> SampleRing {
        SampleRing {
            period_ns: period_ns.max(1),
            capacity: capacity.max(1),
            window: None,
            acc: GaugeSet::default(),
            seq: 0,
            samples: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// Fold one event into the ring, flushing completed windows first.
    pub fn ingest(&mut self, ts: u64, kind: EventKind, a: u64, b: u64) {
        let w = ts / self.period_ns;
        match self.window {
            Some(cur) if cur == w => {}
            Some(_) => self.flush(),
            None => {}
        }
        self.window = Some(w);
        self.acc.apply(kind, a, b);
    }

    fn flush(&mut self) {
        if let Some(w) = self.window.take() {
            if !self.acc.is_empty() {
                if self.samples.len() == self.capacity {
                    self.samples.pop_front();
                    self.dropped += 1;
                }
                self.samples.push_back(Sample {
                    ts: w * self.period_ns,
                    seq: self.seq,
                    g: self.acc,
                });
                self.seq += 1;
            }
            self.acc = GaugeSet::default();
        }
    }

    /// Windows flushed out of the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Samples currently held (final partial window included only after
    /// [`SampleRing::finish`]).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Flush the trailing partial window and drain the ring.
    pub fn finish(mut self) -> (Vec<Sample>, u64) {
        self.flush();
        (self.samples.into_iter().collect(), self.dropped)
    }
}

/// One thread's submitted series.
#[derive(Debug, Clone)]
pub struct ThreadSeries {
    /// Virtual thread id, shard-tagged like [`trace::TraceSink`] tids.
    pub tid: u32,
    pub samples: Vec<Sample>,
    pub dropped: u64,
}

/// Shared collector for sampled series, armed on a
/// `pmem_sim::Machine` exactly like `trace::TraceSink`.
///
/// In sharded engines, create one sampler per shard with
/// [`Sampler::new_for_shard`]; submitted thread ids are tagged with the
/// shard (see [`trace::shard_of_tid`]) so merged series stay
/// attributable.
#[derive(Debug)]
pub struct Sampler {
    period_ns: u64,
    capacity: usize,
    shard_tag: u32,
    threads: Mutex<Vec<ThreadSeries>>,
    dropped_total: AtomicU64,
}

impl Sampler {
    pub fn new(period_ns: u64, capacity: usize) -> Sampler {
        Sampler {
            period_ns: period_ns.max(1),
            capacity: capacity.max(1),
            shard_tag: 0,
            threads: Mutex::new(Vec::new()),
            dropped_total: AtomicU64::new(0),
        }
    }

    /// A sampler whose submitted tids are tagged as belonging to
    /// `shard` (mirrors `TraceSink::new_for_shard`).
    pub fn new_for_shard(period_ns: u64, capacity: usize, shard: usize) -> Sampler {
        let mut s = Sampler::new(period_ns, capacity);
        s.shard_tag = (shard as u32) << trace::SHARD_SHIFT;
        s
    }

    /// Sampler with the default period and ring capacity.
    pub fn with_defaults() -> Sampler {
        Sampler::new(DEFAULT_PERIOD_NS, DEFAULT_RING_CAPACITY)
    }

    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// The shard this sampler tags submissions with.
    pub fn shard(&self) -> u32 {
        self.shard_tag >> trace::SHARD_SHIFT
    }

    /// A fresh ring for one session to own.
    pub fn ring(&self) -> SampleRing {
        SampleRing::new(self.period_ns, self.capacity)
    }

    /// Accept a finished ring. Recovery-band tids keep their reserved
    /// ids; everything else is shard-tagged.
    pub fn submit(&self, tid: u32, ring: SampleRing) {
        let (samples, dropped) = ring.finish();
        if samples.is_empty() && dropped == 0 {
            return;
        }
        let tagged = if trace::is_recovery_tid(tid) {
            tid
        } else {
            self.shard_tag | tid
        };
        self.dropped_total.fetch_add(dropped, Ordering::Relaxed);
        let mut threads = self.threads.lock().unwrap();
        threads.push(ThreadSeries {
            tid: tagged,
            samples,
            dropped,
        });
        threads.sort_by_key(|t| t.tid);
    }

    /// Submitted per-thread series, sorted by tid.
    pub fn threads(&self) -> Vec<ThreadSeries> {
        self.threads.lock().unwrap().clone()
    }

    /// Total samples dropped across all submitted rings.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }

    /// Drop all submitted series (between setup and measured phases).
    pub fn clear(&self) {
        self.threads.lock().unwrap().clear();
        self.dropped_total.store(0, Ordering::Relaxed);
    }
}

/// One sample in a merged, deterministic multi-thread timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedSample {
    pub ts: u64,
    pub tid: u32,
    pub seq: u32,
    pub g: GaugeSet,
}

/// Merge any number of samplers' series into one timeline ordered by
/// `(ts, tid, seq)`. The order — and every sample's content — is a pure
/// function of each thread's deterministic virtual execution, so the
/// merged series is identical regardless of shard/thread retirement
/// order or submission interleaving.
pub fn merge_samplers(samplers: &[&Sampler]) -> Vec<MergedSample> {
    let mut out = Vec::new();
    for s in samplers {
        for t in s.threads() {
            out.extend(t.samples.iter().map(|s| MergedSample {
                ts: s.ts,
                tid: t.tid,
                seq: s.seq,
                g: s.g,
            }));
        }
    }
    out.sort_by_key(|s| (s.ts, s.tid, s.seq));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_windows_flush_on_crossing() {
        let mut r = SampleRing::new(100, 8);
        r.ingest(10, EventKind::TxCommit, 3, 0);
        r.ingest(90, EventKind::Sfence, 40, 0);
        assert_eq!(r.len(), 0, "window still open");
        r.ingest(150, EventKind::TxCommit, 2, 0);
        assert_eq!(r.len(), 1);
        let (samples, dropped) = r.finish();
        assert_eq!(dropped, 0);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].ts, 0);
        assert_eq!(samples[0].g.commits, 1);
        assert_eq!(samples[0].g.log_entries, 3);
        assert_eq!(samples[0].g.sfences, 1);
        assert_eq!(samples[0].g.fence_wait_ns, 40);
        assert_eq!(samples[1].ts, 100);
        assert_eq!(samples[1].g.commits, 1);
    }

    #[test]
    fn ring_skips_empty_windows_and_drops_oldest() {
        let mut r = SampleRing::new(10, 2);
        for w in [0u64, 5, 9] {
            // Windows 0, 5 and 9 get events; 1-4 and 6-8 stay empty.
            r.ingest(w * 10 + 1, EventKind::Clwb, w, 1);
        }
        let (samples, dropped) = r.finish();
        assert_eq!(dropped, 1, "capacity 2, three non-empty windows");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].ts, 50);
        assert_eq!(samples[1].ts, 90);
        assert_eq!(samples[1].seq, 2, "seq counts all flushes, kept or not");
    }

    #[test]
    fn gauge_apply_covers_cause_splits() {
        let mut g = GaugeSet::default();
        g.apply(EventKind::TxAbort, AbortCause::Validation as u64, 7);
        g.apply(EventKind::HtmAbort, HtmAbortCause::Capacity as u64, 0);
        g.apply(EventKind::WpqAccept, 500, 10);
        g.apply(EventKind::WpqAccept, 200, 11);
        g.apply(EventKind::Backoff, 64, 1);
        g.apply(EventKind::Backoff, 640, 2);
        g.apply(EventKind::QueueWait, 30, 12);
        assert_eq!(g.aborts[AbortCause::Validation as usize], 1);
        assert_eq!(g.htm_aborts[HtmAbortCause::Capacity as usize], 1);
        assert_eq!(g.wpq_backlog_hw_ns, 500);
        assert_eq!(g.backoff_ns, 704);
        assert_eq!(g.backoff_hw_ns, 640);
        assert_eq!(g.queue_wait_ns, 30);
        let mut sum = GaugeSet::default();
        sum.merge(&g);
        sum.merge(&g);
        assert_eq!(sum.aborts_total(), 2);
        assert_eq!(sum.wpq_backlog_hw_ns, 500, "high-water takes max");
    }

    #[test]
    fn sampler_tags_shards_and_merges_deterministically() {
        let a = Sampler::new_for_shard(100, 16, 2);
        let b = Sampler::new_for_shard(100, 16, 0);
        let mut r0 = a.ring();
        r0.ingest(10, EventKind::TxCommit, 1, 0);
        let mut r1 = b.ring();
        r1.ingest(5, EventKind::TxCommit, 1, 0);
        a.submit(1, r0);
        b.submit(1, r1);
        let merged = merge_samplers(&[&a, &b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(trace::shard_of_tid(merged[0].tid), 0);
        assert_eq!(trace::shard_of_tid(merged[1].tid), 2);
        assert_eq!(trace::local_tid(merged[1].tid), 1);
        // Submission order must not matter: rebuild reversed.
        let a2 = Sampler::new_for_shard(100, 16, 2);
        let b2 = Sampler::new_for_shard(100, 16, 0);
        let mut r0 = a2.ring();
        r0.ingest(10, EventKind::TxCommit, 1, 0);
        let mut r1 = b2.ring();
        r1.ingest(5, EventKind::TxCommit, 1, 0);
        b2.submit(1, r1);
        a2.submit(1, r0);
        let merged2 = merge_samplers(&[&a2, &b2]);
        assert_eq!(merged, merged2);
    }
}
