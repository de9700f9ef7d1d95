//! The one event fold: what an event's payload words count toward.
//!
//! [`GaugeSet::apply`] is the only place in the workspace that turns a
//! recorded event into counters. Folded over a whole run
//! ([`GaugeSet::of_run`]) it yields the totals [`crate::analyze::crosscheck`]
//! holds against the live counters; folded per sampling period it yields
//! the windows of the `obs` time series. Both views therefore agree on
//! what every `a`/`b` word means by construction.

use crate::{AbortCause, EventKind, HtmAbortCause, ThreadTrace};

/// One window's worth of gauge deltas and high-waters — a sampling
/// period of a series, or a whole run.
///
/// Counters are deltas *within the window*; `*_hw_ns` fields are
/// high-water gauges (maxima observed within the window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSet {
    /// Committed transactions (software + hardware paths).
    pub commits: u64,
    /// Hardware-path commits (`HtmLogged`, the one hardware path).
    pub htm_commits: u64,
    /// Commits issued through the cross-shard handle (`TxCommit` with
    /// `b == 3`), 2PC and single-shard-fast-path alike — the 2PC subset
    /// is the engine's `coordinator_commits` counter.
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
    /// `sfence`s executed and virtual ns waited in them.
    pub sfences: u64,
    pub fence_wait_ns: u64,
    /// Cache-line write-backs requested, those that found the line dirty
    /// (`Clwb` with `b == 1`), and batched drains started.
    pub clwbs: u64,
    pub clwb_writebacks: u64,
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
    /// The whole-run window: every surviving event of every thread. With
    /// no ring loss each total equals its live counter.
    pub fn of_run(threads: &[ThreadTrace]) -> GaugeSet {
        let mut g = GaugeSet::default();
        for ev in threads.iter().flat_map(|t| &t.events) {
            g.apply(ev.kind, ev.a, ev.b);
        }
        g
    }

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
                if b == 2 {
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
            EventKind::Clwb => {
                self.clwbs += 1;
                if b == 1 {
                    self.clwb_writebacks += 1;
                }
            }
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
            // Begin/acquire/validate events carry no gauge.
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
        self.clwbs += o.clwbs;
        self.clwb_writebacks += o.clwb_writebacks;
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn payload_words_select_the_commit_and_writeback_subsets() {
        let mut g = GaugeSet::default();
        // Software, hardware and cross-shard commits.
        for b in [0, 2, 3] {
            g.apply(EventKind::TxCommit, 2, b);
        }
        for b in 0..2 {
            g.apply(EventKind::Clwb, 9, b);
        }
        assert_eq!((g.commits, g.log_entries), (3, 6));
        assert_eq!(g.htm_commits, 1);
        assert_eq!(g.twopc_commits, 1);
        assert_eq!((g.clwbs, g.clwb_writebacks), (2, 1));
        let mut sum = g;
        sum.merge(&g);
        assert_eq!((sum.htm_commits, sum.clwb_writebacks), (2, 2));
    }
}
