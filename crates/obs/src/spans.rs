//! Per-transaction critical-path reconstruction and tail-latency
//! decomposition.
//!
//! The flight recorder stamps every engine event with the virtual
//! clock; wait-style events (`Sfence`, `WpqStall`, `Backoff`,
//! `QueueWait`) are stamped at wait *start* carrying the duration in
//! `a`. That is exactly enough to rebuild each committed
//! operation as a span and cut it into exhaustive components: every
//! virtual nanosecond between the first `TxBegin` and the `TxCommit`
//! lands in exactly one bucket, so component sums equal measured
//! latency *by construction* — the 1% acceptance check then only
//! verifies that the trace covers the driver's measurement window.

use trace::{EventKind, ThreadTrace};

/// Critical-path components, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Comp {
    /// Open-loop arrival-queue wait before the worker picked the
    /// request up (sharded front-end only).
    Queue = 0,
    /// Speculative execution: reads, writes, user logic, HTM attempts.
    Exec = 1,
    /// Commit protocol: orec acquire, validation, publish.
    Commit = 2,
    /// Log persistence: log writes and clwb traffic up to the fence.
    Flush = 3,
    /// Waiting for the WPQ to accept outstanding flushes at a fence.
    FenceWait = 4,
    /// Synchronous WPQ backpressure stalls.
    WpqStall = 5,
    /// Contention backoff between attempts.
    Backoff = 6,
    /// Abort cleanup (undo, orec release) before the retry.
    Rollback = 7,
}

pub const COMP_COUNT: usize = 8;

impl Comp {
    pub const ALL: [Comp; COMP_COUNT] = [
        Comp::Queue,
        Comp::Exec,
        Comp::Commit,
        Comp::Flush,
        Comp::FenceWait,
        Comp::WpqStall,
        Comp::Backoff,
        Comp::Rollback,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Comp::Queue => "queue",
            Comp::Exec => "exec",
            Comp::Commit => "commit",
            Comp::Flush => "flush",
            Comp::FenceWait => "fence_wait",
            Comp::WpqStall => "wpq_stall",
            Comp::Backoff => "backoff",
            Comp::Rollback => "rollback",
        }
    }
}

/// One committed operation's reconstructed critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    pub tid: u32,
    /// Timestamp of the first `TxBegin` attempt.
    pub begin_ts: u64,
    /// Timestamp of the `TxCommit`.
    pub end_ts: u64,
    /// Request arrival (open-loop front-end), else `begin_ts`.
    pub arrival_ts: u64,
    /// Attempts including the committed one.
    pub attempts: u32,
    /// Exhaustive decomposition; sums to `total_ns`.
    pub comp_ns: [u64; COMP_COUNT],
}

impl OpSpan {
    /// Queue wait plus everything between begin and commit.
    pub fn total_ns(&self) -> u64 {
        self.comp_ns.iter().sum()
    }

    /// End-to-end sojourn as the open-loop driver measures it.
    pub fn sojourn_ns(&self) -> u64 {
        self.end_ts.saturating_sub(self.arrival_ts)
    }
}

/// Which component the work *leading up to* an event belongs to: each
/// event marks the completion of a slice of work, so the segment since
/// the previous event is classified by what it produced.
fn segment_comp(kind: EventKind) -> Comp {
    match kind {
        // Work ending in an access, an abort discovery, a hardware
        // abort/fallback/retirement, or a retry begin is speculation.
        EventKind::TxBegin
        | EventKind::TxRead
        | EventKind::TxWrite
        | EventKind::TxAbort
        | EventKind::HtmAbort
        | EventKind::HtmFallback
        | EventKind::HtmRetire => Comp::Exec,
        // Work ending in acquire/validate/publish is commit protocol.
        EventKind::TxAcquire | EventKind::TxValidate | EventKind::TxCommit => Comp::Commit,
        // Work ending in flush traffic — including the gap up to a
        // fence or a mid-flush WPQ stall — is log persistence.
        EventKind::Clwb
        | EventKind::ClwbBatch
        | EventKind::WpqAccept
        | EventKind::Sfence
        | EventKind::WpqStall => Comp::Flush,
        // Work ending at a backoff start is abort cleanup.
        EventKind::Backoff => Comp::Rollback,
        _ => Comp::Exec,
    }
}

/// Reconstruct committed-operation spans from per-thread traces.
/// Events outside any transaction (setup flushes) are ignored, except a
/// `QueueWait`, which is charged to the span its next `TxBegin` opens.
/// Returns the spans plus the total events dropped by the source rings —
/// when nonzero the spans are a suffix of the run (rings overwrite
/// oldest) and tail statistics remain valid, but totals are lower bounds.
pub fn reconstruct(threads: &[ThreadTrace]) -> (Vec<OpSpan>, u64) {
    let mut spans = Vec::new();
    let mut dropped = 0;
    for t in threads {
        dropped += t.dropped;
        let mut cur: Option<OpSpan> = None;
        // (bucket, remaining ns) of a wait event whose interval covers
        // the time after it (waits are stamped at wait start).
        let mut wait: Option<(Comp, u64)> = None;
        // (wait ns, arrival ts, dequeue ts) of the QueueWait preceding
        // the next TxBegin.
        let mut queued: Option<(u64, u64, u64)> = None;
        let mut last_ts = 0u64;
        for ev in &t.events {
            let Some(span) = cur.as_mut() else {
                match ev.kind {
                    EventKind::QueueWait => queued = Some((ev.a, ev.b, ev.ts)),
                    EventKind::TxBegin => {
                        let mut s = OpSpan {
                            tid: t.tid,
                            begin_ts: ev.ts,
                            end_ts: ev.ts,
                            arrival_ts: ev.ts,
                            attempts: 1,
                            comp_ns: [0; COMP_COUNT],
                        };
                        if let Some((qns, arrival, dequeue_ts)) = queued.take() {
                            s.comp_ns[Comp::Queue as usize] = qns;
                            // Begin-cost gap between dequeue and the
                            // TxBegin stamp counts as execution, so the
                            // components sum to the sojourn exactly.
                            s.comp_ns[Comp::Exec as usize] += ev.ts.saturating_sub(dequeue_ts);
                            s.arrival_ts = arrival;
                        }
                        cur = Some(s);
                        wait = None;
                        last_ts = ev.ts;
                    }
                    _ => {}
                }
                continue;
            };
            // Charge the segment since the previous event: any pending
            // wait interval is consumed first, the remainder is work
            // classified by the event that completes it.
            let mut dt = ev.ts.saturating_sub(last_ts);
            if let Some((bucket, remaining)) = wait.take() {
                let w = dt.min(remaining);
                span.comp_ns[bucket as usize] += w;
                dt -= w;
                if remaining > w {
                    // The wait interval extends past this event; keep
                    // consuming from subsequent segments.
                    wait = Some((bucket, remaining - w));
                }
            }
            span.comp_ns[segment_comp(ev.kind) as usize] += dt;
            match ev.kind {
                EventKind::TxBegin => span.attempts += 1,
                EventKind::Sfence => wait = Some((Comp::FenceWait, ev.a)),
                EventKind::WpqStall => wait = Some((Comp::WpqStall, ev.a)),
                EventKind::Backoff => wait = Some((Comp::Backoff, ev.a)),
                EventKind::TxCommit => {
                    span.end_ts = ev.ts;
                    spans.push(*span);
                    cur = None;
                }
                _ => {}
            }
            last_ts = ev.ts;
        }
    }
    spans.sort_by_key(|s| (s.begin_ts, s.tid));
    (spans, dropped)
}

/// Mean per-component breakdown of a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    pub count: usize,
    pub mean_total_ns: f64,
    pub mean_comp_ns: [f64; COMP_COUNT],
}

impl Breakdown {
    pub fn of(spans: &[&OpSpan]) -> Breakdown {
        let mut b = Breakdown {
            count: spans.len(),
            ..Breakdown::default()
        };
        if spans.is_empty() {
            return b;
        }
        let n = spans.len() as f64;
        for s in spans {
            b.mean_total_ns += s.total_ns() as f64;
            for (i, c) in s.comp_ns.iter().enumerate() {
                b.mean_comp_ns[i] += *c as f64;
            }
        }
        b.mean_total_ns /= n;
        for c in &mut b.mean_comp_ns {
            *c /= n;
        }
        b
    }
}

/// One tail row: the exact percentile total plus the mean decomposition
/// over the cohort at-or-above it ("what is the p99 made of").
#[derive(Debug, Clone, Copy, Default)]
pub struct TailRow {
    /// Percentile in [0, 100].
    pub pct: f64,
    /// Exact order-statistic total at this percentile.
    pub threshold_ns: u64,
    pub cohort: Breakdown,
}

/// Full-run decomposition: overall mean plus tail rows.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    pub spans: usize,
    /// Events dropped by source rings; > 0 means totals are lower
    /// bounds over a suffix of the run.
    pub dropped_events: u64,
    pub mean: Breakdown,
    pub tails: Vec<TailRow>,
}

/// Decompose spans at the given percentiles (e.g. `[50.0, 95.0, 99.0]`).
/// Totals are exact order statistics over span totals (no histogram
/// bucketing); each tail row averages the spans at or above its
/// threshold, so "p99 = X ns queue + Y ns fence + ..." is computed from
/// the actual tail cohort.
pub fn decompose(spans: &[OpSpan], dropped_events: u64, pcts: &[f64]) -> Decomposition {
    let mut by_total: Vec<&OpSpan> = spans.iter().collect();
    by_total.sort_by_key(|s| s.total_ns());
    let mut d = Decomposition {
        spans: spans.len(),
        dropped_events,
        mean: Breakdown::of(&by_total),
        tails: Vec::new(),
    };
    if by_total.is_empty() {
        return d;
    }
    for &pct in pcts {
        let p = (pct / 100.0).clamp(0.0, 1.0);
        // Nearest-rank on the sorted totals.
        let idx = ((p * by_total.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(by_total.len() - 1);
        let threshold = by_total[idx].total_ns();
        let cohort: Vec<&OpSpan> = by_total[idx..].to_vec();
        d.tails.push(TailRow {
            pct,
            threshold_ns: threshold,
            cohort: Breakdown::of(&cohort),
        });
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{ThreadTrace, TraceEvent};

    fn thread(tid: u32, evs: &[(u64, EventKind, u64, u64)]) -> ThreadTrace {
        ThreadTrace {
            tid,
            events: evs
                .iter()
                .map(|&(ts, kind, a, b)| TraceEvent { ts, kind, a, b })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn span_components_sum_to_latency() {
        // begin@100 .. reads .. clwb .. fence(wait 30) .. commit@300
        let t = thread(
            7,
            &[
                (90, EventKind::QueueWait, 40, 50),
                (100, EventKind::TxBegin, 0, 100),
                (140, EventKind::TxRead, 1, 8),
                (160, EventKind::TxWrite, 1, 8),
                (180, EventKind::TxAcquire, 1, 0),
                (200, EventKind::Clwb, 5, 1),
                (220, EventKind::Sfence, 30, 0),
                (300, EventKind::TxCommit, 2, 0),
            ],
        );
        let (spans, dropped) = reconstruct(&[t]);
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.attempts, 1);
        assert_eq!(s.arrival_ts, 50);
        // Components close the sojourn exactly: queue 40 + dequeue->begin
        // gap 10 + in-span 200.
        assert_eq!(s.total_ns(), s.sojourn_ns());
        assert_eq!(s.sojourn_ns(), 250);
        assert_eq!(s.comp_ns[Comp::Queue as usize], 40);
        // 90..100 begin gap + 100..160 exec (reads/writes), 160..180
        // commit (acquire), 180..220 flush (clwb + pre-fence), 220..250
        // fence wait, 250..300 commit tail.
        assert_eq!(s.comp_ns[Comp::Exec as usize], 70);
        assert_eq!(s.comp_ns[Comp::Flush as usize], 40);
        assert_eq!(s.comp_ns[Comp::FenceWait as usize], 30);
        assert_eq!(s.comp_ns[Comp::Commit as usize], 20 + 50);
        assert_eq!(s.comp_ns[Comp::Rollback as usize], 0);
    }

    #[test]
    fn aborted_attempts_fold_into_one_span() {
        let t = thread(
            1,
            &[
                (0, EventKind::TxBegin, 0, 0),
                (50, EventKind::TxAbort, 3, 9),
                (60, EventKind::Backoff, 40, 0),
                (100, EventKind::TxBegin, 1, 0),
                (150, EventKind::TxCommit, 1, 0),
            ],
        );
        let (spans, _) = reconstruct(&[t]);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.attempts, 2);
        assert_eq!(s.total_ns(), 150);
        assert_eq!(s.comp_ns[Comp::Exec as usize], 50);
        assert_eq!(s.comp_ns[Comp::Rollback as usize], 10);
        assert_eq!(s.comp_ns[Comp::Backoff as usize], 40);
        assert_eq!(s.comp_ns[Comp::Commit as usize], 50);
    }

    #[test]
    fn decompose_reports_exact_tail_thresholds() {
        let mut spans = Vec::new();
        for i in 0..100u64 {
            spans.push(OpSpan {
                tid: 0,
                begin_ts: i * 1000,
                end_ts: i * 1000 + (i + 1) * 10,
                arrival_ts: i * 1000,
                attempts: 1,
                comp_ns: {
                    let mut c = [0; COMP_COUNT];
                    c[Comp::Exec as usize] = (i + 1) * 10;
                    c
                },
            });
        }
        let d = decompose(&spans, 0, &[50.0, 99.0]);
        assert_eq!(d.spans, 100);
        assert_eq!(d.tails[0].threshold_ns, 500);
        assert_eq!(d.tails[1].threshold_ns, 990);
        assert_eq!(d.tails[1].cohort.count, 2);
        let sum: f64 = d.tails[1].cohort.mean_comp_ns.iter().sum();
        assert!((sum - d.tails[1].cohort.mean_total_ns).abs() < 1e-9);
    }
}
