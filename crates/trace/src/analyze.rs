//! Trace analysis: cross-check the whole-run event fold
//! ([`GaugeSet::of_run`]) against the live counters, attribute aborts to
//! contended orecs, reconstruct the WPQ occupancy timeline with stall
//! intervals, and count flushes per fence window.
//!
//! Everything here consumes the *merged* timeline (or per-thread traces
//! where ordering within a thread matters) and is pure data-in/data-out —
//! rendering lives in the `trace_analyze` binary.

use crate::export::{ExpectedTotals, TOTALS};
use crate::{AbortCause, EventKind, GaugeSet, MergedEvent, ThreadTrace};

/// Compare a run's folded events ([`GaugeSet::of_run`]) against the live
/// counters (`ptm::PtmStats` / `pmem_sim::MachineStats`).
///
/// Returns one human-readable line per divergent field; empty means the
/// trace and the counters agree exactly. With `dropped_events > 0` the
/// trace is lossy and equality cannot be expected — callers should report
/// the loss instead of treating divergence as an error.
pub fn crosscheck(derived: &GaugeSet, expected: &ExpectedTotals) -> Vec<String> {
    TOTALS
        .iter()
        .zip(expected.fields())
        .map(|(row, (name, e))| (name, (row.derive)(derived), e))
        .filter(|(_, d, e)| d != e)
        .map(|(name, d, e)| format!("{name}: trace-derived {d} != counter {e}"))
        .collect()
}

/// Abort attribution for one orec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrecAborts {
    pub orec: u64,
    pub total: u64,
    pub by_cause: [u64; AbortCause::COUNT],
}

/// Top-N contended orecs by abort count, with per-cause breakdown.
///
/// Only orec-attributable aborts participate (cause != `User`; user
/// aborts carry no contended orec). Sorted by total descending, orec id
/// ascending on ties — deterministic.
pub fn abort_heatmap(events: &[MergedEvent], top_n: usize) -> Vec<OrecAborts> {
    let mut map: std::collections::BTreeMap<u64, OrecAborts> = std::collections::BTreeMap::new();
    for ev in events {
        if ev.kind != EventKind::TxAbort {
            continue;
        }
        let Some(cause) = AbortCause::from_code(ev.a) else {
            continue;
        };
        if cause == AbortCause::User {
            continue;
        }
        let e = map.entry(ev.b).or_insert(OrecAborts {
            orec: ev.b,
            ..OrecAborts::default()
        });
        e.total += 1;
        e.by_cause[cause as usize] += 1;
    }
    let mut v: Vec<OrecAborts> = map.into_values().collect();
    v.sort_by_key(|o| (std::cmp::Reverse(o.total), o.orec));
    v.truncate(top_n);
    v
}

/// One WPQ backlog observation (an acceptance or a stall records the
/// accepting bank's backlog in virtual ns — an occupancy proxy: backlog
/// divided by the per-line write service time is queued lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    pub ts: u64,
    pub backlog_ns: u64,
    /// True when this observation exceeded the backlog bound and stalled
    /// the issuing thread.
    pub stalled: bool,
}

/// A maximal interval of virtual time during which at least one thread
/// was stalled on the WPQ backlog bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInterval {
    pub start: u64,
    pub end: u64,
    /// Stall events merged into this interval.
    pub events: u64,
    /// Summed per-thread stall ns in this interval (≥ end-start when
    /// stalls overlap across threads).
    pub stall_ns: u64,
}

/// The reconstructed WPQ view: every backlog observation in timeline
/// order plus merged stall intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WpqTimeline {
    pub samples: Vec<OccupancySample>,
    pub stalls: Vec<StallInterval>,
    pub max_backlog_ns: u64,
    pub total_stall_ns: u64,
}

/// Reconstruct the WPQ occupancy timeline from `WpqAccept`/`WpqStall`
/// events. Stall events span `[ts, ts + a]`; overlapping or abutting
/// spans are merged into maximal [`StallInterval`]s.
pub fn wpq_timeline(events: &[MergedEvent]) -> WpqTimeline {
    let mut t = WpqTimeline::default();
    let mut spans: Vec<(u64, u64, u64)> = Vec::new(); // (start, end, stall_ns)
    for ev in events {
        match ev.kind {
            EventKind::WpqAccept => {
                t.samples.push(OccupancySample {
                    ts: ev.ts,
                    backlog_ns: ev.a,
                    stalled: false,
                });
                t.max_backlog_ns = t.max_backlog_ns.max(ev.a);
            }
            EventKind::WpqStall => {
                t.samples.push(OccupancySample {
                    ts: ev.ts,
                    backlog_ns: ev.b,
                    stalled: true,
                });
                t.max_backlog_ns = t.max_backlog_ns.max(ev.b);
                t.total_stall_ns += ev.a;
                spans.push((ev.ts, ev.ts + ev.a, ev.a));
            }
            _ => {}
        }
    }
    spans.sort_unstable();
    for (start, end, ns) in spans {
        match t.stalls.last_mut() {
            Some(last) if start <= last.end => {
                last.end = last.end.max(end);
                last.events += 1;
                last.stall_ns += ns;
            }
            _ => t.stalls.push(StallInterval {
                start,
                end,
                events: 1,
                stall_ns: ns,
            }),
        }
    }
    t
}

/// Flush activity between two successive fences on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FenceWindow {
    pub tid: u32,
    /// Timestamp of the previous fence (or the thread's first event).
    pub start: u64,
    /// Timestamp of the fence closing this window.
    pub end: u64,
    /// `clwb` events issued inside the window.
    pub clwbs: u64,
    /// Virtual ns the closing fence waited for WPQ acceptance.
    pub wait_ns: u64,
}

/// Per-fence-window flush counts, per thread (ordering within a thread is
/// what defines a window, so this consumes per-thread traces rather than
/// the merged timeline). Trailing flushes not yet closed by a fence are
/// not reported.
pub fn fence_windows(threads: &[ThreadTrace]) -> Vec<FenceWindow> {
    let mut out = Vec::new();
    for t in threads {
        let mut window_start = t.events.first().map_or(0, |e| e.ts);
        let mut clwbs = 0u64;
        for ev in &t.events {
            match ev.kind {
                EventKind::Clwb => clwbs += 1,
                EventKind::Sfence => {
                    out.push(FenceWindow {
                        tid: t.tid,
                        start: window_start,
                        end: ev.ts,
                        clwbs,
                        wait_ns: ev.a,
                    });
                    window_start = ev.ts;
                    clwbs = 0;
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{merge_threads, TraceRing};

    fn mk(tid: u32, evs: &[(u64, EventKind, u64, u64)]) -> ThreadTrace {
        let mut r = TraceRing::new(evs.len().max(1));
        for &(ts, k, a, b) in evs {
            r.record(ts, k, a, b);
        }
        ThreadTrace {
            tid,
            events: r.ordered(),
            dropped: r.dropped(),
        }
    }

    #[test]
    fn totals_match_hand_count_and_crosscheck_is_exact() {
        let threads = vec![mk(
            0,
            &[
                (10, EventKind::TxBegin, 0, 0),
                (20, EventKind::Clwb, 5, 1),
                (25, EventKind::Clwb, 6, 0),
                (30, EventKind::Sfence, 40, 0),
                (80, EventKind::TxCommit, 2, 0),
                (90, EventKind::TxBegin, 0, 0),
                (95, EventKind::TxAbort, AbortCause::Acquire as u64, 7),
                (99, EventKind::WpqStall, 100, 9000),
            ],
        )];
        let t = GaugeSet::of_run(&threads);
        assert_eq!(t.commits, 1);
        assert_eq!(t.aborts_total(), 1);
        assert_eq!(t.aborts[AbortCause::Acquire as usize], 1);
        assert_eq!(t.clwbs, 2);
        assert_eq!(t.clwb_writebacks, 1);
        assert_eq!(t.sfences, 1);
        assert_eq!(t.fence_wait_ns, 40);
        assert_eq!(t.wpq_stall_ns, 100);
        let agreeing = [
            ("commits", 1),
            ("aborts", 1),
            ("aborts_acquire", 1),
            ("clwbs", 2),
            ("clwb_writebacks", 1),
            ("sfences", 1),
            ("fence_wait_ns", 40),
            ("wpq_stall_ns", 100),
        ];
        assert!(crosscheck(&t, &ExpectedTotals::with(&agreeing)).is_empty());
        let mut divergent = agreeing;
        divergent[0].1 = 2;
        let d = crosscheck(&t, &ExpectedTotals::with(&divergent));
        assert_eq!(d, ["commits: trace-derived 1 != counter 2"]);
    }

    #[test]
    fn heatmap_ranks_orecs_and_breaks_down_causes() {
        let acq = AbortCause::Acquire as u64;
        let val = AbortCause::Validation as u64;
        let user = AbortCause::User as u64;
        let threads = vec![mk(
            0,
            &[
                (1, EventKind::TxAbort, acq, 9),
                (2, EventKind::TxAbort, val, 9),
                (3, EventKind::TxAbort, acq, 9),
                (4, EventKind::TxAbort, acq, 4),
                (5, EventKind::TxAbort, user, 0), // not orec-attributable
            ],
        )];
        let m = merge_threads(&threads);
        let h = abort_heatmap(&m, 10);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].orec, 9);
        assert_eq!(h[0].total, 3);
        assert_eq!(h[0].by_cause[AbortCause::Acquire as usize], 2);
        assert_eq!(h[0].by_cause[AbortCause::Validation as usize], 1);
        assert_eq!(h[1].orec, 4);
        assert_eq!(abort_heatmap(&m, 1).len(), 1, "top_n truncates");
    }

    #[test]
    fn wpq_timeline_merges_overlapping_stalls() {
        let threads = vec![
            mk(
                0,
                &[
                    (10, EventKind::WpqAccept, 500, 10),
                    (100, EventKind::WpqStall, 50, 9000),
                ],
            ),
            mk(
                1,
                &[
                    (120, EventKind::WpqStall, 80, 9500), // overlaps [100,150]
                    (400, EventKind::WpqStall, 10, 9100), // disjoint
                ],
            ),
        ];
        let m = merge_threads(&threads);
        let t = wpq_timeline(&m);
        assert_eq!(t.samples.len(), 4);
        assert_eq!(t.max_backlog_ns, 9500);
        assert_eq!(t.total_stall_ns, 140);
        assert_eq!(t.stalls.len(), 2);
        assert_eq!((t.stalls[0].start, t.stalls[0].end), (100, 200));
        assert_eq!(t.stalls[0].events, 2);
        assert_eq!(t.stalls[0].stall_ns, 130);
        assert_eq!((t.stalls[1].start, t.stalls[1].end), (400, 410));
    }

    #[test]
    fn fence_windows_count_flushes_per_thread() {
        let threads = vec![mk(
            0,
            &[
                (5, EventKind::TxBegin, 0, 0),
                (10, EventKind::Clwb, 1, 1),
                (20, EventKind::Clwb, 2, 1),
                (30, EventKind::Sfence, 15, 0),
                (40, EventKind::Clwb, 3, 1),
                (50, EventKind::Sfence, 0, 0),
                (60, EventKind::Clwb, 4, 1), // trailing, no closing fence
            ],
        )];
        let w = fence_windows(&threads);
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].start, w[0].end, w[0].clwbs, w[0].wait_ns),
            (5, 30, 2, 15)
        );
        assert_eq!(
            (w[1].start, w[1].end, w[1].clwbs, w[1].wait_ns),
            (30, 50, 1, 0)
        );
    }
}
