//! The per-shard time series and its run summary, folded offline from
//! the flight recorder.
//!
//! Dashboards and the eADR sanity checks want the per-shard view: all
//! threads of a shard folded into one [`GaugeSet`] per sampling window,
//! rows ordered by `(ts, shard)`. A row's content depends only on each
//! thread's deterministic virtual execution, so the series is identical
//! regardless of thread retirement order or the order traces are handed
//! in. What the trace ring dropped is missing from the series too — the
//! traces' `dropped` counts are its loss accounting.

use std::collections::BTreeMap;

use crate::GaugeSet;
use trace::{shard_of_tid, ThreadTrace};

/// One (window, shard) row of the series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRow {
    /// Window start timestamp (multiple of the sampling period).
    pub ts: u64,
    pub shard: u32,
    /// Threads of this shard that contributed to the window.
    pub threads: u32,
    pub g: GaugeSet,
}

/// Fold per-thread traces into per-(window, shard) rows of
/// `period_ns` each. A thread's events are bucketed by `ts / period`
/// (timestamps are monotone per thread, so a window closes when the
/// next event crosses its end); windows in which no event carried a
/// gauge are skipped, so idle time produces no rows.
pub fn from_threads(threads: &[ThreadTrace], period_ns: u64) -> Vec<ShardRow> {
    let period = period_ns.max(1);
    let mut rows: BTreeMap<(u64, u32), ShardRow> = BTreeMap::new();
    for t in threads {
        let shard = shard_of_tid(t.tid);
        for window in t.events.chunk_by(|a, b| a.ts / period == b.ts / period) {
            let mut g = GaugeSet::default();
            for ev in window {
                g.apply(ev.kind, ev.a, ev.b);
            }
            if g.is_empty() {
                continue;
            }
            let ts = window[0].ts / period * period;
            let row = rows.entry((ts, shard)).or_insert(ShardRow {
                ts,
                shard,
                threads: 0,
                g: GaugeSet::default(),
            });
            row.threads += 1;
            row.g.merge(&g);
        }
    }
    rows.into_values().collect()
}

/// Whole-run rollup of a series, for report headers and CI sanity
/// checks (eADR runs must show zero fence-wait / WPQ samples).
#[derive(Debug, Clone, Default)]
pub struct SeriesSummary {
    /// Distinct (window, shard) rows.
    pub rows: usize,
    /// Distinct window timestamps.
    pub windows: usize,
    /// Shards observed.
    pub shards: usize,
    /// First and last window start.
    pub first_ts: u64,
    pub last_ts: u64,
    /// Sum of every row (high-waters are run maxima).
    pub totals: GaugeSet,
    /// Rows in which any fence or WPQ activity appeared
    /// (`sfences`, `fence_wait_ns`, `wpq_accepts`, `wpq_stalls`).
    pub fence_rows: usize,
    pub wpq_rows: usize,
    /// Peak per-window committed ops across shards (burst gauge).
    pub peak_window_commits: u64,
}

impl SeriesSummary {
    pub fn from_rows(rows: &[ShardRow]) -> SeriesSummary {
        let mut s = SeriesSummary {
            rows: rows.len(),
            first_ts: rows.first().map_or(0, |r| r.ts),
            last_ts: rows.last().map_or(0, |r| r.ts),
            ..SeriesSummary::default()
        };
        let mut shards: Vec<u32> = Vec::new();
        let mut windows: Vec<u64> = Vec::new();
        for r in rows {
            s.totals.merge(&r.g);
            if !shards.contains(&r.shard) {
                shards.push(r.shard);
            }
            if windows.last() != Some(&r.ts) {
                windows.push(r.ts);
            }
            if r.g.sfences > 0 || r.g.fence_wait_ns > 0 {
                s.fence_rows += 1;
            }
            if r.g.wpq_accepts > 0 || r.g.wpq_stalls > 0 {
                s.wpq_rows += 1;
            }
            s.peak_window_commits = s.peak_window_commits.max(r.g.commits);
        }
        s.shards = shards.len();
        s.windows = windows.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{EventKind, TraceEvent, SHARD_SHIFT};

    fn thread(shard: u32, tid: u32, events: &[(u64, EventKind, u64, u64)]) -> ThreadTrace {
        ThreadTrace {
            tid: (shard << SHARD_SHIFT) | tid,
            events: events
                .iter()
                .map(|&(ts, kind, a, b)| TraceEvent { ts, kind, a, b })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn windows_close_on_crossing_and_the_trailing_partial_one_is_kept() {
        let t = thread(
            0,
            0,
            &[
                (10, EventKind::TxCommit, 3, 0),
                (90, EventKind::Sfence, 40, 0),
                (150, EventKind::TxCommit, 2, 0),
            ],
        );
        let rows = from_threads(&[t], 100);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ts, 0);
        assert_eq!(rows[0].g.commits, 1);
        assert_eq!(rows[0].g.log_entries, 3);
        assert_eq!(rows[0].g.sfences, 1);
        assert_eq!(rows[0].g.fence_wait_ns, 40);
        assert_eq!(rows[1].ts, 100);
        assert_eq!(rows[1].g.commits, 1);
    }

    #[test]
    fn windows_without_a_gauge_are_skipped() {
        // Windows 0, 5 and 9 get events; 1-4 and 6-8 stay empty, and
        // window 7 sees only an event that carries no gauge.
        let t = thread(
            0,
            0,
            &[
                (1, EventKind::Clwb, 0, 1),
                (51, EventKind::Clwb, 5, 1),
                (75, EventKind::TxBegin, 0, 0),
                (91, EventKind::Clwb, 9, 1),
            ],
        );
        let ts: Vec<u64> = from_threads(&[t], 10).iter().map(|r| r.ts).collect();
        assert_eq!(ts, [0, 50, 90]);
    }

    #[test]
    fn rows_fold_threads_of_a_shard_per_window() {
        let threads = [
            thread(0, 0, &[(10, EventKind::TxCommit, 1, 0)]),
            thread(
                0,
                1,
                &[
                    (20, EventKind::TxCommit, 2, 0),
                    (120, EventKind::Sfence, 5, 0),
                ],
            ),
            thread(3, 0, &[(15, EventKind::WpqAccept, 700, 15)]),
        ];
        let rows = from_threads(&threads, 100);
        assert_eq!(rows.len(), 3);
        // (ts 0, shard 0): two threads' commits folded.
        assert_eq!((rows[0].ts, rows[0].shard, rows[0].threads), (0, 0, 2));
        assert_eq!(rows[0].g.commits, 2);
        assert_eq!(rows[0].g.log_entries, 3);
        // (ts 0, shard 3).
        assert_eq!((rows[1].ts, rows[1].shard), (0, 3));
        assert_eq!(rows[1].g.wpq_backlog_hw_ns, 700);
        // (ts 100, shard 0).
        assert_eq!((rows[2].ts, rows[2].shard), (100, 0));
        let sum = SeriesSummary::from_rows(&rows);
        assert_eq!(sum.rows, 3);
        assert_eq!(sum.windows, 2);
        assert_eq!(sum.shards, 2);
        assert_eq!(sum.totals.commits, 2);
        assert_eq!(sum.fence_rows, 1);
        assert_eq!(sum.wpq_rows, 1);
        assert_eq!(sum.peak_window_commits, 2);
    }
}
