//! JSONL + CSV export of series rows and span decompositions,
//! next to the bench `--json` schema.

use crate::series::ShardRow;
use crate::spans::{Comp, Decomposition};
use crate::GaugeSet;
use trace::json::Writer;
use trace::{AbortCause, HtmAbortCause};

/// Version stamped into every JSONL line this workspace emits
/// (`obs` series/decomposition rows and the bench report schemas).
/// Bump when a consumer-visible key changes meaning or disappears;
/// `bench_trend` and `obs_report` refuse lines from a newer version
/// instead of misparsing them.
pub const SCHEMA_VERSION: u32 = 2;

/// Decimal places of the (mean, hence fractional) ns figures.
const NS_DECIMALS: usize = 4;

/// The plain (non-per-cause) gauges of a row, in export order: the JSON
/// keys and the CSV columns both come from this one list.
fn scalar_gauges(g: &GaugeSet) -> [(&'static str, u64); 18] {
    [
        ("htm_fallbacks", g.htm_fallbacks),
        ("reads", g.reads),
        ("writes", g.writes),
        ("log_entries", g.log_entries),
        ("htm_log_entries", g.htm_log_entries),
        ("sfences", g.sfences),
        ("fence_wait_ns", g.fence_wait_ns),
        ("clwbs", g.clwbs),
        ("clwb_batches", g.clwb_batches),
        ("wpq_accepts", g.wpq_accepts),
        ("wpq_backlog_hw_ns", g.wpq_backlog_hw_ns),
        ("wpq_stalls", g.wpq_stalls),
        ("wpq_stall_ns", g.wpq_stall_ns),
        ("backoffs", g.backoffs),
        ("backoff_ns", g.backoff_ns),
        ("backoff_hw_ns", g.backoff_hw_ns),
        ("queue_waits", g.queue_waits),
        ("queue_wait_ns", g.queue_wait_ns),
    ]
}

/// One series row as a JSON line.
pub fn series_row_json(r: &ShardRow) -> String {
    let mut w = Writer::with_capacity(512);
    w.begin_object();
    w.key("schema_version").u64(SCHEMA_VERSION as u64);
    w.key("kind").str("obs_series");
    w.key("ts").u64(r.ts);
    w.key("shard").u64(r.shard as u64);
    w.key("threads").u64(r.threads as u64);
    w.key("commits").u64(r.g.commits);
    w.key("htm_commits").u64(r.g.htm_commits);
    w.key("twopc_commits").u64(r.g.twopc_commits);
    w.key("aborts").begin_object();
    for (c, v) in AbortCause::ALL.iter().zip(r.g.aborts) {
        w.key(c.label()).u64(v);
    }
    w.end_object();
    w.key("htm_aborts").begin_object();
    for (c, v) in HtmAbortCause::ALL.iter().zip(r.g.htm_aborts) {
        w.key(c.label()).u64(v);
    }
    w.end_object();
    for (key, v) in scalar_gauges(&r.g) {
        w.key(key).u64(v);
    }
    w.end_object();
    w.finish()
}

/// CSV header matching [`series_row_csv`].
pub fn series_csv_header() -> String {
    let mut h = String::from("ts,shard,threads,commits,htm_commits,twopc_commits");
    for c in AbortCause::ALL {
        h.push_str(",aborts_");
        h.push_str(c.label());
    }
    for c in HtmAbortCause::ALL {
        h.push_str(",htm_aborts_");
        h.push_str(c.label());
    }
    for (name, _) in scalar_gauges(&GaugeSet::default()) {
        h.push(',');
        h.push_str(name);
    }
    h
}

/// One series row as a CSV line (column order = [`series_csv_header`]).
pub fn series_row_csv(r: &ShardRow) -> String {
    let mut o = format!(
        "{},{},{},{},{},{}",
        r.ts, r.shard, r.threads, r.g.commits, r.g.htm_commits, r.g.twopc_commits
    );
    let per_cause = r.g.aborts.into_iter().chain(r.g.htm_aborts);
    for v in per_cause.chain(scalar_gauges(&r.g).map(|(_, v)| v)) {
        o.push_str(&format!(",{v}"));
    }
    o
}

/// A whole decomposition as one JSON line (tail rows inline).
pub fn decomposition_json(label: &str, d: &Decomposition) -> String {
    let mut w = Writer::with_capacity(1024);
    w.begin_object();
    w.key("schema_version").u64(SCHEMA_VERSION as u64);
    w.key("kind").str("obs_decomposition");
    w.key("label").str(label);
    w.key("spans").u64(d.spans as u64);
    w.key("dropped_events").u64(d.dropped_events);
    w.key("mean_total_ns")
        .f64(d.mean.mean_total_ns, NS_DECIMALS);
    w.key("mean").begin_object();
    for (c, v) in Comp::ALL.iter().zip(d.mean.mean_comp_ns) {
        w.key(c.label()).f64(v, NS_DECIMALS);
    }
    w.end_object();
    w.key("tails").begin_array();
    for t in &d.tails {
        w.begin_object();
        w.key("pct").f64(t.pct, NS_DECIMALS);
        w.key("threshold_ns").u64(t.threshold_ns);
        w.key("cohort").u64(t.cohort.count as u64);
        w.key("mean_total_ns")
            .f64(t.cohort.mean_total_ns, NS_DECIMALS);
        for (c, v) in Comp::ALL.iter().zip(t.cohort.mean_comp_ns) {
            w.key(c.label()).f64(v, NS_DECIMALS);
        }
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::json::check_structure;
    use trace::{EventKind, ThreadTrace, TraceEvent};

    #[test]
    fn exports_are_well_formed_and_versioned() {
        let event = |ts, kind, a| TraceEvent { ts, kind, a, b: 0 };
        let t = ThreadTrace {
            tid: 0,
            events: vec![
                event(10, EventKind::TxCommit, 2),
                event(40, EventKind::Sfence, 25),
            ],
            dropped: 0,
        };
        let rows = crate::series::from_threads(&[t], 100);
        assert_eq!(rows.len(), 1);
        let line = series_row_json(&rows[0]);
        check_structure(&line).expect("series row");
        assert!(line.starts_with(r#"{"schema_version":2,"#));
        assert!(line.contains("\"fence_wait_ns\":25"));
        let header_cols = series_csv_header().split(',').count();
        let row_cols = series_row_csv(&rows[0]).split(',').count();
        assert_eq!(header_cols, row_cols);
        let d = crate::spans::decompose(&[], 0, &[99.0]);
        // A label with every awkward character still yields one
        // well-formed line that reads back unchanged.
        let label = "adr \"q\"\nline two\\";
        let dj = decomposition_json(label, &d);
        check_structure(&dj).expect("decomposition");
        assert!(!dj.contains('\n'), "must stay one line: {dj}");
        assert_eq!(trace::json::str(&dj, "label").as_deref(), Some(label));
        assert!(dj.contains("\"schema_version\":2"));
    }
}
