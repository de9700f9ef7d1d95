//! Bench-trend regression guard: parse archived `results/BENCH_*.json`
//! files (JSON-Lines concatenations of every bench bin's `--json`
//! output) and diff headline metrics across consecutive PRs.
//!
//! The extractor is deliberately narrow: it pulls only the identity
//! keys (`workload`, `scenario`, `threads` / `shards` ×
//! `threads_per_shard`) and the headline metrics (`throughput_mops`,
//! first `"p99"`), and it refuses lines stamped with a *newer*
//! `schema_version` than it understands instead of misparsing them.
//! Lines without a version are grandfathered as version 1 (the PR 1-8
//! archives).

use crate::export::SCHEMA_VERSION;
use trace::json;

/// One comparable point extracted from an archive line.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Identity: `workload|scenario|<population>`.
    pub key: String,
    pub throughput_mops: Option<f64>,
    /// First `"p99"` on the line: per-op latency p99 for driver points,
    /// sojourn p99 for sharded open-loop points.
    pub p99_ns: Option<f64>,
    pub schema_version: u32,
}

/// What [`parse_archive`] extracted from one archive file.
#[derive(Debug, Clone, Default)]
pub struct ParsedArchive {
    pub points: Vec<TrendPoint>,
    /// Lines skipped because they carry a newer schema than this build.
    pub skipped_newer: usize,
    /// Lines that start an object but are not exactly one well-formed
    /// object — a truncated or partially written archive (e.g. a run
    /// killed mid-append, or two appends interleaved on one line) — or
    /// that hold U+FFFD, what a lossy decode makes of bytes that are not
    /// UTF-8. The caller should warn and diff the surviving points, not
    /// abort.
    pub truncated: usize,
    /// Lines whose key an earlier line already took. The first line of a
    /// key wins; every later one is a point the diff never compares, so
    /// the caller should warn.
    pub duplicates: usize,
}

/// Parse one archive: the points, plus counts of the newer-schema,
/// truncated (partially written) and duplicate-key lines it skipped.
pub fn parse_archive(text: &str) -> ParsedArchive {
    let mut points: Vec<TrendPoint> = Vec::new();
    let mut skipped = 0;
    let mut truncated = 0;
    let mut duplicates = 0;
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        if line.contains(char::REPLACEMENT_CHARACTER) || json::check_structure(line).is_err() {
            truncated += 1;
            continue;
        }
        let version = json::num(line, "schema_version").map_or(1, |v| v as u32);
        if version > SCHEMA_VERSION {
            skipped += 1;
            continue;
        }
        let (Some(workload), Some(scenario)) =
            (json::str(line, "workload"), json::str(line, "scenario"))
        else {
            continue;
        };
        let population = if let Some(shards) = json::num(line, "shards") {
            let tps = json::num(line, "threads_per_shard").unwrap_or(1.0);
            format!("s{}x{}", shards as u64, tps as u64)
        } else if let Some(t) = json::num(line, "threads") {
            format!("t{}", t as u64)
        } else {
            "t0".to_string()
        };
        let key = format!("{workload}|{scenario}|{population}");
        if points.iter().any(|p| p.key == key) {
            // First wins so diffs stay stable; the rest are counted.
            duplicates += 1;
            continue;
        }
        points.push(TrendPoint {
            key,
            throughput_mops: json::num(line, "throughput_mops"),
            p99_ns: json::num(line, "p99"),
            schema_version: version,
        });
    }
    ParsedArchive {
        points,
        skipped_newer: skipped,
        truncated,
        duplicates,
    }
}

/// One metric's movement between two archives.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendDelta {
    pub key: String,
    pub metric: &'static str,
    pub prev: f64,
    pub next: f64,
    /// Signed relative change in percent (positive = metric went up).
    pub pct: f64,
    /// True when the movement is in the *bad* direction beyond
    /// tolerance (throughput down, p99 up).
    pub regressed: bool,
}

/// Diff two archives' points at a tolerance (e.g. `0.10` = 10%).
#[derive(Debug, Clone, Default)]
pub struct TrendReport {
    pub deltas: Vec<TrendDelta>,
    /// Points present in both archives.
    pub common: usize,
    pub added: usize,
    pub removed: usize,
    pub regressions: usize,
}

/// Per-metric regression tolerances (relative, e.g. `0.10` = 10%).
///
/// p99 gets a wider default than throughput: archived percentiles come
/// from the power-bucketed `LatencyHistogram`, whose adjacent buckets
/// are 33–50% apart, so any real movement lands at least one bucket
/// (≥ 33%) away and sub-bucket "changes" cannot exist. A p99 tolerance
/// below one bucket would flag pure quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    pub throughput: f64,
    pub p99: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            throughput: 0.10,
            p99: 0.60,
        }
    }
}

pub fn diff(prev: &[TrendPoint], next: &[TrendPoint], tol: Tolerance) -> TrendReport {
    let mut rep = TrendReport::default();
    for n in next {
        let Some(p) = prev.iter().find(|p| p.key == n.key) else {
            rep.added += 1;
            continue;
        };
        rep.common += 1;
        let mut push =
            |metric: &'static str, pv: f64, nv: f64, higher_is_worse: bool, tolerance: f64| {
                if pv <= 0.0 {
                    return;
                }
                let pct = (nv - pv) / pv * 100.0;
                let regressed = if higher_is_worse {
                    nv > pv * (1.0 + tolerance)
                } else {
                    nv < pv * (1.0 - tolerance)
                };
                if regressed {
                    rep.regressions += 1;
                }
                rep.deltas.push(TrendDelta {
                    key: n.key.clone(),
                    metric,
                    prev: pv,
                    next: nv,
                    pct,
                    regressed,
                });
            };
        if let (Some(pv), Some(nv)) = (p.throughput_mops, n.throughput_mops) {
            push("throughput_mops", pv, nv, false, tol.throughput);
        }
        if let (Some(pv), Some(nv)) = (p.p99_ns, n.p99_ns) {
            push("p99_ns", pv, nv, true, tol.p99);
        }
    }
    rep.removed = prev
        .iter()
        .filter(|p| !next.iter().any(|n| n.key == p.key))
        .count();
    rep
}

/// Discover `BENCH_PR<N>.json` archives under `dir`, ordered by N.
pub fn discover_archives(dir: &std::path::Path) -> Vec<(u64, std::path::PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("BENCH_PR")
            .and_then(|s| s.strip_suffix(".json"))
        {
            if let Ok(n) = num.parse::<u64>() {
                found.push((n, e.path()));
            }
        }
    }
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1: &str = r#"{"workload":"tpcc-hash","scenario":"Optane_ADR","threads":4,"throughput_mops":1.2000,"latency":{"count":100,"p50":10,"p99":900}}
{"workload":"kv-zipf","scenario":"Optane_ADR_sharded","shards":8,"threads_per_shard":1,"throughput_mops":6.0000,"sojourn":{"count":10,"p99":5000}}"#;

    #[test]
    fn extracts_identity_and_metrics() {
        let parsed = parse_archive(V1);
        let (pts, skipped) = (parsed.points, parsed.skipped_newer);
        assert_eq!(skipped, 0);
        assert_eq!(parsed.truncated, 0);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].key, "tpcc-hash|Optane_ADR|t4");
        assert_eq!(pts[0].throughput_mops, Some(1.2));
        assert_eq!(pts[0].p99_ns, Some(900.0));
        assert_eq!(pts[0].schema_version, 1);
        assert_eq!(pts[1].key, "kv-zipf|Optane_ADR_sharded|s8x1");
        assert_eq!(pts[1].p99_ns, Some(5000.0));
    }

    #[test]
    fn rejects_newer_schema_lines() {
        let mut w = json::Writer::new();
        w.begin_object();
        w.key("schema_version").u64(u64::from(SCHEMA_VERSION) + 1);
        w.key("workload").str("x");
        w.key("scenario").str("y");
        w.key("threads").u64(1);
        w.end_object();
        let parsed = parse_archive(&w.finish());
        assert!(parsed.points.is_empty());
        assert_eq!(parsed.skipped_newer, 1);
    }

    #[test]
    fn diff_flags_directional_regressions() {
        let prev = parse_archive(V1).points;
        let next_text = V1
            .replace("\"throughput_mops\":1.2000", "\"throughput_mops\":0.9000")
            .replace("\"p99\":5000", "\"p99\":5200");
        let next = parse_archive(&next_text).points;
        let rep = diff(&prev, &next, Tolerance::default());
        assert_eq!(rep.common, 2);
        // Throughput -25% regresses; sojourn p99 +4% is far below the
        // one-bucket (60%) p99 tolerance.
        assert_eq!(rep.regressions, 1);
        let t = rep
            .deltas
            .iter()
            .find(|d| d.metric == "throughput_mops" && d.key.starts_with("tpcc-hash"))
            .unwrap();
        assert!(t.regressed);
        assert!((t.pct + 25.0).abs() < 0.01);
        let p = rep.deltas.iter().find(|d| d.metric == "p99_ns").unwrap();
        assert!(!p.regressed);
    }

    #[test]
    fn p99_tolerance_absorbs_one_bucket_quantization() {
        let prev = parse_archive(V1).points;
        // +33% = one histogram bucket: quantization, not a regression.
        let one_bucket = V1.replace("\"p99\":5000", "\"p99\":6650");
        let next = parse_archive(&one_bucket).points;
        assert_eq!(diff(&prev, &next, Tolerance::default()).regressions, 0);
        // +100% = clearly more than one bucket: flagged.
        let two_bucket = V1.replace("\"p99\":5000", "\"p99\":10000");
        let next = parse_archive(&two_bucket).points;
        assert_eq!(diff(&prev, &next, Tolerance::default()).regressions, 1);
    }

    #[test]
    fn truncated_lines_are_counted_not_parsed() {
        // A complete line, a line cut mid-string, a line cut mid-object,
        // and one cut inside a nested array — only the first parses.
        let text = concat!(
            r#"{"workload":"a","scenario":"s","threads":1,"throughput_mops":1.0}"#,
            "\n",
            r#"{"workload":"b","scenario":"s","threads":2,"throughput_mo"#,
            "\n",
            r#"{"workload":"c","scenario":"s","threads":4,"#,
            "\n",
            r#"{"workload":"d","scenario":"s","tails":[{"pct":99.0,"#,
            "\n",
        );
        let parsed = parse_archive(text);
        assert_eq!(parsed.truncated, 3);
        assert_eq!(parsed.points.len(), 1);
        assert_eq!(parsed.points[0].key, "a|s|t1");
        // The surviving points still diff normally.
        let rep = diff(&parsed.points, &parsed.points, Tolerance::default());
        assert_eq!(rep.common, 1);
        assert_eq!(rep.regressions, 0);
    }

    #[test]
    fn duplicate_keys_are_counted_and_the_first_wins() {
        // Two arms labelled alike (same workload, scenario, threads) plus
        // a third copy: one point survives, two lines are counted.
        let text = concat!(
            r#"{"workload":"a","scenario":"adr","threads":1,"throughput_mops":1.0}"#,
            "\n",
            r#"{"workload":"a","scenario":"adr","threads":1,"throughput_mops":2.0}"#,
            "\n",
            r#"{"workload":"a","scenario":"adr","threads":2,"throughput_mops":3.0}"#,
            "\n",
            r#"{"workload":"a","scenario":"adr","threads":1,"throughput_mops":4.0}"#,
            "\n",
        );
        let parsed = parse_archive(text);
        assert_eq!(parsed.duplicates, 2);
        assert_eq!(parsed.truncated, 0);
        assert_eq!(parsed.points.len(), 2);
        assert_eq!(parsed.points[0].key, "a|adr|t1");
        assert_eq!(parsed.points[0].throughput_mops, Some(1.0));
        assert_eq!(parse_archive(V1).duplicates, 0);
    }

    /// A line is one object or it is damaged: text after the closing
    /// brace, or a closer of the wrong kind, is counted with the
    /// truncated lines rather than half-parsed.
    #[test]
    fn lines_that_are_not_one_object_are_counted_not_parsed() {
        let text = concat!(
            r#"{"workload":"a","scenario":"s","threads":1} trailing"#,
            "\n",
            r#"{"workload":"b","scenario":"s","threads":1}{"workload":"c"}"#,
            "\n",
            r#"{"workload":"d","scenario":"s","tails":[1,2}}"#,
            "\n",
        );
        let parsed = parse_archive(text);
        assert_eq!(parsed.truncated, 3);
        assert!(parsed.points.is_empty());
    }
}
