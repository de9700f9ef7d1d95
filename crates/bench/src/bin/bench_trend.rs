//! bench_trend — regression guard over archived bench results (PR9).
//!
//! Discovers `results/BENCH_PR<N>.json` archives (one JSONL file per
//! PR, produced by `run_benches.sh`), parses every line's identity
//! (workload, scenario, population) and headline metrics (throughput,
//! p99), and diffs each consecutive archive pair. A point regresses
//! when its throughput drops beyond the throughput tolerance (10% —
//! virtual-time results are deterministic, so the tolerance absorbs
//! intentional model retuning, not noise), or its p99 rises beyond the
//! p99 tolerance (60%: archived percentiles are power-bucketed with
//! 33–50% bucket steps, so anything under one bucket is quantization).
//!
//! Archives from PR ≤ 8 predate `schema_version` stamping and parse as
//! version 1; lines stamped with a *newer* schema than this binary
//! understands are skipped and counted, never misread.
//!
//! Exit is nonzero when the newest pair has regressions, unless
//! `--quick` (CI smoke: history may be empty or single-archive — both
//! are OK), and always when a `BENCH_*.json` is not named
//! `BENCH_PR<N>.json`: it cannot be ordered, and diffing the others
//! without it would compare a stale pair. Truncated / partially written
//! archive lines (a run killed mid-append) degrade gracefully: the
//! complete lines still diff, a warning goes to stderr, and a zero-point
//! archive is ignored rather than failing the whole diff. Lines whose
//! identity an earlier line already took are skipped with a warning
//! too, and so is an archive that cannot be read; bytes that are not
//! UTF-8 spoil only their line.

use std::path::PathBuf;

use bench::args::Args;
use obs::trend::{self, Tolerance, TrendReport};

struct Opts {
    quick: bool,
    json: bool,
    dir: PathBuf,
}

fn parse_opts() -> Opts {
    let mut args = Args::from_env();
    let opts = Opts {
        quick: args.flag("--quick"),
        json: args.flag("--json"),
        dir: args
            .value("--dir")
            .unwrap_or_else(|| PathBuf::from("results")),
    };
    args.finish();
    opts
}

fn emit_pair(o: &Opts, tol: Tolerance, prev_n: u64, next_n: u64, rep: &TrendReport) {
    if o.json {
        let mut w = trace::json::Writer::new();
        w.begin_object();
        w.key("schema_version")
            .u64(u64::from(obs::export::SCHEMA_VERSION));
        w.key("kind").str("bench_trend");
        w.key("prev").str(&format!("PR{prev_n}"));
        w.key("next").str(&format!("PR{next_n}"));
        w.key("common").u64(rep.common as u64);
        w.key("added").u64(rep.added as u64);
        w.key("removed").u64(rep.removed as u64);
        w.key("regressions").u64(rep.regressions as u64);
        w.key("deltas").begin_array();
        for d in rep.deltas.iter().filter(|d| d.regressed) {
            w.begin_object();
            w.key("key").str(&d.key);
            w.key("metric").str(d.metric);
            w.key("prev").f64(d.prev, 4);
            w.key("next").f64(d.next, 4);
            w.key("pct").f64(d.pct, 2);
            w.end_object();
        }
        w.end_array().end_object();
        println!("{}", w.finish());
        return;
    }
    println!(
        "BENCH_PR{prev_n} -> BENCH_PR{next_n}: {} common points, {} added, {} removed, \
         {} regression(s) beyond {:.0}% throughput / {:.0}% p99",
        rep.common,
        rep.added,
        rep.removed,
        rep.regressions,
        tol.throughput * 100.0,
        tol.p99 * 100.0
    );
    // Largest movers first, regressions always included.
    let mut deltas: Vec<_> = rep.deltas.iter().collect();
    deltas.sort_by(|a, b| b.pct.abs().total_cmp(&a.pct.abs()));
    for d in deltas
        .iter()
        .enumerate()
        .filter(|(i, d)| d.regressed || *i < 5)
        .map(|(_, d)| d)
    {
        println!(
            "  {} {} {:.4} -> {:.4} ({:+.2}%){}",
            if d.regressed { "REGRESSED" } else { "moved" },
            format_args!("{} [{}]", d.key, d.metric),
            d.prev,
            d.next,
            d.pct,
            if d.regressed { " !!" } else { "" }
        );
    }
}

fn main() {
    let o = parse_opts();
    let archives = trend::discover_archives(&o.dir).unwrap_or_else(|path| {
        eprintln!(
            "bench_trend: cannot order {}: archives are named BENCH_PR<N>.json",
            path.display()
        );
        std::process::exit(1);
    });
    if archives.len() < 2 {
        let msg = format!(
            "bench_trend: {} archive(s) under {} — need 2 to diff",
            archives.len(),
            o.dir.display()
        );
        if o.quick {
            println!("{msg} (ok under --quick)");
            return;
        }
        eprintln!("{msg}");
        std::process::exit(1);
    }

    let mut parsed = Vec::new();
    for (n, path) in &archives {
        // An unreadable archive (a directory under an archive's name, a
        // permission error) is skipped; bytes that are not UTF-8 decode
        // lossily, so the lines they spoil count as truncated.
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!(
                    "bench_trend: warning: cannot read {}: {e} — archive ignored",
                    path.display()
                );
                continue;
            }
        };
        let arch = trend::parse_archive(&String::from_utf8_lossy(&bytes));
        if arch.truncated > 0 {
            // A partially written archive (run killed mid-append) is a
            // warning, not an abort: the complete lines still diff.
            eprintln!(
                "bench_trend: warning: {} has {} truncated line(s); \
                 diffing the {} complete point(s)",
                path.display(),
                arch.truncated,
                arch.points.len()
            );
        }
        if arch.duplicates > 0 {
            eprintln!(
                "bench_trend: warning: {} has {} duplicate-key line(s); \
                 only the first line of each key is diffed",
                path.display(),
                arch.duplicates
            );
        }
        if arch.points.is_empty() {
            eprintln!(
                "bench_trend: warning: {} parsed to zero points \
                 ({} newer-schema, {} truncated lines skipped) — archive ignored",
                path.display(),
                arch.skipped_newer,
                arch.truncated
            );
            continue;
        }
        parsed.push((*n, arch.points, arch.skipped_newer));
    }
    if parsed.len() < 2 {
        println!(
            "bench_trend: fewer than 2 parseable archives under {} — nothing to diff",
            o.dir.display()
        );
        return;
    }

    let tol = Tolerance::default();
    let mut newest_regressions = 0usize;
    for pair in parsed.windows(2) {
        let (prev_n, prev, _) = &pair[0];
        let (next_n, next, _) = &pair[1];
        let rep = trend::diff(prev, next, tol);
        emit_pair(&o, tol, *prev_n, *next_n, &rep);
        newest_regressions = rep.regressions;
    }

    if newest_regressions > 0 && !o.quick {
        eprintln!(
            "bench_trend: {newest_regressions} regression(s) in the newest archive pair \
             beyond tolerance ({:.0}% throughput / {:.0}% p99)",
            tol.throughput * 100.0,
            tol.p99 * 100.0
        );
        std::process::exit(1);
    }
}
