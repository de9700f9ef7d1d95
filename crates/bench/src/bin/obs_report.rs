//! obs_report — continuous-telemetry report for the sharded open-loop
//! front-end: WPQ/abort-mix time series plus a tail-latency
//! critical-path decomposition (PR9 tentpole).
//!
//! Runs the sharded KV workload (8 shards x 1 worker by default — one
//! worker per shard keeps request claiming, and hence the whole trace,
//! deterministic) with a per-shard [`trace::TraceSink`] armed for the
//! measured phase. Both views are folded offline from the recorded
//! events: the time series (virtual-time windows of `--period` ns x
//! shards) and the per-request span trees behind the exact p50/p95/p99
//! sojourn decomposition (queue wait, execution, commit, flush, fence
//! wait, WPQ stall, backoff, rollback).
//!
//! Always-on validation (nonzero exit on failure):
//!
//! * **coverage** — one reconstructed span per completed request, no
//!   trace-ring loss (`trace_dropped`, the one loss figure of both
//!   views);
//! * **1% closure** — the sum of span components equals the driver's
//!   independently-recorded sojourn total (`LatencyHistogram::sum()`,
//!   which is exact, unlike its bucketed percentiles) within 1%;
//! * **domain sanity** — under a flush-free domain (`--domain eadr`,
//!   `pdram`, `pdram-lite`) the series must contain zero fence-activity
//!   and zero WPQ-activity rows (no flush fences, no WPQ); under ADR
//!   both must be present.
//!
//! `--verify` replays the identical configuration and asserts the
//! exported series and decomposition are byte-identical (virtual-time
//! determinism of the telemetry pipeline).

use bench::args::Args;
use obs::export;
use obs::series::{self, SeriesSummary, ShardRow};
use obs::spans::{self, Comp, Decomposition};
use pmem_sim::DurabilityDomain;
use trace::json::Writer;
use trace::TraceSink;
use workloads::{ShardedRunConfig, ShardedRunResult, StreamConfig};

/// Mean inter-arrival gap of the request stream, ns.
const GAP_NS: u64 = 100;

struct Opts {
    json: bool,
    domain: DurabilityDomain,
    shards: usize,
    threads_per_shard: usize,
    ops: u64,
    period_ns: u64,
    seed: u64,
    out: Option<String>,
    verify: bool,
}

fn parse_opts() -> Opts {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let opts = Opts {
        json: args.flag("--json"),
        domain: args.value("--domain").unwrap_or(DurabilityDomain::Adr),
        shards: args.value("--shards").unwrap_or(8),
        threads_per_shard: args.value("--threads-per-shard").unwrap_or(1),
        ops: args
            .value("--ops")
            .unwrap_or(if quick { 800 } else { 4_000 }),
        period_ns: args.value("--period").unwrap_or(obs::DEFAULT_PERIOD_NS),
        seed: args.value("--seed").unwrap_or(42),
        out: args.value("--out"),
        verify: args.flag("--verify"),
    };
    args.finish();
    opts
}

struct Report {
    rows: Vec<ShardRow>,
    summary: SeriesSummary,
    op_spans: Vec<spans::OpSpan>,
    decomp: Decomposition,
    result: ShardedRunResult,
    trace_dropped: u64,
}

fn run(o: &Opts) -> Report {
    let mut rc = ShardedRunConfig {
        shards: o.shards,
        threads_per_shard: o.threads_per_shard,
        domain: o.domain,
        ..ShardedRunConfig::default()
    };
    rc.stream = StreamConfig {
        total_ops: o.ops,
        mean_gap_ns: GAP_NS,
        seed: o.seed,
        ..StreamConfig::default()
    };
    // Size trace rings so the hottest shard keeps every event (the 1%
    // closure check below requires zero ring loss).
    let ring_cap = ((o.ops * 256 / o.shards as u64).max(1 << 12)).next_power_of_two() as usize;
    rc.trace = (0..o.shards)
        .map(|i| TraceSink::new_for_shard(ring_cap, i as u32))
        .collect();

    let result = workloads::run_sharded_kv(&rc);

    let threads: Vec<_> = rc.trace.iter().flat_map(|sink| sink.threads()).collect();
    let rows = series::from_threads(&threads, o.period_ns);
    let summary = SeriesSummary::from_rows(&rows);
    let trace_dropped = threads.iter().map(|t| t.dropped).sum();
    let (op_spans, dropped_events) = spans::reconstruct(&threads);
    let decomp = spans::decompose(&op_spans, dropped_events, &[50.0, 95.0, 99.0]);

    Report {
        rows,
        summary,
        op_spans,
        decomp,
        result,
        trace_dropped,
    }
}

/// Canonical exported form of a report — what `--verify` compares
/// byte-for-byte across two identically-configured runs.
fn export_text(rep: &Report) -> String {
    let mut out = String::new();
    for row in &rep.rows {
        out.push_str(&export::series_row_json(row));
        out.push('\n');
    }
    out.push_str(&export::decomposition_json("sharded-kv", &rep.decomp));
    out.push('\n');
    out
}

/// Pick up to `n` evenly spaced windows for the text timeline.
fn timeline(rows: &[ShardRow], n: usize) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut windows: Vec<u64> = rows.iter().map(|r| r.ts).collect();
    windows.dedup();
    let stride = windows.len().div_ceil(n).max(1);
    windows
        .iter()
        .step_by(stride)
        .map(|&ts| {
            let mut commits = 0u64;
            let mut aborts = 0u64;
            let mut backlog_hw = 0u64;
            let mut stall_ns = 0u64;
            for r in rows.iter().filter(|r| r.ts == ts) {
                commits += r.g.commits;
                aborts += r.g.aborts_total();
                backlog_hw = backlog_hw.max(r.g.wpq_backlog_hw_ns);
                stall_ns += r.g.wpq_stall_ns;
            }
            (ts, commits, aborts, backlog_hw, stall_ns)
        })
        .collect()
}

fn main() {
    let o = parse_opts();
    let rep = run(&o);
    let mut failures: Vec<String> = Vec::new();

    // Coverage: every completed request reconstructed, no ring loss.
    let hist_count = rep.result.sojourn.count();
    let span_count = rep.op_spans.len() as u64;
    if rep.trace_dropped > 0 {
        failures.push(format!(
            "trace rings dropped {} events; span totals would be lower bounds",
            rep.trace_dropped
        ));
    }
    if span_count != hist_count {
        failures.push(format!(
            "reconstructed {span_count} spans but the driver completed {hist_count} requests"
        ));
    }

    // 1% closure: span components vs the driver's exact sojourn sum.
    let span_total: u64 = rep.op_spans.iter().map(|s| s.total_ns()).sum();
    let hist_total = rep.result.sojourn.sum();
    let closure_pct = if hist_total == 0 {
        0.0
    } else {
        100.0 * (span_total as f64 - hist_total as f64).abs() / hist_total as f64
    };
    if closure_pct > 1.0 {
        failures.push(format!(
            "span components sum to {span_total} ns vs measured sojourn total \
             {hist_total} ns ({closure_pct:.3}% > 1%)"
        ));
    }

    // Domain sanity on the series.
    let (fence_rows, wpq_rows) = (rep.summary.fence_rows, rep.summary.wpq_rows);
    if o.domain.requires_flushes() {
        if fence_rows == 0 || wpq_rows == 0 {
            failures.push(format!(
                "{} series missing expected activity: {fence_rows} fence rows, {wpq_rows} WPQ rows",
                o.domain
            ));
        }
    } else if fence_rows != 0 || wpq_rows != 0 {
        failures.push(format!(
            "{} series shows fence/WPQ activity: {fence_rows} fence rows, {wpq_rows} WPQ rows",
            o.domain
        ));
    }

    if o.verify {
        let rep2 = run(&o);
        if export_text(&rep) != export_text(&rep2) {
            failures.push("replay produced a different series/decomposition".to_string());
        }
    }

    if let Some(prefix) = &o.out {
        let mut csv = export::series_csv_header();
        csv.push('\n');
        for row in &rep.rows {
            csv.push_str(&export::series_row_csv(row));
            csv.push('\n');
        }
        std::fs::write(format!("{prefix}.series.csv"), csv).expect("write csv");
        std::fs::write(format!("{prefix}.series.jsonl"), export_text(&rep)).expect("write jsonl");
    }

    if o.json {
        print!("{}", export_text(&rep));
        let mut w = Writer::new();
        w.begin_object();
        w.key("schema_version")
            .u64(u64::from(export::SCHEMA_VERSION));
        w.key("kind").str("obs_validation");
        w.key("domain").str(&format!("{:?}", o.domain));
        w.key("shards").u64(o.shards as u64);
        w.key("threads_per_shard").u64(o.threads_per_shard as u64);
        w.key("ops").u64(o.ops);
        w.key("spans").u64(span_count);
        w.key("requests").u64(hist_count);
        w.key("span_total_ns").u64(span_total);
        w.key("sojourn_total_ns").u64(hist_total);
        w.key("closure_pct").f64(closure_pct, 4);
        w.key("fence_rows").u64(rep.summary.fence_rows as u64);
        w.key("wpq_rows").u64(rep.summary.wpq_rows as u64);
        w.key("series_rows").u64(rep.rows.len() as u64);
        w.key("windows").u64(rep.summary.windows as u64);
        w.key("trace_dropped").u64(rep.trace_dropped);
        w.key("verified_deterministic").bool(o.verify);
        w.key("ok").bool(failures.is_empty());
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "# obs_report: sharded-kv {}x{} {:?} period={}ns ops={}",
            o.shards, o.threads_per_shard, o.domain, o.period_ns, o.ops
        );
        let s = &rep.summary;
        println!(
            "series: rows={} windows={} shards={} span=[{}..{}]ns \
             fence_rows={} wpq_rows={} peak_window_commits={}",
            rep.rows.len(),
            s.windows,
            s.shards,
            s.first_ts,
            s.last_ts,
            s.fence_rows,
            s.wpq_rows,
            s.peak_window_commits
        );
        let t = &s.totals;
        println!(
            "totals: commits={} aborts={} sfences={} fence_wait_ns={} fence_joins={} \
             clwbs={} wpq_accepts={} wpq_stalls={} wpq_stall_ns={} backoffs={} \
             queue_waits={} queue_wait_ns={}",
            t.commits,
            t.aborts_total(),
            t.sfences,
            t.fence_wait_ns,
            t.fence_joins,
            t.clwbs,
            t.wpq_accepts,
            t.wpq_stalls,
            t.wpq_stall_ns,
            t.backoffs,
            t.queue_waits,
            t.queue_wait_ns
        );

        println!("## timeline (window_ts_ns, commits, aborts, wpq_backlog_hw_ns, wpq_stall_ns)");
        for (ts, commits, aborts, hw, stall) in timeline(&rep.rows, 16) {
            println!("{ts},{commits},{aborts},{hw},{stall}");
        }

        println!("## sojourn decomposition (ns)");
        print!("cohort,count,threshold_ns,mean_total");
        for c in Comp::ALL {
            print!(",{}", c.label());
        }
        println!();
        print!(
            "all,{},,{:.0}",
            rep.decomp.mean.count, rep.decomp.mean.mean_total_ns
        );
        for c in Comp::ALL {
            print!(",{:.0}", rep.decomp.mean.mean_comp_ns[c as usize]);
        }
        println!();
        for tail in &rep.decomp.tails {
            print!(
                "p{:.0},{},{},{:.0}",
                tail.pct, tail.cohort.count, tail.threshold_ns, tail.cohort.mean_total_ns
            );
            for c in Comp::ALL {
                print!(",{:.0}", tail.cohort.mean_comp_ns[c as usize]);
            }
            println!();
        }

        println!(
            "## validation: spans={span_count} requests={hist_count} \
             span_total={span_total}ns sojourn_total={hist_total}ns closure={closure_pct:.3}%{}",
            if o.verify {
                " replay=deterministic"
            } else {
                ""
            }
        );
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("obs_report: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
