//! Flight-recorder analysis: prove the trace is a faithful account of a
//! run, then mine it for the structures the counters cannot show.
//!
//! Two modes:
//!
//! * **Self-run** (default): run tpcc-hash under Optane/ADR/redo with the
//!   recorder attached (4 threads, a deliberately small WPQ so stall
//!   intervals appear), then cross-check every trace-derived total
//!   against the live `PtmStats`/`MachineStats` counters. Any divergence
//!   on a lossless trace is a bug and exits nonzero.
//! * **`--file <dump>`**: load a binary dump written by
//!   `phase_profile --trace` (or any harness run), cross-check against
//!   the counter totals embedded in the dump, and structurally validate
//!   the sibling `<dump>.json` Chrome trace if present. A dump that does
//!   not read (truncated, bad magic, an unassigned event code) exits
//!   nonzero with the reader's message.
//!
//! Both modes then report the orec abort-attribution heatmap (top-10
//! contended orecs with per-cause breakdown), the WPQ occupancy timeline
//! with merged stall intervals, and per-fence-window flush counts.
//! `--json` emits the same summary as a single JSON object.

use std::process::ExitCode;
use std::sync::Arc;

use bench::args::Args;
use bench::optane;
use pmem_sim::{DurabilityDomain, LatencyModel};
use trace::analyze::{abort_heatmap, crosscheck, fence_windows, wpq_timeline, WpqTimeline};
use trace::export::{read_binary, ExpectedTotals};
use trace::json::{check_structure, Writer};
use trace::{AbortCause, GaugeSet, ThreadTrace, TraceSink};
use workloads::driver::RunConfig;

struct Opts {
    quick: bool,
    json: bool,
    file: Option<String>,
    threads: usize,
    ops: u64,
    /// Treat ring-overwrite loss as a failure: any dropped events exit
    /// nonzero instead of silently downgrading totals to lower bounds.
    strict: bool,
}

fn parse_args() -> Opts {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let o = Opts {
        quick,
        threads: args.value("--threads").unwrap_or(4),
        ops: args
            .value("--ops")
            .unwrap_or(if quick { 300 } else { 1_500 }),
        json: args.flag("--json"),
        file: args.value("--file"),
        strict: args.flag("--strict"),
    };
    args.finish();
    o
}

/// Everything the report needs, regardless of where the trace came from.
struct Analysis {
    mode: String,
    threads: Vec<ThreadTrace>,
    dropped: u64,
    derived: GaugeSet,
    expected: ExpectedTotals,
    divergences: Vec<String>,
    json_check: Option<Result<(), String>>,
}

fn analyze_self_run(o: &Opts) -> Analysis {
    // Size the per-thread ring to the run so the trace is lossless and
    // the cross-check can demand exact equality: tpcc-hash transactions
    // record a few hundred events each (reads, writes, flushes, WPQ
    // acceptances), so 512 events/op is comfortable headroom.
    let ring_cap = (o.ops as usize * 512).next_power_of_two();
    let sink = TraceSink::new(ring_cap);
    let sc = optane("Optane_ADR_R", DurabilityDomain::Adr, ptm::Algo::RedoLazy);
    // A tiny WPQ makes the backlog bound reachable at bench scale, so the
    // stall-interval reconstruction has real intervals to find.
    let model = LatencyModel {
        wpq_lines: 4,
        ..LatencyModel::default()
    };
    let rc = RunConfig {
        threads: o.threads,
        ops_per_thread: o.ops,
        model,
        trace: Some(Arc::clone(&sink)),
        ..RunConfig::default()
    };
    let r = bench::run_point_with("tpcc-hash", &sc, &rc, o.quick);
    let expected = r.trace_totals();
    let threads = sink.threads();
    let derived = GaugeSet::of_run(&threads);
    let dropped = sink.dropped_events();
    let divergences = if dropped == 0 {
        crosscheck(&derived, &expected)
    } else {
        Vec::new() // lossy trace: equality is not expected
    };
    Analysis {
        mode: format!("self-run tpcc-hash {} x{}", sc.label, o.threads),
        threads,
        dropped,
        derived,
        expected,
        divergences,
        json_check: None,
    }
}

/// A dump that cannot be read or parsed is an `Err` naming the file.
fn analyze_file(path: &str) -> Result<Analysis, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let dump = read_binary(&bytes).map_err(|e| format!("parsing {path}: {e}"))?;
    let derived = GaugeSet::of_run(&dump.threads);
    let dropped = dump.dropped_events();
    let divergences = if dropped == 0 {
        crosscheck(&derived, &dump.expected)
    } else {
        Vec::new()
    };
    let sibling = format!("{path}.json");
    let json_check = std::fs::read_to_string(&sibling)
        .ok()
        .map(|s| check_structure(&s));
    Ok(Analysis {
        mode: format!("file {path}"),
        threads: dump.threads,
        dropped,
        derived,
        expected: dump.expected,
        divergences,
        json_check,
    })
}

fn print_text(a: &Analysis, heat: &[trace::analyze::OrecAborts], wpq: &WpqTimeline) {
    let events: u64 = a.threads.iter().map(|t| t.events.len() as u64).sum();
    println!("# trace_analyze: {}", a.mode);
    println!(
        "events={} threads={} dropped_events={}",
        events,
        a.threads.len(),
        a.dropped
    );
    if a.dropped > 0 {
        // Ring-overwrite loss is a first-class signal: name the lossy
        // threads so the operator can resize their rings.
        println!("\n## ring loss (per thread)");
        for t in a.threads.iter().filter(|t| t.dropped > 0) {
            let kept = t.events.len() as u64;
            println!(
                "tid={} dropped={} kept={} loss={:.1}%",
                t.tid,
                t.dropped,
                kept,
                100.0 * t.dropped as f64 / (t.dropped + kept).max(1) as f64
            );
        }
    }

    println!("\n## counter cross-check (trace-derived vs live counters)");
    if a.dropped > 0 {
        println!(
            "SKIPPED: {} events dropped (ring overflow) — all derived totals, \
             heatmaps and timelines below are LOWER BOUNDS over a suffix of the run",
            a.dropped
        );
    } else if a.divergences.is_empty() {
        println!(
            "OK: all {} totals match exactly (commits={} aborts={} clwbs={} sfences={})",
            trace::export::TOTALS.len(),
            a.derived.commits,
            a.derived.aborts_total(),
            a.derived.clwbs,
            a.derived.sfences
        );
    } else {
        for d in &a.divergences {
            println!("DIVERGENT {d}");
        }
    }
    if let Some(check) = &a.json_check {
        match check {
            Ok(()) => println!("chrome JSON sibling: structurally valid"),
            Err(e) => println!("chrome JSON sibling: INVALID ({e})"),
        }
    }

    let bound = if a.dropped > 0 { " [lower bound]" } else { "" };
    println!(
        "\n## orec abort heatmap (top-{}, cause breakdown){bound}",
        heat.len()
    );
    println!("orec,total,read_locked,read_version,acquire,validation");
    for h in heat {
        println!(
            "{},{},{},{},{},{}",
            h.orec,
            h.total,
            h.by_cause[AbortCause::ReadLocked as usize],
            h.by_cause[AbortCause::ReadVersion as usize],
            h.by_cause[AbortCause::Acquire as usize],
            h.by_cause[AbortCause::Validation as usize],
        );
    }
    if heat.is_empty() {
        println!("(no orec-attributable aborts)");
    }

    println!("\n## WPQ occupancy timeline{bound}");
    println!(
        "samples={} max_backlog_ns={} total_stall_ns={} stall_intervals={}",
        wpq.samples.len(),
        wpq.max_backlog_ns,
        wpq.total_stall_ns,
        wpq.stalls.len()
    );
    for s in wpq.stalls.iter().take(10) {
        println!(
            "stall [{} .. {}] span_ns={} events={} stall_ns={}",
            s.start,
            s.end,
            s.end - s.start,
            s.events,
            s.stall_ns
        );
    }

    let windows = fence_windows(&a.threads);
    println!("\n## fence windows{bound}");
    if windows.is_empty() {
        println!("windows=0 (no sfence events — eADR or untraced run)");
    } else {
        let total_clwbs: u64 = windows.iter().map(|w| w.clwbs).sum();
        let waited = windows.iter().filter(|w| w.wait_ns > 0).count();
        println!(
            "windows={} clwbs_per_window_mean={:.2} windows_with_wait={} max_window_clwbs={}",
            windows.len(),
            total_clwbs as f64 / windows.len() as f64,
            waited,
            windows.iter().map(|w| w.clwbs).max().unwrap_or(0)
        );
    }
}

fn print_json(a: &Analysis, heat: &[trace::analyze::OrecAborts], wpq: &WpqTimeline) {
    let events: u64 = a.threads.iter().map(|t| t.events.len() as u64).sum();
    let mut w = Writer::with_capacity(1024);
    w.begin_object();
    w.key("schema_version")
        .u64(u64::from(bench::report::SCHEMA_VERSION));
    w.key("mode").str(&a.mode);
    w.key("events").u64(events);
    w.key("threads").u64(a.threads.len() as u64);
    w.key("dropped_events").u64(a.dropped);
    w.key("lower_bounds").bool(a.dropped > 0);
    w.key("dropped_per_thread").begin_array();
    for t in a.threads.iter().filter(|t| t.dropped > 0) {
        w.begin_object();
        w.key("tid").u64(u64::from(t.tid));
        w.key("dropped").u64(t.dropped);
        w.end_object();
    }
    w.end_array();
    w.key("crosscheck").begin_object();
    w.key("checked").bool(a.dropped == 0);
    w.key("divergences").begin_array();
    for d in &a.divergences {
        w.str(d);
    }
    w.end_array().end_object();
    w.key("totals").begin_object();
    for (name, v) in a.expected.fields() {
        w.key(name).u64(v);
    }
    w.end_object();
    w.key("heatmap").begin_array();
    for h in heat {
        w.begin_object();
        w.key("orec").u64(h.orec);
        w.key("total").u64(h.total);
        for cause in [
            AbortCause::ReadLocked,
            AbortCause::ReadVersion,
            AbortCause::Acquire,
            AbortCause::Validation,
        ] {
            w.key(cause.label()).u64(h.by_cause[cause as usize]);
        }
        w.end_object();
    }
    w.end_array();
    w.key("wpq").begin_object();
    w.key("samples").u64(wpq.samples.len() as u64);
    w.key("max_backlog_ns").u64(wpq.max_backlog_ns);
    w.key("total_stall_ns").u64(wpq.total_stall_ns);
    w.key("stall_intervals").begin_array();
    for s in &wpq.stalls {
        w.begin_object();
        w.key("start").u64(s.start);
        w.key("end").u64(s.end);
        w.key("events").u64(s.events);
        w.key("stall_ns").u64(s.stall_ns);
        w.end_object();
    }
    w.end_array().end_object();
    w.key("fence_windows")
        .u64(fence_windows(&a.threads).len() as u64);
    w.end_object();
    println!("{}", w.finish());
}

fn main() -> ExitCode {
    let o = parse_args();
    let a = match &o.file {
        Some(path) => match analyze_file(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("trace_analyze: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => analyze_self_run(&o),
    };
    let merged = trace::merge_threads(&a.threads);
    let heat = abort_heatmap(&merged, 10);
    let wpq = wpq_timeline(&merged);

    if o.json {
        print_json(&a, &heat, &wpq);
    } else {
        print_text(&a, &heat, &wpq);
    }

    let json_bad = matches!(&a.json_check, Some(Err(_)));
    if !a.divergences.is_empty() || json_bad {
        eprintln!("trace_analyze: FAILED (divergences or invalid chrome JSON)");
        return ExitCode::FAILURE;
    }
    if o.strict && a.dropped > 0 {
        eprintln!(
            "trace_analyze: FAILED (--strict: {} events dropped by ring overwrite)",
            a.dropped
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
