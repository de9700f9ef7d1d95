//! The benchmark program: one workload per process (so `peak_rss_mb` is
//! per workload). `run.sh` builds it and calls it; see `README.md`.
//!
//! ```text
//! ptm-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out DIR] [--sabotage drop-transfer]
//! ptm-benchmark --layers [--smoke]
//! ```
//!
//! The last line of standard output is the result object the benchmark
//! contract defines; everything above it is for people.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ptm_benchmark::calib::HostSpeed;
use ptm_benchmark::report::{self, Check, Outcome, CLOSURE_LIMIT};
use ptm_benchmark::suite::bank::{self, Sabotage};
use ptm_benchmark::suite::{run_rep, Rep, Scale, Traced, WorkloadId};
use ptm_benchmark::{layers, traced};

/// Fewest timed repetitions a median is taken over.
const MIN_REPS: usize = 3;
/// Untraced repetitions at the traced scale: the overhead baseline.
const BASELINE_REPS: usize = 3;

struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layers_only: bool,
    smoke: bool,
    out: PathBuf,
    sabotage: Sabotage,
}

fn usage() -> String {
    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: ptm-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR] [--sabotage drop-transfer]\n       ptm-benchmark --layers [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: ptm_benchmark::RUN_SECONDS as f64,
        trace: false,
        layers_only: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        sabotage: Sabotage::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(WorkloadId::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3_600.0)
                    .ok_or(format!("--seconds `{v}` is not in (0, 3600]"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--sabotage" => {
                args.sabotage = match value()?.as_str() {
                    "drop-transfer" => Sabotage::DropOneTransfer,
                    v => return Err(format!("unknown sabotage `{v}`")),
                };
            }
            "--layers" => args.layers_only = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.layers_only && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    if args.sabotage != Sabotage::None && args.workload != Some(WorkloadId::BankCrashRestart) {
        return Err("--sabotage applies to bank_crash_restart only".into());
    }
    Ok(args)
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

fn run_workload(args: &Args, id: WorkloadId) -> (Outcome, Option<Traced>) {
    // Every repetition is bracketed by two samples of the host-speed
    // kernel; each sample serves the repetition before and after it.
    let mut host_speed = HostSpeed::new(id.os_threads());
    let mut before = host_speed.slowdown();
    let mut rep = |scale: Scale, traced: bool| {
        let (mut rep, t) = match args.sabotage {
            Sabotage::None => run_rep(id, scale, args.seed, traced),
            sabotage => bank::run_rep(scale, args.seed, traced, sabotage),
        };
        let after = host_speed.slowdown();
        rep.slowdown = (before + after) / 2.0;
        before = after;
        (rep, t)
    };
    let (scale, traced_scale) = if args.smoke {
        (Scale::Smoke, Scale::Smoke)
    } else {
        (Scale::Full, Scale::Traced)
    };
    // A traced run splits its time between the counters' repetitions and
    // the traced extras.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let min_reps = if args.smoke { 2 } else { MIN_REPS };

    // One discarded warm-up: first-touch page faults and lazy set-up.
    rep(scale, false);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || (!args.smoke && started.elapsed() < budget) {
        reps.push(rep(scale, false).0);
    }
    let diverged = report::determinism_failures(id, &mut reps);
    let end_to_end = report::end_to_end(&reps);

    let mut checks = vec![check(
        "virtual-time determinism",
        diverged == 0,
        if id.deterministic() {
            format!("{} reps bit-identical on the virtual clock", reps.len())
        } else {
            "not asserted: two threads race inside one clock domain".into()
        },
    )];
    // Counters cost nothing extra, so every run reports them; the traced
    // run adds the trace's and the micro-probes' numbers.
    let mut per_layer = report::layer_counters(id, &reps);
    let mut extra: Vec<Rep> = Vec::new();
    let mut traced_out = None;
    if args.trace {
        let mut baseline: Vec<Rep> = (0..BASELINE_REPS)
            .map(|_| rep(traced_scale, false).0)
            .collect();
        report::determinism_failures(id, &mut baseline);
        let (traced_rep, t) = rep(traced_scale, true);
        let t = t.expect("traced repetition returns its trace");
        per_layer.extend(report::layer_traced(&traced_rep, &t, &baseline));
        let (probes, mismatches) = layers::run(scale);
        per_layer.extend(probes);

        checks.push(check(
            "span closure",
            t.closure_err <= CLOSURE_LIMIT,
            format!(
                "span components vs measured latency: {:.5} (limit {CLOSURE_LIMIT})",
                t.closure_err
            ),
        ));
        checks.push(check(
            "tracing leaves virtual time alone",
            !id.deterministic() || traced_rep.virt == baseline[0].virt,
            if id.deterministic() {
                "traced and untraced virtual statistics compared bit for bit".into()
            } else {
                "not asserted on the 2-thread workload".into()
            },
        ));
        // A ring sized from an exact events/op count that still drops is
        // a sizing bug; with retries in play it only marks lower bounds.
        checks.push(check(
            "trace ring",
            t.dropped_events == 0 || !id.deterministic(),
            if t.dropped_events == 0 {
                format!("lossless, {} events", t.events)
            } else {
                format!(
                    "{} events dropped: span totals are lower bounds over a suffix of the run",
                    t.dropped_events
                )
            },
        ));
        checks.push(check(
            "model calibration (DESIGN.md §6)",
            mismatches.is_empty(),
            if mismatches.is_empty() {
                "l3 hit, DRAM load, Optane load, clwb+sfence read back as documented".into()
            } else {
                mismatches.join("; ")
            },
        ));
        extra = baseline;
        extra.push(traced_rep);
        traced_out = Some(t);
    }

    for (i, r) in reps.iter().chain(&extra).enumerate() {
        for f in &r.failures {
            checks.push(check(
                "failed ops",
                false,
                format!("rep {}: {} op(s): {}", i + 1, f.ops, f.why),
            ));
        }
    }
    let all = || reps.iter().chain(&extra);
    let outcome = Outcome {
        workload: id,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        reps: reps.len(),
        attempted: all().map(|r| r.ops).sum(),
        failed: all().map(Rep::failed_ops).sum(),
        host_slowdown: report::host_slowdown(&reps),
        end_to_end,
        per_layer,
        checks,
    };
    (outcome, traced_out)
}

fn write_outputs(out: &Path, outcome: &Outcome, t: Option<&Traced>) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let name = outcome.workload.name();
    std::fs::write(
        out.join(format!("{name}.json")),
        report::outcome_json(outcome) + "\n",
    )?;
    if let Some(t) = t {
        traced::write_trace(
            &out.join(format!("trace_{name}.json")),
            name,
            outcome.seed,
            t,
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.layers_only {
        let scale = if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        };
        let (set, mismatches) = layers::run(scale);
        println!("== layers: host cost of single public calls, median of 15 batches");
        for (name, s) in set.iter() {
            let def = ptm_benchmark::metrics::lookup(name).expect("registered");
            println!(
                "  {name:<42} {:>14.3} {:<5} ({})",
                s.median, def.unit, def.clock
            );
        }
        for m in &mismatches {
            println!("  MODEL MISMATCH {m}");
        }
        return if mismatches.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let id = args.workload.expect("checked by parse_args");
    let (outcome, t) = run_workload(&args, id);
    if let Err(e) = write_outputs(&args.out, &outcome, t.as_ref()) {
        eprintln!("cannot write results under {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    print!("{}", report::human(&outcome));
    println!("{}", report::contract_line(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
