//! From measured repetitions to named metrics, checks, and the three
//! outputs: a table for people, `out/<workload>.json` for tools, and the
//! one-line result the benchmark contract asks for.

use ptm::Phase;

use crate::host::{cores, peak_rss_mb};
use crate::json::{self, Obj};
use crate::metrics::{lookup, MetricSet, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::suite::{Rep, Restart, Traced, WorkloadId};

/// Span components must close against measured latency within this.
pub const CLOSURE_LIMIT: f64 = 0.01;

/// One verdict of the run's self-checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one process measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Host slowdown against the nominal host over the timed
    /// repetitions; corrected host metrics are raw ÷ this.
    pub host_slowdown: Summary,
    pub end_to_end: MetricSet,
    /// Counters of the untraced repetitions; the traced run adds the
    /// trace's and the micro-probes' numbers.
    pub per_layer: MetricSet,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// On a deterministic workload every repetition must reproduce the first
/// one's virtual statistics bit for bit; each one that does not counts
/// all its ops as failed. Returns how many diverged.
pub fn determinism_failures(id: WorkloadId, reps: &mut [Rep]) -> usize {
    if !id.deterministic() {
        return 0;
    }
    let Some((first, rest)) = reps.split_first_mut() else {
        return 0;
    };
    let mut diverged = 0;
    for (i, rep) in rest.iter_mut().enumerate() {
        if rep.virt != first.virt {
            diverged += 1;
            rep.fail(
                rep.ops,
                format!("virtual statistics of rep {} differ from rep 1", i + 2),
            );
        }
    }
    diverged
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The host's slowdown over these repetitions.
pub fn host_slowdown(reps: &[Rep]) -> Summary {
    Summary::of(&per_rep(reps, |r| r.slowdown))
}

/// The seven end-to-end metrics: medians over the timed repetitions.
/// Host times are in nominal host seconds: each repetition's raw time
/// divided by the slowdown calibrated around it (see [`crate::calib`]).
pub fn end_to_end(reps: &[Rep]) -> MetricSet {
    let mut set = MetricSet::new();
    set.set_reps("sim_mops", &per_rep(reps, |r| r.virt.mops));
    set.set_reps("sim_mean_ns", &per_rep(reps, |r| r.virt.mean_ns));
    set.set_reps("sim_p99_ns", &per_rep(reps, |r| r.virt.p99_ns));
    set.set_reps(
        "host_ops_per_s",
        &per_rep(reps, |r| r.ops as f64 / (r.measured.wall_s / r.slowdown)),
    );
    set.set_reps(
        "host_cpu_s_per_mop",
        &per_rep(reps, |r| {
            r.measured.cpu_s() / r.slowdown * 1e6 / r.ops as f64
        }),
    );
    set.set_reps("setup_s", &per_rep(reps, |r| r.setup_s / r.slowdown));
    set.set("peak_rss_mb", peak_rss_mb());
    set
}

/// Per-layer metrics that come from the untraced repetitions' counters:
/// exact at one thread per clock domain, medians otherwise.
pub fn layer_counters(id: WorkloadId, reps: &[Rep]) -> MetricSet {
    let mut set = MetricSet::new();
    let ops = |r: &Rep| r.virt.ops as f64;
    let mut mem = |name: &'static str, f: &dyn Fn(&pmem_sim::StatsSnapshot) -> u64| {
        set.set_reps(name, &per_rep(reps, |r| f(&r.virt.mem) as f64 / ops(r)));
    };
    mem("pmem-sim.loads_per_op", &|m| m.loads);
    mem("pmem-sim.stores_per_op", &|m| m.stores);
    mem("pmem-sim.clwbs_per_op", &|m| m.clwbs);
    mem("pmem-sim.sfences_per_op", &|m| m.sfences);
    mem("pmem-sim.optane_lines_per_op", &|m| m.optane_lines_written);
    mem("pmem-sim.evictions_per_op", &|m| m.evictions);
    mem("pmem-sim.fence_wait_ns_per_op", &|m| m.fence_wait_ns);
    mem("pmem-sim.wpq_stall_ns_per_op", &|m| m.wpq_stall_ns);
    set.set_reps(
        "pmem-sim.l3_miss_rate",
        &per_rep(reps, |r| {
            let m = &r.virt.mem;
            m.l3_misses as f64 / (m.l3_hits + m.l3_misses).max(1) as f64
        }),
    );
    set.set_reps(
        "pmem-sim.clock.sys_share",
        &per_rep(reps, |r| r.measured.sys_s / r.measured.cpu_s().max(1e-9)),
    );
    set.set_reps(
        "ptm.commits_per_op",
        &per_rep(reps, |r| r.virt.ptm.commits as f64 / ops(r)),
    );
    set.set_reps(
        "ptm.abort_rate",
        &per_rep(reps, |r| {
            let p = &r.virt.ptm;
            p.aborts as f64 / (p.commits + p.aborts).max(1) as f64
        }),
    );
    set.set_reps(
        "ptm.max_write_entries",
        &per_rep(reps, |r| r.virt.ptm.max_write_entries as f64),
    );
    if reps.iter().all(|r| r.virt.phases.is_some()) {
        for (name, phase) in [
            ("ptm.phase.speculation_share", Phase::Speculation),
            ("ptm.phase.log_append_share", Phase::LogAppend),
            ("ptm.phase.flush_share", Phase::Flush),
            ("ptm.phase.fence_wait_share", Phase::FenceWait),
            ("ptm.phase.validation_share", Phase::Validation),
            ("ptm.phase.writeback_share", Phase::Writeback),
            ("ptm.phase.rollback_share", Phase::Rollback),
            ("ptm.phase.backoff_share", Phase::Backoff),
        ] {
            set.set_reps(
                name,
                &per_rep(reps, |r| r.virt.phases.expect("checked").share(phase)),
            );
        }
    }
    if id == WorkloadId::KvOpen2Shard {
        set.set_reps(
            "workloads.sharded.sfences_per_commit",
            &per_rep(reps, |r| {
                r.virt.mem.sfences as f64 / r.virt.ptm.commits.max(1) as f64
            }),
        );
    }
    if reps.iter().all(|r| r.restart.is_some()) {
        // Host times of the restart are in nominal host seconds, like the
        // end-to-end host metrics; counts are as counted.
        let mut restart = |name: &'static str, f: &dyn Fn(&Rep, &Restart) -> f64| {
            set.set_reps(name, &per_rep(reps, |r| f(r, &r.restart.expect("checked"))));
        };
        restart("restart_s", &|r, s| s.full_restart_s / r.slowdown);
        restart("ptm.first_txn_s", &|r, s| s.first_txn_s / r.slowdown);
        restart("ptm.recovery_host_ms", &|r, s| s.recovery_ms / r.slowdown);
        restart("ptm.recovery_logs", &|_, s| s.recovery_logs);
        restart("palloc.gc_scan_ms", &|r, s| s.gc_scan_ms / r.slowdown);
        restart("palloc.gc_mark_ms", &|r, s| s.gc_mark_ms / r.slowdown);
        restart("palloc.gc_sweep_ms", &|r, s| s.gc_sweep_ms / r.slowdown);
        restart("palloc.gc_blocks_reclaimed", &|_, s| s.gc_blocks_reclaimed);
    }
    set
}

/// Per-layer metrics of the traced repetition. `baseline` are untraced
/// repetitions at the same op count, whose median wall is what tracing
/// overhead is measured against.
pub fn layer_traced(traced_rep: &Rep, t: &Traced, baseline: &[Rep]) -> MetricSet {
    let mut set = MetricSet::new();
    let nominal_wall = |r: &Rep| r.measured.wall_s / r.slowdown;
    let base_wall = median(&per_rep(baseline, nominal_wall));
    set.set(
        "trace.overhead_share",
        (nominal_wall(traced_rep) - base_wall) / base_wall,
    );
    set.set(
        "trace.events_per_op",
        t.events as f64 / t.ops.len().max(1) as f64,
    );
    set.set("trace.dropped_events", t.dropped_events as f64);
    set.set("obs.span_closure_err", t.closure_err);
    let mut host: Vec<u64> = t
        .ops
        .iter()
        .filter_map(|o| o.host.map(|(s, e)| e - s))
        .collect();
    if !host.is_empty() {
        host.sort_unstable();
        let in_ops: u64 = host.iter().sum();
        set.set(
            "workloads.op_host_ns_p50",
            crate::probe::nearest_rank(&host, 50, 100) as f64,
        );
        set.set(
            "workloads.op_host_ns_p99",
            crate::probe::nearest_rank(&host, 99, 100) as f64,
        );
        // Measured-phase wall not inside any op: thread spawn, the loop,
        // histogram merge. With several threads the ops overlap, so the
        // in-op time is averaged over the lanes.
        let lanes = t.ops.iter().map(|o| o.tid).max().map_or(1, |m| m + 1) as f64;
        let wall_ns = (t.measure_end_host_ns - t.setup_end_host_ns) as f64;
        set.set(
            "workloads.driver_share",
            (1.0 - in_ops as f64 / lanes / wall_ns).max(0.0),
        );
    }
    if let Some(q) = t.queue_share_p99 {
        set.set("workloads.sharded.queue_share_p99", q);
    }
    if let Some(i) = t.imbalance {
        set.set("workloads.sharded.imbalance", i);
    }
    set
}

fn metric_json(set: &MetricSet) -> String {
    let mut o = Obj::new();
    for (name, s) in set.iter() {
        let def = lookup(name).expect("registered");
        let m = Obj::new()
            .num("value", s.median)
            .str("unit", def.unit)
            .str("better", def.better.label())
            .str("clock", def.clock)
            .num("q1", s.q1)
            .num("q3", s.q3)
            .int("n", s.n as u64);
        o = o.raw(name, &m.finish());
    }
    o.finish()
}

/// The machine-readable result of one workload.
pub fn outcome_json(o: &Outcome) -> String {
    let checks = json::array(o.checks.iter().map(|c| {
        Obj::new()
            .str("name", c.name)
            .bool("ok", c.ok)
            .str("detail", &c.detail)
            .finish()
    }));
    Obj::new()
        .str("workload", o.workload.name())
        .str("why", o.workload.why())
        .int("seed", o.seed)
        .num("seconds", o.seconds)
        .bool("smoke", o.smoke)
        .int("reps", o.reps as u64)
        .int("host_cores", cores() as u64)
        .bool("correct", o.correct())
        .int("attempted", o.attempted)
        .int("failed", o.failed)
        .num("fail_share", o.fail_share())
        .raw(
            "host_slowdown",
            &Obj::new()
                .num("value", o.host_slowdown.median)
                .num("q1", o.host_slowdown.q1)
                .num("q3", o.host_slowdown.q3)
                .int("n", o.host_slowdown.n as u64)
                .finish(),
        )
        .raw("end_to_end", &metric_json(&o.end_to_end))
        .raw("per_layer", &metric_json(&o.per_layer))
        .raw("checks", &checks)
        .raw("claim", "null")
        .finish()
}

/// The contract's result line: every end-to-end metric of the registry
/// (untraced run) or every per-layer metric (traced run; 0 where the
/// metric does not apply to the workload).
pub fn contract_line(o: &Outcome, traced: bool) -> String {
    let (defs, set) = if traced {
        (PER_LAYER, &o.per_layer)
    } else {
        (END_TO_END, &o.end_to_end)
    };
    let mut metrics = Obj::new();
    for def in defs {
        let value = match set.get(def.name) {
            Some(s) => s.median,
            None => {
                assert!(traced, "end-to-end metric `{}` was not measured", def.name);
                0.0
            }
        };
        let m = Obj::new().num("value", value).str("unit", def.unit);
        metrics = metrics.raw(def.name, &m.finish());
    }
    Obj::new()
        .bool("correct", o.correct())
        .int("attempted", o.attempted)
        .int("failed", o.failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

/// The table for people: every metric by name, with unit, quartiles and
/// sample count.
pub fn human(o: &Outcome) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}, {} timed reps, {} host cores{})",
        o.workload.name(),
        o.seed,
        o.reps,
        cores(),
        if o.smoke { ", SMOKE scale" } else { "" }
    );
    let mut table = |title: &str, set: &MetricSet| {
        if set.iter().next().is_none() {
            return;
        }
        let _ = writeln!(
            out,
            "  {title:<40} {:>16} {:<7} {:>14} {:>14} {:>3}  clock",
            "median", "unit", "q1", "q3", "n"
        );
        for (name, s) in set.iter() {
            let def = lookup(name).expect("registered");
            let _ = writeln!(
                out,
                "  {name:<40} {:>16.6} {:<7} {:>14.6} {:>14.6} {:>3}  {}",
                s.median, def.unit, s.q1, s.q3, s.n, def.clock
            );
        }
    };
    table("end-to-end", &o.end_to_end);
    table("per-layer", &o.per_layer);
    let _ = writeln!(
        out,
        "  {:<40} {:>16.6} {:<7} ({} failed of {} attempted)",
        "fail_share",
        o.fail_share(),
        "ratio",
        o.failed,
        o.attempted
    );
    let _ = writeln!(
        out,
        "  {:<40} {:>16.6} {:<7} {:>14.6} {:>14.6} {:>3}  host metrics above are raw / this",
        "host_slowdown (vs nominal host)",
        o.host_slowdown.median,
        "ratio",
        o.host_slowdown.q1,
        o.host_slowdown.q3,
        o.host_slowdown.n
    );
    for c in &o.checks {
        let _ = writeln!(
            out,
            "  check {:<34} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    out
}
