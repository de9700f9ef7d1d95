//! shard_scaling — aggregate throughput of the sharded multi-pool engine.
//!
//! Sweeps shard counts 1 → 16 on the open-loop sharded KV workload
//! (Zipfian key population, bursty arrivals; see `workloads::sharded`)
//! under ADR/Optane, with cross-transaction group commit off and on at
//! each point. Reports aggregate Mops/s (total ops over the largest
//! shard makespan), sojourn p99 (request arrival → completion), fences
//! per committed transaction and the worst per-shard WPQ stall. The full
//! run adds a TPCC (hash index) curve with warehouse-affine routing.
//!
//! Two regression guards are always on (including `--quick`) and fail
//! the run with a nonzero exit:
//!
//! * **scaling** — aggregate ops/s at the largest shard count must be
//!   more than `shards/2`× the 1-shard baseline (the full sweep hence
//!   demands > 4× at 8 shards, the ISSUE acceptance bar);
//! * **group commit** — at ≥ 4 threads per shard the grouped arm must
//!   retire fewer fences per commit than the plain arm.
//!
//! The run then sweeps the cross-shard transfer workload over
//! `--cross-shard-frac` at the largest configured shard count, under
//! both ADR and eADR, reporting the single-shard-vs-2PC throughput and
//! fence-cost curve (EXPERIMENTS.md §"Cross-shard 2PC"). A third guard
//! rides along whenever the frac list contains both 0 and 0.1:
//!
//! * **2PC cost** — mean transaction latency at frac=0.1 under ADR must
//!   stay ≤ 2.5× the all-single-shard (frac=0) latency.

use bench::args::{fail, Args};
use bench::report;
use pmem_sim::DurabilityDomain;
use workloads::{IndexKind, ShardedRunConfig, ShardedRunResult, StreamConfig};

struct Opts {
    quick: bool,
    json: bool,
    shards: Vec<usize>,
    threads_per_shard: usize,
    ops_per_shard: u64,
    seed: u64,
    cross_frac: Vec<f64>,
}

fn parse_opts() -> Opts {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let opts = Opts {
        quick,
        json: args.flag("--json"),
        shards: args.list("--shards").unwrap_or_else(|| {
            if quick {
                vec![1, 2, 4]
            } else {
                vec![1, 2, 4, 8, 16]
            }
        }),
        threads_per_shard: args.value("--threads-per-shard").unwrap_or(4),
        ops_per_shard: args
            .value("--ops-per-shard")
            .unwrap_or(if quick { 250 } else { 2_000 }),
        seed: args.value("--seed").unwrap_or(42),
        cross_frac: args.list("--cross-shard-frac").unwrap_or_else(|| {
            if quick {
                vec![0.0, 0.1]
            } else {
                vec![0.0, 0.01, 0.1, 0.5]
            }
        }),
    };
    args.finish();
    if let Some(f) = opts.cross_frac.iter().find(|f| !(0.0..=1.0).contains(*f)) {
        fail(format!("--cross-shard-frac {f} is not in [0, 1]"));
    }
    opts
}

/// One measurement point. The stream size scales with the shard count
/// (open-loop offered load per shard stays constant) and the arrival
/// gap is kept small so every point is saturated — the curve then
/// measures service capacity, not the client population.
fn point(opts: &Opts, shards: usize, group_commit: bool) -> ShardedRunConfig {
    let mut rc = ShardedRunConfig {
        shards,
        threads_per_shard: opts.threads_per_shard,
        ..ShardedRunConfig::default()
    };
    rc.ptm.group_commit = group_commit;
    rc.stream = StreamConfig {
        total_ops: opts.ops_per_shard * shards as u64,
        keys: 1 << 14,
        mean_gap_ns: 20,
        seed: opts.seed,
        ..StreamConfig::default()
    };
    rc
}

fn emit(opts: &Opts, workload: &str, r: &ShardedRunResult, group_commit: bool) {
    if opts.json {
        println!("{}", report::sharded_point_json(workload, r));
        return;
    }
    let max_wpq_stall = r
        .per_shard_mem
        .iter()
        .map(|m| m.wpq_stall_ns)
        .max()
        .unwrap_or(0);
    println!(
        "{},{},{},{},{},{:.4},{},{:.3},{},{},{}",
        workload,
        r.shards,
        r.threads_per_shard,
        group_commit as u8,
        r.ops,
        r.throughput_mops(),
        r.sojourn.summary().p99,
        r.sfences_per_commit(),
        r.ptm.sfences_elided,
        r.ptm.group_commit_windows,
        max_wpq_stall
    );
}

fn main() {
    let opts = parse_opts();
    if !opts.json {
        println!(
            "workload,shards,threads_per_shard,group_commit,ops,throughput_mops,\
             sojourn_p99_ns,sfences_per_commit,sfences_elided,group_commit_windows,\
             max_shard_wpq_stall_ns"
        );
    }

    let mut kv_plain: Vec<(usize, f64)> = Vec::new();
    let mut gc_guard: Option<(f64, f64)> = None;
    for &shards in &opts.shards {
        let plain = workloads::run_sharded_kv(&point(&opts, shards, false));
        let mut grouped = workloads::run_sharded_kv(&point(&opts, shards, true));
        // Its own scenario, so archives key it apart from the plain arm.
        grouped.label.push_str("-gc");
        kv_plain.push((shards, plain.throughput_mops()));
        if gc_guard.is_none() && opts.threads_per_shard >= 4 {
            gc_guard = Some((plain.sfences_per_commit(), grouped.sfences_per_commit()));
        }
        emit(&opts, "sharded-kv", &plain, false);
        emit(&opts, "sharded-kv", &grouped, true);
    }

    if !opts.quick {
        for &shards in &opts.shards {
            let mut rc = point(&opts, shards, false);
            // Warehouse-affine routing: one warehouse per shard-thread.
            rc.stream.keys = (shards * opts.threads_per_shard) as u64;
            let r = workloads::run_sharded_tpcc(&rc, IndexKind::Hash);
            emit(&opts, "sharded-tpcc-hash", &r, false);
        }
    }

    // Cross-shard 2PC cost curve: the transfer/multi-get workload at
    // the largest configured shard count, swept over the cross-shard
    // fraction under ADR and eADR. The eADR arm shows the prepare-fence
    // collapse the paper predicts for flush-free domains.
    let xshard_shards = opts.shards.iter().copied().max().unwrap_or(1);
    let mut adr_latency: Vec<(f64, f64)> = Vec::new();
    if xshard_shards > 1 {
        for domain in [DurabilityDomain::Adr, DurabilityDomain::Eadr] {
            let dom_label = domain.name();
            for &frac in &opts.cross_frac {
                let mut rc = point(&opts, xshard_shards, false);
                rc.domain = domain;
                rc.stream.keys = 1 << 12;
                let r = workloads::run_cross_shard_transfer(&rc, frac);
                if domain == DurabilityDomain::Adr {
                    adr_latency.push((frac, r.sojourn.summary().mean_ns));
                }
                emit(&opts, &format!("xshard-{dom_label}-f{frac:.2}"), &r, false);
            }
        }
    }

    let mut failed = false;
    let base = kv_plain.iter().find(|(s, _)| *s == 1).map(|(_, t)| *t);
    let top = kv_plain.iter().max_by_key(|(s, _)| *s);
    if let (Some(base), Some(&(shards, t))) = (base, top) {
        if shards > 1 {
            let speedup = t / base;
            let bar = shards as f64 / 2.0;
            if speedup <= bar {
                failed = true;
                eprintln!(
                    "REGRESSION: sharded-kv aggregate throughput at {shards} shards is only \
                     {speedup:.2}x the 1-shard baseline (needs > {bar:.1}x)"
                );
            }
        }
    }
    let at = |fs: &[(f64, f64)], want: f64| {
        fs.iter()
            .find(|(f, _)| (f - want).abs() < 1e-9)
            .map(|(_, m)| *m)
    };
    if let (Some(base), Some(mixed)) = (at(&adr_latency, 0.0), at(&adr_latency, 0.1)) {
        let ratio = mixed / base.max(1e-9);
        if ratio > 2.5 {
            failed = true;
            eprintln!(
                "REGRESSION: cross-shard mean latency at frac=0.1 under ADR is {ratio:.2}x \
                 the all-single-shard baseline (needs <= 2.5x)"
            );
        }
    }
    if let Some((plain, grouped)) = gc_guard {
        if grouped >= plain {
            failed = true;
            eprintln!(
                "REGRESSION: group commit does not reduce fences per commit at \
                 {} threads/shard ({grouped:.3} vs {plain:.3})",
                opts.threads_per_shard
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
