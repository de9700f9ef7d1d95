//! `kv_open_2shard`: the open-loop sharded key/value store, run through
//! [`workloads::run_sharded_kv`].
//!
//! Two passes over the same key population. Pass A is *paced* (mean gap
//! 2400 ns between arrival instants of 1..=8 requests ≈ 1.88 Mops/s
//! offered, about three quarters of capacity): its sojourn times, counted
//! from each request's arrival instant, are the latency metrics. Pass B
//! is *saturated* (mean gap 300 ns): its throughput is the capacity.
//! `run_sharded_kv` populates internally, so set-up is measured by an
//! identical call with a one-request stream and subtracted from each
//! pass.

use std::sync::Arc;

use pmem_sim::DurabilityDomain;
use ptm::PtmConfig;
use trace::TraceSink;
use workloads::hist::{bucket_index, bucket_lower_bound};
use workloads::{
    run_sharded_kv, LatencyHistogram, ShardedRunConfig, ShardedRunResult, StreamConfig,
};

use super::{Rep, Scale, Traced, Virtual};
use crate::host::{HostMark, HostSpan};
use crate::traced::{self, OpSpanOut};

pub const SHARDS: usize = 2;
const KEYS: u64 = 1 << 16;
const PACED_GAP_NS: u64 = 2_400;
const SATURATED_GAP_NS: u64 = 300;
/// Mean requests per arrival instant (bursts of 1..=8).
const MEAN_BURST: f64 = 4.5;
/// Trace events per request, with headroom (measured ≈ 19).
const EVENTS_PER_REQUEST: u64 = 48;

/// Requests per pass: (paced, saturated).
pub fn requests(scale: Scale) -> (u64, u64) {
    (
        scale.pick(2_000_000, 200_000, 8_000),
        scale.pick(1_000_000, 100_000, 4_000),
    )
}

/// The stream of one pass; also what `--layers` times generating.
pub fn stream(scale: Scale, seed: u64, total_ops: u64, mean_gap_ns: u64) -> StreamConfig {
    StreamConfig {
        total_ops,
        keys: scale.pick(KEYS, KEYS, 1 << 10),
        zipf_theta: 0.9,
        mean_gap_ns,
        burst: 8,
        seed,
    }
}

/// The paced pass's stream.
pub fn paced_stream(scale: Scale, seed: u64) -> StreamConfig {
    stream(scale, seed, requests(scale).0, PACED_GAP_NS)
}

fn config(stream: StreamConfig) -> ShardedRunConfig {
    ShardedRunConfig {
        shards: SHARDS,
        // One worker per shard = one thread per clock domain, which keeps
        // request claiming, and so every virtual statistic, deterministic.
        threads_per_shard: 1,
        domain: DurabilityDomain::Adr,
        ptm: PtmConfig::redo(),
        stream,
        ..ShardedRunConfig::default()
    }
}

fn timed(rc: &ShardedRunConfig) -> (ShardedRunResult, HostSpan) {
    let start = HostMark::now();
    let r = run_sharded_kv(rc);
    (r, start.until(&HostMark::now()))
}

/// The `num/den` quantile of a log-bucketed histogram, interpolated
/// linearly inside the bucket that holds the nearest-rank sample (the
/// estimator Prometheus' `histogram_quantile` uses). The histogram has
/// two sub-buckets per octave, so its own `percentile` reports a bucket
/// lower bound that either does not move at all between runs or jumps by
/// 33%; the interpolated value moves smoothly with the bucket counts.
/// It is still an estimate with bucket-limited resolution until the
/// histogram is refined (ROADMAP item 1).
pub fn interpolated_quantile(h: &LatencyHistogram, num: u64, den: u64) -> f64 {
    assert!(h.count() > 0, "quantile of an empty histogram");
    let target = (h.count() as u128 * num as u128)
        .div_ceil(den as u128)
        .max(1) as u64;
    let mut below = 0u64;
    for (lo, count) in h.nonzero_buckets() {
        if below + count >= target {
            // The top of the distribution is known exactly.
            let hi = bucket_lower_bound(bucket_index(lo) + 1).min(h.max() + 1);
            let frac = (target - below) as f64 / count as f64;
            return lo as f64 + frac * (hi - lo) as f64;
        }
        below += count;
    }
    h.max() as f64
}

pub fn run_rep(scale: Scale, seed: u64, traced: bool) -> (Rep, Option<Traced>) {
    let (_, saturated_ops) = requests(scale);
    let (_, setup) = timed(&config(stream(scale, seed, 1, PACED_GAP_NS)));

    let mut paced_rc = config(paced_stream(scale, seed));
    let sinks: Vec<Arc<TraceSink>> = if traced {
        let cap = (paced_rc.stream.total_ops * EVENTS_PER_REQUEST) as usize;
        (0..SHARDS)
            .map(|s| TraceSink::new_for_shard(cap, s as u32))
            .collect()
    } else {
        Vec::new()
    };
    paced_rc.trace = sinks.clone();
    let (paced, paced_host) = timed(&paced_rc);
    let (saturated, saturated_host) = timed(&config(stream(
        scale,
        seed,
        saturated_ops,
        SATURATED_GAP_NS,
    )));

    let ops = paced.ops + saturated.ops;
    let mut mem = paced.mem;
    mem.merge(&saturated.mem);
    let mut ptm = paced.ptm;
    ptm.merge(&saturated.ptm);
    let mut rep = Rep {
        ops,
        setup_s: setup.wall_s,
        measured: paced_host.minus(&setup).plus(&saturated_host.minus(&setup)),
        virt: Virtual {
            mops: saturated.throughput_mops(),
            mean_ns: paced.sojourn.mean(),
            p99_ns: interpolated_quantile(&paced.sojourn, 99, 100),
            p99_samples: paced.sojourn.count(),
            ops,
            mem,
            ptm,
            phases: None,
        },
        slowdown: 1.0,
        restart: None,
        failures: Vec::new(),
    };
    for (pass, r) in [("paced", &paced), ("saturated", &saturated)] {
        if r.ptm.commits < r.ops {
            rep.fail(
                r.ops - r.ptm.commits,
                format!("{pass} pass: requests without a commit"),
            );
        }
        if r.sojourn.count() != r.ops {
            rep.fail(
                r.ops,
                format!(
                    "{pass} pass: {} sojourns for {} requests",
                    r.sojourn.count(),
                    r.ops
                ),
            );
        }
        if r.mem.clwbs == 0 || r.mem.sfences == 0 {
            rep.fail(
                r.ops,
                format!("{pass} pass: ADR run never flushed or fenced"),
            );
        }
    }
    // The passes must sit on opposite sides of capacity, or the latency
    // and capacity metrics do not mean what their names say.
    let offered_paced = MEAN_BURST * 1_000.0 / PACED_GAP_NS as f64;
    if scale != Scale::Smoke && saturated.throughput_mops() < offered_paced {
        rep.fail(
            ops,
            "paced pass offers more than the saturated pass delivers",
        );
    }

    let traced = traced.then(|| {
        let threads: Vec<_> = sinks.iter().flat_map(|s| s.threads()).collect();
        let (spans, dropped_events) = obs::spans::reconstruct(&threads);
        let tail = obs::spans::decompose(&spans, dropped_events, &[99.0]).tails[0].cohort;
        let mut per_shard = [0u64; SHARDS];
        let ops = spans
            .iter()
            .map(|s| {
                let shard = trace::shard_of_tid(s.tid) as usize;
                per_shard[shard] += 1;
                OpSpanOut {
                    tid: s.tid,
                    op: per_shard[shard] - 1,
                    host: None,
                    sim: (s.arrival_ts, s.end_ts),
                    comp_ns: s.comp_ns,
                }
            })
            .collect();
        let mean_shard = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
        Traced {
            ops,
            events: traced::events_recorded(&threads),
            dropped_events,
            closure_err: traced::closure_err(&spans, paced.sojourn.sum()),
            setup_end_host_ns: (setup.wall_s * 1e9) as u64,
            measure_end_host_ns: (paced_host.wall_s * 1e9) as u64,
            sim_elapsed_ns: paced.elapsed_virtual_ns,
            queue_share_p99: Some(
                tail.mean_comp_ns[obs::spans::Comp::Queue as usize] / tail.mean_total_ns.max(1.0),
            ),
            imbalance: Some(*per_shard.iter().max().expect("shards") as f64 / mean_shard.max(1.0)),
        }
    });
    (rep, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_is_linear_within_the_bucket() {
        // 100 samples in bucket [64, 96) and one far above: rank 50 of
        // 101 sits half way through the bucket.
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(70);
        }
        h.record(5_000); // keeps `max` out of the bucket
        let q = interpolated_quantile(&h, 50, 101);
        assert!((q - (64.0 + 0.5 * 32.0)).abs() < 1e-9, "{q}");
        // The quantised percentile reports the bucket's lower bound.
        assert_eq!(h.percentile(0.5), 64);
    }

    #[test]
    fn top_bucket_is_clamped_to_the_exact_maximum() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 10, 10, 100] {
            h.record(v);
        }
        // Rank 4 of 4 falls in 100's bucket [96, 128), clamped to
        // [96, 101).
        let q = interpolated_quantile(&h, 100, 100);
        assert!((q - 101.0).abs() < 1e-9, "{q}");
        assert!(interpolated_quantile(&h, 1, 100) <= 12.0);
    }

    #[test]
    fn moves_smoothly_where_the_bucket_bound_jumps() {
        // Shift mass across a bucket boundary: the interpolated p99 moves
        // by a few percent where `percentile` jumps 24576 -> 32768.
        let build = |slow: u64| {
            let mut h = LatencyHistogram::new();
            for _ in 0..(10_000 - slow) {
                h.record(30_000);
            }
            for _ in 0..slow {
                h.record(33_000);
            }
            h
        };
        let (a, b) = (build(99), build(101));
        assert_eq!((a.percentile(0.99), b.percentile(0.99)), (24_576, 32_768));
        let (qa, qb) = (
            interpolated_quantile(&a, 99, 100),
            interpolated_quantile(&b, 99, 100),
        );
        assert!((qb - qa).abs() / qa < 0.05, "{qa} -> {qb}");
    }
}
