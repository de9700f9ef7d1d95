//! PR9 acceptance: critical-path attribution closes against the
//! driver's own latency accounting in every durability domain.
//!
//! The sharded open-loop driver measures sojourn (arrival → completion)
//! with an exact-sum histogram; the obs layer independently rebuilds
//! each request from flight-recorder events (queue wait + execution +
//! commit + flush + fence wait + WPQ stall + backoff + rollback). The
//! two accountings must agree within 1% — in practice exactly, since
//! every nanosecond between arrival and completion is charged to
//! exactly one component.

use optane_ptm::obs::spans;
use optane_ptm::pmem_sim::DurabilityDomain;
use optane_ptm::trace::TraceSink;
use optane_ptm::workloads::{run_sharded_kv, ShardedRunConfig, StreamConfig};

fn run_domain(domain: DurabilityDomain) -> (spans::Decomposition, Vec<spans::OpSpan>, u64, u64) {
    let mut rc = ShardedRunConfig {
        shards: 2,
        threads_per_shard: 1,
        domain,
        ..ShardedRunConfig::default()
    };
    rc.stream = StreamConfig {
        total_ops: 600,
        mean_gap_ns: 150,
        seed: 7,
        ..StreamConfig::default()
    };
    rc.trace = (0..rc.shards)
        .map(|i| TraceSink::new_for_shard(1 << 17, i as u32))
        .collect();
    let r = run_sharded_kv(&rc);

    let mut threads = Vec::new();
    for sink in &rc.trace {
        for t in sink.threads() {
            assert_eq!(t.dropped, 0, "trace ring lost events; size the ring up");
            threads.push(t);
        }
    }
    let (op_spans, dropped) = spans::reconstruct(&threads);
    let d = spans::decompose(&op_spans, dropped, &[50.0, 99.0]);
    (d, op_spans, r.sojourn.count(), r.sojourn.sum())
}

#[test]
fn attribution_closes_within_one_percent_in_all_domains() {
    for domain in [
        DurabilityDomain::Adr,
        DurabilityDomain::Eadr,
        DurabilityDomain::Pdram,
        DurabilityDomain::PdramLite,
    ] {
        let (d, op_spans, req_count, sojourn_sum) = run_domain(domain);
        assert_eq!(
            op_spans.len() as u64,
            req_count,
            "{domain:?}: one span per completed request"
        );
        let span_sum: u64 = op_spans.iter().map(|s| s.total_ns()).sum();
        let err = (span_sum as f64 - sojourn_sum as f64).abs() / sojourn_sum.max(1) as f64;
        assert!(
            err <= 0.01,
            "{domain:?}: span components {span_sum} ns vs measured {sojourn_sum} ns \
             ({:.3}% > 1%)",
            err * 100.0
        );

        // The p99 row is internally exact too: its cohort's component
        // means must sum to its mean total.
        let p99 = d.tails.iter().find(|t| t.pct == 99.0).unwrap();
        assert!(p99.cohort.count >= 1);
        let comp_sum: f64 = p99.cohort.mean_comp_ns.iter().sum();
        assert!(
            (comp_sum - p99.cohort.mean_total_ns).abs() <= 1e-6 * p99.cohort.mean_total_ns,
            "{domain:?}: p99 cohort components do not close"
        );

        // Domain physics show up in the attribution: ADR pays flush +
        // fence time on the critical path, eADR-class domains pay none.
        let flush_fence = d.mean.mean_comp_ns[spans::Comp::Flush as usize]
            + d.mean.mean_comp_ns[spans::Comp::FenceWait as usize]
            + d.mean.mean_comp_ns[spans::Comp::WpqStall as usize];
        match domain {
            DurabilityDomain::Adr => {
                assert!(flush_fence > 0.0, "ADR must show flush/fence on the path")
            }
            DurabilityDomain::Eadr | DurabilityDomain::Pdram => assert_eq!(
                flush_fence, 0.0,
                "{domain:?} must show no flush/fence/WPQ time"
            ),
            // PdramLite still flushes log lines into the persistent
            // DRAM window; either shape is legal, so no assertion.
            _ => {}
        }
    }
}
