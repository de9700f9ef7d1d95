//! Flight-recorder validation: the trace is deterministic, merges in
//! timestamp order, and — for random workload/scenario/thread mixes —
//! re-derives exactly the totals the live counters report.

use optane_ptm::pmem_sim::{DurabilityDomain, MediaKind};
use optane_ptm::ptm::Algo;
use optane_ptm::trace::analyze::crosscheck;
use optane_ptm::trace::export::{read_binary, write_binary, ExpectedTotals};
use optane_ptm::trace::{EventKind, GaugeSet, TraceSink};
use optane_ptm::workloads::driver::{run_scenario, RunConfig, RunResult, Scenario};
use optane_ptm::workloads::{
    run_cross_shard_transfer, IndexKind, ShardedRunConfig, StreamConfig, Tatp, Tpcc, Vacation,
    VacationCfg,
};
use proptest::prelude::*;
use std::sync::Arc;

fn traced_run(
    which: u8,
    threads: usize,
    ops: u64,
    algo: Algo,
    domain: DurabilityDomain,
) -> (Arc<TraceSink>, RunResult) {
    let sink = TraceSink::new(1 << 17);
    let sc = Scenario::new("tv", MediaKind::Optane, domain, algo);
    let rc = RunConfig {
        threads,
        ops_per_thread: ops,
        seed: 42,
        trace: Some(Arc::clone(&sink)),
        ..RunConfig::default()
    };
    let r = match which {
        0 => run_scenario(&mut Tatp::new(600), &sc, &rc),
        1 => run_scenario(&mut Tpcc::new(IndexKind::Hash, 4, 2_000), &sc, &rc),
        _ => run_scenario(&mut Vacation::new(VacationCfg::low(256)), &sc, &rc),
    };
    (sink, r)
}

#[test]
fn identical_single_thread_runs_dump_identical_bytes() {
    // Two runs of the same deterministic single-thread workload must
    // produce byte-identical binary dumps: same events, same timestamps,
    // same embedded counter totals.
    let (s1, r1) = traced_run(1, 1, 120, Algo::RedoLazy, DurabilityDomain::Adr);
    let (s2, r2) = traced_run(1, 1, 120, Algo::RedoLazy, DurabilityDomain::Adr);
    let d1 = write_binary(&s1.threads(), &r1.trace_totals());
    let d2 = write_binary(&s2.threads(), &r2.trace_totals());
    assert!(!d1.is_empty());
    assert_eq!(
        d1, d2,
        "trace dumps of identical runs must be byte-identical"
    );
    // And the dump round-trips through the reader.
    let dump = read_binary(&d1).unwrap();
    assert_eq!(dump.expected, r1.trace_totals());
    assert_eq!(dump.threads.len(), 1);
}

#[test]
fn merged_timeline_is_nondecreasing_across_threads() {
    let (sink, _r) = traced_run(1, 4, 150, Algo::RedoLazy, DurabilityDomain::Adr);
    assert_eq!(sink.dropped_events(), 0);
    let merged = sink.merged();
    assert!(
        merged.len() > 1000,
        "4-thread tpcc must record plenty of events"
    );
    let tids: std::collections::BTreeSet<u32> = merged.iter().map(|e| e.tid).collect();
    assert!(tids.len() >= 4, "events from every worker thread");
    for w in merged.windows(2) {
        assert!(
            w[0].ts <= w[1].ts,
            "merge must be ordered: {} then {}",
            w[0].ts,
            w[1].ts
        );
    }
}

#[test]
fn htm_sections_retire_with_zero_persistence_events() {
    // `Algo::HtmLogged`'s defining contract under ADR: everything between
    // an attempt's `TxBegin` and its `HtmRetire` ran inside the hardware
    // section, and a `clwb` or `sfence` there would have aborted it on
    // real silicon. The per-thread event streams are program-ordered, so
    // the window check is a linear scan.
    let (sink, r) = traced_run(0, 2, 300, Algo::HtmLogged, DurabilityDomain::Adr);
    assert!(
        r.ptm.htm_commits > 0,
        "tatp under ADR must commit on the logged hardware path"
    );
    assert_eq!(sink.dropped_events(), 0);
    let mut retires = 0u64;
    for th in sink.threads() {
        let mut persists_since_begin = 0u64;
        let mut saw_begin = false;
        for e in &th.events {
            match e.kind {
                EventKind::TxBegin => {
                    persists_since_begin = 0;
                    saw_begin = true;
                }
                EventKind::Clwb | EventKind::ClwbBatch | EventKind::Sfence => {
                    persists_since_begin += 1;
                }
                EventKind::HtmRetire => {
                    assert!(saw_begin, "HtmRetire without a TxBegin");
                    assert_eq!(
                        persists_since_begin, 0,
                        "clwb/sfence retired inside an HTM section (tid {})",
                        th.tid
                    );
                    retires += 1;
                }
                _ => {}
            }
        }
    }
    assert_eq!(
        retires, r.ptm.htm_commits,
        "every hardware commit must be marked by exactly one HtmRetire"
    );
}

#[test]
fn traced_cross_shard_run_rederives_its_counters() {
    // Half the transfers span both shards and contend on 64 accounts, so
    // 2PC aborts on every cause; each must be traced where it is counted.
    for seed in 1..=3 {
        let mut rc = ShardedRunConfig {
            shards: 2,
            threads_per_shard: 2,
            ..ShardedRunConfig::default()
        };
        rc.stream = StreamConfig {
            total_ops: 4_000,
            keys: 64,
            seed,
            ..StreamConfig::default()
        };
        rc.trace = (0..rc.shards)
            .map(|i| TraceSink::new_for_shard(1 << 17, i as u32))
            .collect();
        let r = run_cross_shard_transfer(&rc, 0.5);
        let threads: Vec<_> = rc.trace.iter().flat_map(|s| s.threads()).collect();
        assert_eq!(threads.iter().map(|t| t.dropped).sum::<u64>(), 0);
        let expected = ExpectedTotals::from_counters(&r.ptm.fields(), &r.mem.fields());
        let diverged = crosscheck(&GaugeSet::of_run(&threads), &expected);
        assert!(diverged.is_empty(), "seed {seed}: {diverged:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn trace_totals_equal_live_counters_on_random_workloads(
        which in 0u8..3,
        threads in 1usize..4,
        ops in 20u64..120,
        algo_idx in 0usize..Algo::ALL.len(),
        eadr in any::<bool>(),
    ) {
        let algo = Algo::ALL[algo_idx];
        let domain = if eadr { DurabilityDomain::Eadr } else { DurabilityDomain::Adr };
        let (sink, r) = traced_run(which, threads, ops, algo, domain);
        prop_assert_eq!(sink.dropped_events(), 0, "ring sized for test scale");
        let derived = GaugeSet::of_run(&sink.threads());
        let diverged = crosscheck(&derived, &r.trace_totals());
        prop_assert!(
            diverged.is_empty(),
            "trace must re-derive the counters exactly: {:?}",
            diverged
        );
    }
}
