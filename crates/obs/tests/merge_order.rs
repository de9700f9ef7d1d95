//! Properties of the offline series fold: it is a pure function of what
//! each thread recorded — the order in which threads retire (and hence
//! the order their `ThreadTrace`s are handed in) must not change a
//! single exported row — and, whatever the period, its rows add up to
//! the one whole-run fold of the same events.

use obs::{export, series, GaugeSet};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use trace::{EventKind, ThreadTrace, TraceEvent, SHARD_SHIFT};

/// A compact thread event script: (virtual-time delta, kind selector,
/// payload). Deltas keep per-thread timestamps monotone, as the real
/// session clock does.
type Script = Vec<(u64, u8, u64)>;

const KINDS: [EventKind; 6] = [
    EventKind::TxCommit,
    EventKind::TxAbort,
    EventKind::Sfence,
    EventKind::WpqStall,
    EventKind::Clwb,
    EventKind::Backoff,
];

fn scripts() -> impl Strategy<Value = Vec<Vec<Script>>> {
    // 1..=3 shards, each with 1..=3 threads, each with up to 40 events.
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec((1u64..20_000, 0u8..KINDS.len() as u8, 0u64..500), 1..40),
            1..4,
        ),
        1..4,
    )
}

/// One shard-tagged `ThreadTrace` per script, in (shard, thread) order.
fn traces(shards: &[Vec<Script>]) -> Vec<ThreadTrace> {
    let mut out = Vec::new();
    for (s, threads) in shards.iter().enumerate() {
        for (t, script) in threads.iter().enumerate() {
            let mut ts = 0u64;
            let events = script.iter().map(|&(dt, k, a)| {
                ts += dt;
                TraceEvent {
                    ts,
                    kind: KINDS[k as usize],
                    a,
                    b: a / 3,
                }
            });
            out.push(ThreadTrace {
                tid: ((s as u32) << SHARD_SHIFT) | t as u32,
                events: events.collect(),
                dropped: 0,
            });
        }
    }
    out
}

/// The series as canonical JSONL.
fn render(threads: &[ThreadTrace]) -> String {
    let mut out = String::new();
    for row in series::from_threads(threads, obs::DEFAULT_PERIOD_NS) {
        out.push_str(&export::series_row_json(&row));
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn series_is_trace_order_invariant(
        shards in scripts(),
        seed in any::<u64>(),
    ) {
        let mut threads = traces(&shards);
        let baseline = render(&threads);

        // Fisher–Yates shuffle: an arbitrary retirement order.
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..threads.len()).rev() {
            let j = rng.gen_range(0..=i);
            threads.swap(i, j);
        }
        prop_assert_eq!(baseline, render(&threads));
    }

    #[test]
    fn rows_add_up_to_the_whole_run_fold(
        shards in scripts(),
        period in 1u64..50_000,
    ) {
        let threads = traces(&shards);
        let mut total = GaugeSet::default();
        for row in series::from_threads(&threads, period) {
            total.merge(&row.g);
        }
        prop_assert_eq!(total, GaugeSet::of_run(&threads));
    }
}
