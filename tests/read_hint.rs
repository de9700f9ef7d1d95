//! The read hint (`Tx::expect_read`, DESIGN.md §5 decision 17) is
//! host-only. Seeded single-thread streams through every call site that
//! issues it — `PHashMap` under each algorithm, TPCC NEW-ORDER + PAYMENT —
//! must leave the final virtual clock, every counter of the three layers,
//! the phase totals and the flight recorder's event sequence at the
//! values recorded at the commit before the hint existed. Since the orec
//! index stripes by line, the event sequences (read and acquire events
//! carry orec ids) come from a build of that index with every
//! `expect_read` and `expect_access` call removed. The trace half of a
//! line hashes the events alone, thread by thread; the counters are
//! compared field by field in the same line, so a change to the trace
//! dump's counter block (`trace::export::TOTALS`) leaves the hashes as
//! they are.

use std::sync::Arc;

use optane_ptm::palloc::PHeap;
use optane_ptm::pmem_sim::{DurabilityDomain, Machine, MachineConfig, MediaKind};
use optane_ptm::pstructs::PHashMap;
use optane_ptm::ptm::{Algo, PhaseSnapshot, Ptm, PtmConfig, PtmStatsSnapshot, TxThread};
use optane_ptm::trace::counters::Field;
use optane_ptm::trace::TraceSink;
use optane_ptm::workloads::driver::{run_scenario, RunConfig, Scenario};
use optane_ptm::workloads::{IndexKind, Tpcc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One line per run: the final virtual time, every nonzero counter, the
/// phase totals, and the trace as (events, FNV-1a over each thread's tid
/// and then every event's timestamp, kind code and payload, in order).
fn signature(
    now: u64,
    ptm: &PtmStatsSnapshot,
    phases: &PhaseSnapshot,
    mem: &optane_ptm::pmem_sim::StatsSnapshot,
    sink: &TraceSink,
) -> String {
    fn nonzero<const N: usize>(fields: [Field; N]) -> String {
        let cells: Vec<String> = fields
            .iter()
            .filter(|f| f.value != 0)
            .map(|f| format!("{}={}", f.name, f.value))
            .collect();
        cells.join(" ")
    }
    let threads = sink.threads();
    assert_eq!(sink.dropped_events(), 0, "ring too small for the stream");
    let events: usize = threads.iter().map(|t| t.events.len()).sum();
    let mut bytes = Vec::new();
    for t in &threads {
        bytes.extend_from_slice(&t.tid.to_le_bytes());
        for ev in &t.events {
            bytes.extend_from_slice(&ev.ts.to_le_bytes());
            bytes.push(ev.kind as u8);
            bytes.extend_from_slice(&ev.a.to_le_bytes());
            bytes.extend_from_slice(&ev.b.to_le_bytes());
        }
    }
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    format!(
        "now={now} | {} | phases={:?} | {} | trace={events}:{fnv:016x}",
        nonzero(ptm.fields()),
        phases.ns,
        nonzero(mem.fields()),
    )
}

#[test]
fn hashmap_stream_per_algorithm_matches_the_unhinted_build() {
    let pinned = [
        (
            Algo::RedoLazy,
            "now=397070 | \
             commits=601 max_write_entries=4 | \
             phases=[129021, 6041, 179822, 43746, 13896, 24544, 0, 0] | \
             loads=3818 stores=3442 l3_hits=7180 l3_misses=80 clwbs=1913 clwb_writebacks=1913 sfences=1288 optane_lines_written=1913 fence_wait_ns=5106 | \
             trace=11710:48c82025f8de72b0",
        ),
        (
            Algo::UndoEager,
            "now=429904 | \
             commits=601 max_write_entries=4 | \
             phases=[140053, 43685, 186588, 55138, 4440, 0, 0, 0] | \
             loads=4606 stores=3908 l3_hits=8434 l3_misses=80 clwbs=2224 clwb_writebacks=1950 sfences=1754 optane_lines_written=1950 fence_wait_ns=2518 | \
             trace=12524:c0cee26230a8ea60",
        ),
        (
            Algo::HtmLogged,
            "now=344935 | \
             commits=601 htm_commits=601 backend_log_bytes=25216 max_write_entries=4 | \
             phases=[102537, 51215, 132352, 20832, 13455, 24544, 0, 0] | \
             loads=3957 stores=4847 l3_hits=8660 l3_misses=144 clwbs=1686 clwb_writebacks=1559 sfences=771 optane_lines_written=1559 fence_wait_ns=1152 | \
             trace=5819:88dd23316dfdbd39",
        ),
    ];
    for (algo, want) in pinned {
        let m = Machine::new(MachineConfig::default());
        let sink = TraceSink::new(1 << 17);
        m.attach_tracer(Arc::clone(&sink));
        let heap = PHeap::format(&m, "heap", 1 << 16, 8);
        let ptm = Ptm::new(PtmConfig {
            tracing: true,
            ..PtmConfig::with_algo(algo)
        });
        let mut th = TxThread::new(ptm.clone(), heap, m.session(0));
        // 32 chains under 192 keys: walks of several nodes, hits in the
        // middle of a chain, misses that run off its end.
        let map = th.run(|tx| PHashMap::create(tx, 32));
        let mut rng = SmallRng::seed_from_u64(0x22);
        let mut model = std::collections::HashMap::new();
        for _ in 0..600 {
            let key = rng.gen_range(0..192u64);
            match rng.gen_range(0..5) {
                0 | 1 => {
                    let v = rng.gen::<u32>() as u64;
                    assert_eq!(th.run(|tx| map.insert(tx, key, v)), model.insert(key, v));
                }
                2 => assert_eq!(th.run(|tx| map.get(tx, key)), model.get(&key).copied()),
                3 => {
                    let hit = th.run(|tx| map.update(tx, key, |v| v + 3));
                    assert_eq!(hit, model.get_mut(&key).map(|v| *v += 3).is_some());
                }
                _ => assert_eq!(th.run(|tx| map.remove(tx, key)), model.remove(&key)),
            }
        }
        let now = th.session_mut().now();
        drop(th);
        let got = signature(
            now,
            &ptm.stats_snapshot(),
            &ptm.phases_snapshot(),
            &m.stats.snapshot(),
            &sink,
        );
        assert_eq!(got, want, "{algo:?}");
    }
}

#[test]
fn tpcc_new_order_and_payment_match_the_unhinted_build() {
    let want = "now=416161 | \
                commits=40 max_write_entries=100 | \
                phases=[60389, 23223, 244964, 8432, 26992, 52161, 0, 0] | \
                loads=1349 stores=5154 l3_hits=6280 l3_misses=223 clwbs=2606 clwb_writebacks=2606 sfences=160 optane_lines_written=2606 fence_wait_ns=3632 | \
                trace=10158:08cb7e80d8bd2ae4";
    let sink = TraceSink::new(1 << 17);
    let sc = Scenario::new(
        "hint",
        MediaKind::Optane,
        DurabilityDomain::Adr,
        Algo::RedoLazy,
    );
    let rc = RunConfig {
        // Even ops are NEW-ORDER, odd ones PAYMENT.
        ops_per_thread: 40,
        seed: 0x22,
        trace: Some(Arc::clone(&sink)),
        ..RunConfig::default()
    };
    let r = run_scenario(&mut Tpcc::new(IndexKind::Hash, 2, 40), &sc, &rc);
    let got = signature(r.elapsed_virtual_ns, &r.ptm, &r.phases, &r.mem, &sink);
    assert_eq!(got, want);
}
