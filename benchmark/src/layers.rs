//! The `--layers` micro-probe pass: host cost of single public calls in
//! each layer, timed in calibrated batches (median of [`BATCHES`]), plus
//! the model-calibration probes that read the latency model back through
//! the simulator on the virtual clock and assert it against DESIGN.md §6.
//!
//! Host time *inside* a workload op cannot be seen from outside the
//! repository's crates; these probes stand in for it. Each one is the
//! host cost of the call a workload's op is made of, so
//! `workloads.op_host_ns ≈ Σ calls × probe` explains `host_ops_per_s`
//! one layer down.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use palloc::PHeap;
use pmem_sim::{
    DurabilityDomain, LatencyModel, Machine, MachineConfig, MediaKind, PAddr, PoolId,
    WORDS_PER_LINE,
};
use ptm::orec::OrecTable;
use ptm::umap::U64Map;
use ptm::{Algo, Ptm, PtmConfig, TxThread};
use workloads::{gen_open_loop, run_scenario, IndexKind, RunConfig, Scenario, Tpcc};

use crate::metrics::MetricSet;
use crate::stats::median;
use crate::suite::{kv_open, Scale};

const BATCHES: usize = 15;
const WARMUP: Duration = Duration::from_millis(20);
const BATCH_TARGET_NS: u64 = 2_000_000;

/// Median ns per call of `f` over [`BATCHES`] timed batches, after a
/// warm-up that also calibrates the batch to about 2 ms.
fn bench(mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    let mut iters = 0u64;
    while warm.elapsed() < WARMUP {
        f();
        iters += 1;
    }
    let per_iter = warm.elapsed().as_nanos() as u64 / iters.max(1);
    let batch = (BATCH_TARGET_NS / per_iter.max(1)).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

fn machine(domain: DurabilityDomain, track_persistence: bool) -> Arc<Machine> {
    Machine::new(MachineConfig {
        domain,
        track_persistence,
        window_ns: u64::MAX,
        ..MachineConfig::default()
    })
}

/// The DESIGN.md §6 table, as the numbers the probes must read back.
/// Written out here rather than taken from `LatencyModel::default()`: a
/// change to the model's defaults must fail this check until the design
/// document (and every `sim_*` baseline) is updated with it.
const DESIGN_L3_HIT_NS: u64 = 20;
/// An L3 miss on an idle machine costs the media latency plus one line
/// of service on the read path: 81 + 2 ns for DRAM (the 2 ns
/// `dram_read_line_ns` is in `LatencyModel` but missing from the §6
/// table), 305 + 6 ns for Optane (both rows of §6).
const DESIGN_DRAM_LOAD_NS: u64 = 81 + 2;
const DESIGN_OPTANE_LOAD_NS: u64 = 305 + 6;
/// An idle machine's `clwb`+`sfence` round trip under ADR: the issue cost
/// of both (94 + 30 ns). The WPQ accepts a lone line within the `clwb`
/// itself, so the fence has nothing left to wait for.
const DESIGN_CLWB_SFENCE_ADR_NS: u64 = 94 + 30;

/// Read the model back through the simulator. Returns the metrics and
/// the mismatches against DESIGN.md §6 (empty = calibrated).
pub fn model_probes(model: &LatencyModel) -> (MetricSet, Vec<String>) {
    let m = Machine::new(MachineConfig {
        domain: DurabilityDomain::Adr,
        model: model.clone(),
        track_persistence: false,
        window_ns: u64::MAX,
        ..MachineConfig::default()
    });
    let optane = m.alloc_pool("probe-optane", 1 << 12, MediaKind::Optane);
    let dram = m.alloc_pool("probe-dram", 1 << 12, MediaKind::Dram);
    let mut s = m.session(0);
    let mut timed = |f: &mut dyn FnMut(&mut pmem_sim::MemSession)| {
        let t0 = s.now();
        f(&mut s);
        s.now() - t0
    };
    // Cold lines miss to the media; the same line then hits in L3.
    let optane_load = timed(&mut |s| _ = black_box(s.load(optane.addr(0))));
    let l3_hit = timed(&mut |s| _ = black_box(s.load(optane.addr(1))));
    let dram_load = timed(&mut |s| _ = black_box(s.load(dram.addr(0))));
    // A dirty line on an otherwise idle write path.
    let line = optane.addr(8 * WORDS_PER_LINE as u64);
    timed(&mut |s| s.store(line, 1));
    let clwb_sfence = timed(&mut |s| {
        s.clwb(line);
        s.sfence();
    });

    let mut set = MetricSet::new();
    let mut mismatches = Vec::new();
    for (name, got, want) in [
        ("pmem-sim.model.l3_hit_ns", l3_hit, DESIGN_L3_HIT_NS),
        (
            "pmem-sim.model.dram_load_ns",
            dram_load,
            DESIGN_DRAM_LOAD_NS,
        ),
        (
            "pmem-sim.model.optane_load_ns",
            optane_load,
            DESIGN_OPTANE_LOAD_NS,
        ),
        (
            "pmem-sim.model.clwb_sfence_adr_ns",
            clwb_sfence,
            DESIGN_CLWB_SFENCE_ADR_NS,
        ),
    ] {
        set.set(name, got as f64);
        if got != want {
            mismatches.push(format!(
                "{name}: simulator reads {got} ns, DESIGN.md §6 says {want} ns"
            ));
        }
    }
    (set, mismatches)
}

fn session_probes(set: &mut MetricSet) {
    let m = machine(DurabilityDomain::Adr, false);
    let p = m.alloc_pool("b", 1 << 16, MediaKind::Optane);
    let mut s = m.session(0);
    let mut j = 0u64;
    set.set(
        "pmem-sim.session.load_host_ns",
        bench(|| {
            black_box(s.load(p.addr(j % 64)));
            j += 1;
        }),
    );
    let mut i = 0u64;
    set.set(
        "pmem-sim.session.store_host_ns",
        bench(|| {
            s.store(p.addr((i * 8) % (1 << 15)), i);
            i += 1;
        }),
    );
    set.set(
        "pmem-sim.session.clwb_sfence_host_ns",
        bench(|| {
            let a = p.addr((i * 8) % (1 << 15));
            s.store(a, i);
            s.clwb(a);
            s.sfence();
            i += 1;
        }),
    );
    // The shadow/line-state path only `bank_crash_restart` turns on.
    let m = machine(DurabilityDomain::Adr, true);
    let p = m.alloc_pool("b", 1 << 16, MediaKind::Optane);
    let mut s = m.session(0);
    set.set(
        "pmem-sim.session.tracked_store_host_ns",
        bench(|| {
            s.store(p.addr((i * 8) % (1 << 15)), i);
            i += 1;
        }),
    );
}

/// Host cost of one clock advance: alone, and with a second OS thread
/// advancing in lockstep inside the same bounded-lag window (the
/// publish/throttle yield-spin ROADMAP item 2 wants to remove).
fn clock_probes(set: &mut MetricSet) {
    const STEP_NS: u64 = 100;
    const WINDOW_NS: u64 = 1_000;
    let m = machine(DurabilityDomain::Adr, false);
    m.begin_run(1, WINDOW_NS);
    let mut s = m.session(0);
    set.set(
        "pmem-sim.clock.advance_1t_host_ns",
        bench(|| s.advance(STEP_NS)),
    );
    drop(s);

    const ADVANCES: u64 = 100_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            m.begin_run(2, WINDOW_NS);
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for tid in 0..2 {
                    let m = &m;
                    scope.spawn(move || {
                        let mut s = m.session(tid);
                        for _ in 0..ADVANCES {
                            s.advance(STEP_NS);
                        }
                        s.finish();
                    });
                }
            });
            t0.elapsed().as_nanos() as f64 / ADVANCES as f64
        })
        .collect();
    set.set("pmem-sim.clock.advance_2t_host_ns", median(&rounds));
}

fn palloc_probes(set: &mut MetricSet) {
    const BLOCKS: usize = 4_096;
    const WORDS: usize = 8;
    let m = machine(DurabilityDomain::Adr, false);
    let heap = PHeap::format(&m, "heap", 1 << 20, 8);
    let mut s = m.session(0);
    let (mut alloc_ns, mut free_ns, mut alloc_sim) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocks = Vec::with_capacity(BLOCKS);
    // Round 0 carves fresh blocks from the bump region; later rounds pop
    // the free lists, which is the steady state the medians report.
    for _ in 0..BATCHES {
        let (v0, t0) = (s.now(), Instant::now());
        for _ in 0..BLOCKS {
            blocks.push(heap.alloc(&mut s, WORDS));
        }
        alloc_ns.push(t0.elapsed().as_nanos() as f64 / BLOCKS as f64);
        alloc_sim.push((s.now() - v0) as f64 / BLOCKS as f64);
        let t0 = Instant::now();
        for b in blocks.drain(..) {
            heap.free(&mut s, b);
        }
        free_ns.push(t0.elapsed().as_nanos() as f64 / BLOCKS as f64);
    }
    set.set("palloc.alloc_host_ns", median(&alloc_ns));
    set.set("palloc.free_host_ns", median(&free_ns));
    set.set("palloc.alloc_sim_ns", median(&alloc_sim));
}

fn ptm_probes(set: &mut MetricSet) {
    let table = OrecTable::new(1 << 18);
    let idx = table.index_of(PAddr::new(PoolId(1), 12_345));
    set.set(
        "ptm.orec.lock_release_host_ns",
        bench(|| {
            table.try_lock(idx, 0, 1).expect("orec is free");
            table.release(idx, 0);
        }),
    );
    let mut map = U64Map::new(128);
    set.set(
        "ptm.umap.insert_get_x64_host_ns",
        bench(|| {
            for k in 0..64u64 {
                map.insert(k * 31 + 1, k);
            }
            for k in 0..64u64 {
                black_box(map.get(k * 31 + 1));
            }
            map.clear();
        }),
    );
    for (name, algo, writes) in [
        ("ptm.txn.redo_8w_host_ns", Algo::RedoLazy, true),
        ("ptm.txn.undo_8w_host_ns", Algo::UndoEager, true),
        ("ptm.txn.readonly_8r_host_ns", Algo::RedoLazy, false),
    ] {
        let m = machine(DurabilityDomain::Adr, false);
        let heap = PHeap::format(&m, "heap", 1 << 18, 8);
        let mut th = TxThread::new(
            Ptm::new(PtmConfig::with_algo(algo)),
            heap.clone(),
            m.session(0),
        );
        let block = heap.alloc(th.session_mut(), 64);
        let mut k = 0u64;
        set.set(
            name,
            bench(|| {
                th.run(|tx| {
                    let mut sum = 0u64;
                    for w in 0..8u64 {
                        let v = tx.read_at(block, (k + w) % 64)?;
                        if writes {
                            tx.write_at(block, (k + w) % 64, v + 1)?;
                        }
                        sum = sum.wrapping_add(v);
                    }
                    Ok(sum)
                });
                k += 1;
            }),
        );
    }
}

fn pstructs_probes(set: &mut MetricSet) {
    const KEYS: u64 = 8_192;
    const SAMPLE: u64 = 4_096;
    let m = machine(DurabilityDomain::Eadr, false);
    let heap = PHeap::format(&m, "heap", 1 << 22, 8);
    let mut th = TxThread::new(Ptm::new(PtmConfig::redo()), heap, m.session(0));
    let tree = th.run(pstructs::BpTree::create);
    let map = th.run(|tx| pstructs::PHashMap::create(tx, KEYS as usize));
    for k in 0..KEYS {
        th.run(|tx| tree.insert(tx, k * 7 % 65_536, k).map(|_| ()));
        th.run(|tx| map.insert(tx, k, k).map(|_| ()));
    }
    // Virtual loads per lookup = nodes (and orec-guarded words) read.
    let loads = |th: &mut TxThread, f: &mut dyn FnMut(&mut TxThread, u64)| {
        let before = m.stats.snapshot().loads;
        for q in 0..SAMPLE {
            f(th, q);
        }
        (m.stats.snapshot().loads - before) as f64 / SAMPLE as f64
    };
    set.set(
        "pstructs.bptree.loads_per_get",
        loads(&mut th, &mut |th, q| {
            _ = black_box(th.run(|tx| tree.get(tx, q * 7 % 65_536)))
        }),
    );
    set.set(
        "pstructs.hashmap.loads_per_get",
        loads(&mut th, &mut |th, q| {
            _ = black_box(th.run(|tx| map.get(tx, q % KEYS)))
        }),
    );
    let mut q = 0u64;
    set.set(
        "pstructs.bptree.get_host_ns",
        bench(|| {
            q += 1;
            black_box(th.run(|tx| tree.get(tx, q * 7 % 65_536)));
        }),
    );
    // Inserts overwrite within the existing key sets so the structures
    // (and the heap) do not grow with the iteration count.
    set.set(
        "pstructs.bptree.insert_host_ns",
        bench(|| {
            q += 1;
            let key = (q % KEYS) * 7 % 65_536;
            th.run(|tx| tree.insert(tx, key, q).map(|_| ()));
        }),
    );
    set.set(
        "pstructs.hashmap.get_host_ns",
        bench(|| {
            q += 1;
            black_box(th.run(|tx| map.get(tx, q % KEYS)));
        }),
    );
    set.set(
        "pstructs.hashmap.insert_host_ns",
        bench(|| {
            q += 1;
            th.run(|tx| map.insert(tx, q % KEYS, q).map(|_| ()));
        }),
    );
}

fn report_probes(set: &mut MetricSet) {
    let sc = Scenario::new(
        "Optane_ADR_R",
        MediaKind::Optane,
        DurabilityDomain::Adr,
        Algo::RedoLazy,
    );
    let rc = RunConfig {
        ops_per_thread: 500,
        ..RunConfig::default()
    };
    let r = run_scenario(&mut Tpcc::new(IndexKind::Hash, 2, 500), &sc, &rc);
    let line = bench::report::point_json("tpcc-hash", &r);
    set.set("bench.report.point_json_bytes", line.len() as f64);
    set.set(
        "bench.report.point_json_host_us",
        bench(|| drop(black_box(bench::report::point_json("tpcc-hash", &r)))) / 1_000.0,
    );
}

fn stream_probe(set: &mut MetricSet, scale: Scale) {
    let cfg = kv_open::paced_stream(scale, 42);
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(gen_open_loop(&cfg));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    set.set("workloads.sharded.gen_stream_ms", median(&rounds));
}

/// Run every probe. The second value lists model-calibration mismatches;
/// a non-empty list fails the run.
pub fn run(scale: Scale) -> (MetricSet, Vec<String>) {
    let (mut set, mismatches) = model_probes(&LatencyModel::default());
    session_probes(&mut set);
    clock_probes(&mut set);
    palloc_probes(&mut set);
    ptm_probes(&mut set);
    pstructs_probes(&mut set);
    report_probes(&mut set);
    stream_probe(&mut set, scale);
    (set, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_matches_the_design_table() {
        let (set, mismatches) = model_probes(&LatencyModel::default());
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert_eq!(set.get("pmem-sim.model.l3_hit_ns").unwrap().median, 20.0);
    }

    #[test]
    fn a_drifted_model_is_reported() {
        let drifted = LatencyModel {
            optane_load_ns: 300,
            clwb_optane_ns: 100,
            ..LatencyModel::default()
        };
        let (_, mismatches) = model_probes(&drifted);
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
        assert!(mismatches[0].contains("optane_load_ns: simulator reads 306"));
        assert!(mismatches[1].contains("clwb_sfence_adr_ns"));
    }
}
