//! Cheap, qualitative versions of the paper's findings, asserted as
//! tests: who wins, in which direction, under which domain. These are the
//! claims the full benchmark binaries regenerate at scale (see
//! EXPERIMENTS.md); here they run in seconds at reduced op counts.

use optane_ptm::pmem_sim::{DurabilityDomain, MediaKind};
use optane_ptm::ptm::{Algo, PtmConfig};
use optane_ptm::workloads::driver::{run_scenario, RunConfig, Scenario};
use optane_ptm::workloads::{IndexKind, KvStore, Tatp, Tpcc, Workload};

fn rc(threads: usize, ops: u64) -> RunConfig {
    RunConfig {
        threads,
        ops_per_thread: ops,
        seed: 1234,
        ..RunConfig::default()
    }
}

fn tpcc() -> Tpcc {
    Tpcc::new(IndexKind::Hash, 4, 4_000)
}

fn mops(w: &mut dyn Workload, sc: &Scenario, c: &RunConfig) -> f64 {
    run_scenario(w, sc, c).throughput_mops()
}

fn sc(media: MediaKind, domain: DurabilityDomain, algo: Algo) -> Scenario {
    Scenario::new("s", media, domain, algo)
}

#[test]
fn eadr_beats_adr_on_optane() {
    // §III-C: "eADR provides substantial performance gains".
    let c = rc(2, 400);
    let adr = mops(
        &mut tpcc(),
        &sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy),
        &c,
    );
    let eadr = mops(
        &mut tpcc(),
        &sc(MediaKind::Optane, DurabilityDomain::Eadr, Algo::RedoLazy),
        &c,
    );
    assert!(
        eadr > 1.5 * adr,
        "eADR {eadr} should clearly beat ADR {adr}"
    );
}

#[test]
fn dram_beats_optane_same_domain() {
    // §III-B: Optane performance is below DRAM.
    let c = rc(2, 400);
    for domain in [DurabilityDomain::Adr, DurabilityDomain::Eadr] {
        let d = mops(
            &mut tpcc(),
            &sc(MediaKind::Dram, domain, Algo::RedoLazy),
            &c,
        );
        let o = mops(
            &mut tpcc(),
            &sc(MediaKind::Optane, domain, Algo::RedoLazy),
            &c,
        );
        assert!(d > o, "{domain:?}: DRAM {d} must beat Optane {o}");
    }
}

#[test]
fn redo_beats_undo_on_tpcc_under_adr() {
    // §III-B: "in almost every case, redo logging outperforms undo".
    let c = rc(2, 400);
    let r = mops(
        &mut tpcc(),
        &sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy),
        &c,
    );
    let u = mops(
        &mut tpcc(),
        &sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::UndoEager),
        &c,
    );
    assert!(
        r > u,
        "redo {r} must beat undo {u} on a write-heavy workload"
    );
}

#[test]
fn tatp_is_the_undo_outlier() {
    // §III-B: TATP's tiny write sets make undo competitive (the paper's
    // only outlier). Competitive = within 25% or better. The claim is
    // about write-set size, not contention, so it is checked at one
    // thread, where both sides are bit-exact (redo 1.184826, undo
    // 1.074010 Mops/s: ratio 0.906). At two threads the redo side is a
    // 500-op race that lands anywhere in 1.46-2.01 Mops/s and the ratio
    // crossed 0.75 in a few runs per hundred.
    let c = rc(1, 500);
    let mut w1 = Tatp::new(600);
    let r = mops(
        &mut w1,
        &sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy),
        &c,
    );
    let mut w2 = Tatp::new(600);
    let u = mops(
        &mut w2,
        &sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::UndoEager),
        &c,
    );
    assert!(
        u > 0.75 * r,
        "undo {u} must be competitive with redo {r} on TATP"
    );
}

#[test]
fn pdram_closes_most_of_the_gap_to_dram() {
    // §IV-D: "PDRAM matches DRAM performance up until Optane scalability
    // bottlenecks occur"; at low thread counts it should be close. Use a
    // miss-heavy workload (KV store beyond the L3) so the media latency
    // actually shows; the TPCC working set at test scale is L3-resident,
    // where the domains are indistinguishable by design.
    let mk = || KvStore::new(16 << 10); // 16 MB values, 4 MB L3, 64 MB DRAM cache
    let c = rc(2, 300);
    let dram = mops(
        &mut mk(),
        &sc(MediaKind::Dram, DurabilityDomain::Eadr, Algo::RedoLazy),
        &c,
    );
    let eadr = mops(
        &mut mk(),
        &sc(MediaKind::Optane, DurabilityDomain::Eadr, Algo::RedoLazy),
        &c,
    );
    let pdram = mops(
        &mut mk(),
        &sc(MediaKind::Optane, DurabilityDomain::Pdram, Algo::RedoLazy),
        &c,
    );
    assert!(
        pdram > 1.2 * eadr,
        "PDRAM {pdram} must clearly beat eADR {eadr} on a miss-heavy workload"
    );
    assert!(
        pdram > 0.6 * dram,
        "PDRAM {pdram} should close most of the gap to DRAM {dram}"
    );
}

#[test]
fn pdram_lite_at_least_matches_eadr_redo() {
    // §IV-D: "PDRAM-Lite outperforms eADR in every case, but the gains
    // are marginal for all but TATP and TPCC".
    let c = rc(2, 500);
    let mut w1 = Tatp::new(600);
    let eadr = mops(
        &mut w1,
        &sc(MediaKind::Optane, DurabilityDomain::Eadr, Algo::RedoLazy),
        &c,
    );
    let mut w2 = Tatp::new(600);
    let lite = mops(
        &mut w2,
        &sc(
            MediaKind::Optane,
            DurabilityDomain::PdramLite,
            Algo::RedoLazy,
        ),
        &c,
    );
    assert!(
        lite > 0.95 * eadr,
        "PDRAM-Lite {lite} must be at least eADR {eadr} (minus noise)"
    );
}

#[test]
fn fence_elision_speeds_up_adr() {
    // Table III: removing fences (incorrectly) buys measurable speedup.
    let c = rc(2, 400);
    let nofence = RunConfig {
        ptm: PtmConfig {
            elide_fences: true,
            ..PtmConfig::default()
        },
        ..c.clone()
    };
    let adr = sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::UndoEager);
    let base = mops(&mut tpcc(), &adr, &c);
    let fast = mops(&mut tpcc(), &adr, &nofence);
    assert!(
        fast > 1.03 * base,
        "fence elision ({fast}) must beat correct ADR ({base})"
    );
}

#[test]
fn fence_share_collapses_from_adr_to_eadr() {
    // §III-B, as surfaced by the phase profiler: under ADR the persistence
    // phases (flush + fence-wait) consume a large share of transaction
    // time; under eADR clwb/sfence are elided by the domain, so the same
    // workload's persistence share collapses to zero.
    use optane_ptm::ptm::Phase;
    let c = rc(1, 400);
    for algo in Algo::ALL {
        let adr = run_scenario(
            &mut tpcc(),
            &sc(MediaKind::Optane, DurabilityDomain::Adr, algo),
            &c,
        );
        let eadr = run_scenario(
            &mut tpcc(),
            &sc(MediaKind::Optane, DurabilityDomain::Eadr, algo),
            &c,
        );
        let adr_share = adr.phases.persistence_share();
        let eadr_share = eadr.phases.persistence_share();
        assert!(
            adr_share > 0.25,
            "{algo:?}: ADR persistence share must be substantial, got {adr_share}"
        );
        assert!(
            eadr_share < 0.01,
            "{algo:?}: eADR persistence share must collapse, got {eadr_share}"
        );
        assert!(
            adr.phases.get(Phase::Flush) > 0,
            "{algo:?}: ADR must charge flush time"
        );
        assert!(
            adr.phases.get(Phase::FenceWait) > 0,
            "{algo:?}: ADR must charge fence-wait time"
        );
    }
}

#[test]
fn commit_abort_ratio_declines_with_threads() {
    // Tables I/II trend: more threads => lower commits-per-abort.
    let mut w = tpcc();
    let s = sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy);
    let low = run_scenario(&mut w, &s, &rc(2, 600));
    let mut w2 = tpcc();
    let high = run_scenario(&mut w2, &s, &rc(8, 600));
    let (rl, rh) = (low.commit_abort_ratio(), high.commit_abort_ratio());
    assert!(
        rh < rl || rl.is_infinite(),
        "ratio must decline with threads: 2t={rl} 8t={rh}"
    );
    assert!(
        high.ptm.aborts > 0,
        "8 threads on 4 warehouses must conflict"
    );
}

#[test]
fn kvstore_working_set_regimes() {
    // Fig. 8: L3-resident beats media-resident; and for PDRAM, a working
    // set beyond the DRAM cache falls back toward Optane speed.
    let model = optane_ptm::pmem_sim::LatencyModel {
        l3_bytes: 1 << 20,         // 1 MB
        dram_cache_bytes: 8 << 20, // 8 MB
        ..optane_ptm::pmem_sim::LatencyModel::default()
    };
    let c = RunConfig {
        threads: 1,
        ops_per_thread: 250,
        model: model.clone(),
        ..RunConfig::default()
    };
    let run = |items: u64, domain| {
        let mut w = KvStore::new(items);
        mops(&mut w, &sc(MediaKind::Optane, domain, Algo::RedoLazy), &c)
    };
    let small_eadr = run(256, DurabilityDomain::Eadr); // 256 KB, fits L3
    let big_eadr = run(16 << 10, DurabilityDomain::Eadr); // 16 MB
    assert!(
        small_eadr > 1.5 * big_eadr,
        "L3 cliff: {small_eadr} vs {big_eadr}"
    );
    let mid_pdram = run(4 << 10, DurabilityDomain::Pdram); // 4 MB: fits DRAM cache
    let big_pdram = run(16 << 10, DurabilityDomain::Pdram); // 16 MB: exceeds it
    assert!(
        mid_pdram > 1.2 * big_pdram,
        "DRAM-cache cliff for PDRAM: {mid_pdram} vs {big_pdram}"
    );
}

#[test]
fn trace_shows_wpq_stalls_under_write_hot_adr() {
    // PR4 shape: a write-hot workload under ADR with a deliberately tiny
    // WPQ must produce at least one reconstructed stall interval in the
    // flight-recorder timeline, and stall time must agree with the
    // machine counter.
    use optane_ptm::trace::{analyze, TraceSink};
    let sink = TraceSink::new(1 << 18);
    let model = optane_ptm::pmem_sim::LatencyModel {
        wpq_lines: 4,
        ..optane_ptm::pmem_sim::LatencyModel::default()
    };
    let c = RunConfig {
        threads: 2,
        ops_per_thread: 400,
        seed: 1234,
        model,
        trace: Some(std::sync::Arc::clone(&sink)),
        ..RunConfig::default()
    };
    let r = run_scenario(
        &mut tpcc(),
        &sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy),
        &c,
    );
    assert_eq!(
        sink.dropped_events(),
        0,
        "ring must not overflow at test scale"
    );
    let t = analyze::wpq_timeline(&sink.merged());
    assert!(
        !t.stalls.is_empty(),
        "tiny WPQ under write-hot ADR must stall at least once"
    );
    assert_eq!(
        t.total_stall_ns, r.mem.wpq_stall_ns,
        "trace-derived stall time must equal the machine counter"
    );
}

#[test]
fn trace_shows_no_fence_waits_under_eadr() {
    // PR4 shape: under eADR the domain elides clwb/sfence entirely, so a
    // traced run must contain zero sfence (and zero clwb) events.
    use optane_ptm::trace::{EventKind, TraceSink};
    let sink = TraceSink::new(1 << 18);
    let c = RunConfig {
        threads: 2,
        ops_per_thread: 400,
        seed: 1234,
        trace: Some(std::sync::Arc::clone(&sink)),
        ..RunConfig::default()
    };
    run_scenario(
        &mut tpcc(),
        &sc(MediaKind::Optane, DurabilityDomain::Eadr, Algo::RedoLazy),
        &c,
    );
    let merged = sink.merged();
    assert!(!merged.is_empty(), "traced run must record events");
    for kind in [EventKind::Sfence, EventKind::Clwb, EventKind::WpqStall] {
        assert_eq!(
            merged.iter().filter(|e| e.kind == kind).count(),
            0,
            "eADR must produce no {kind:?} events"
        );
    }
}

#[test]
fn write_sets_are_small_enough_for_pdram_lite() {
    // §IV-B sizing argument: "the Vacation benchmark never requires more
    // than 37 contiguous cache lines for its redo log. TPCC (Hash Table)
    // requires at most 36." Our log entries are 4 words (2 per line);
    // verify the same order of magnitude, which is what justifies a
    // handful-of-pages PDRAM-Lite budget.
    use optane_ptm::workloads::{Vacation, VacationCfg};
    let c = rc(2, 400);
    let s = sc(MediaKind::Optane, DurabilityDomain::Eadr, Algo::RedoLazy);

    let mut vac = Vacation::new(VacationCfg::high(512));
    let r = run_scenario(&mut vac, &s, &c);
    let vac_lines = r.ptm.max_write_entries.div_ceil(2);
    assert!(
        vac_lines <= 40,
        "Vacation redo log must stay within tens of lines, got {vac_lines}"
    );

    let mut t = tpcc();
    let r = run_scenario(&mut t, &s, &c);
    let tpcc_lines = r.ptm.max_write_entries.div_ceil(2);
    assert!(
        tpcc_lines <= 60,
        "TPCC redo log must stay within tens of lines, got {tpcc_lines}"
    );
    assert!(tpcc_lines >= 10, "TPCC transactions do write substantially");
}

/// `ablate`'s `--quick` scale: 300 ops per thread from the default seed,
/// each workload sized as `bench::make_workload` sizes it there. The
/// bounds below hold at this scale; it is part of them (the KV crossover
/// fails at 20 and 50 ops).
fn quick(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        ops_per_thread: 300,
        ..RunConfig::default()
    }
}

fn quick_workload(name: &str, threads: usize) -> Box<dyn Workload> {
    use optane_ptm::workloads::BTreeMixed;
    match name {
        "tatp" => Box::new(Tatp::new(2048)),
        "tpcc-hash" => Box::new(Tpcc::new(IndexKind::Hash, 8, threads as u64 * 300)),
        "btree-mixed" => Box::new(BTreeMixed::new(1 << 13)),
        other => panic!("no quick {other}"),
    }
}

/// §V: hardware transactions compose with eADR and PDRAM, where
/// commit-time cache visibility is durability. At 1 thread
/// (deterministic), every `HtmLogged` commit takes the hardware path and
/// `HtmLogged` does not lose to software redo.
#[test]
fn htm_commits_in_hardware_without_flushes() {
    for name in ["tatp", "tpcc-hash", "btree-mixed"] {
        for domain in [DurabilityDomain::Eadr, DurabilityDomain::Pdram] {
            let run = |algo| {
                let s = sc(MediaKind::Optane, domain, algo);
                run_scenario(quick_workload(name, 1).as_mut(), &s, &quick(1))
            };
            let (redo, htm) = (run(Algo::RedoLazy), run(Algo::HtmLogged));
            assert_eq!(
                htm.ptm.htm_commits, htm.ptm.commits,
                "{name} {domain:?}: every 1-thread commit must take the hardware path"
            );
            assert!(
                htm.throughput_mops() >= redo.throughput_mops(),
                "{name} {domain:?}: HtmLogged ({:.4} Mops) must not lose to redo ({:.4} Mops)",
                htm.throughput_mops(),
                redo.throughput_mops(),
            );
        }
    }
}

/// The ADR crossover: on the KV store at low contention (512 distinct
/// 1 KB values) and 1-2 threads, `HtmLogged` commits on its logged
/// hardware path and does not lose to redo: fewer fences per commit
/// outweigh the HTM begin/commit overhead (by 8 % at both counts).
#[test]
fn htm_keeps_up_under_adr_at_low_contention() {
    for threads in [1, 2] {
        let run = |algo| {
            let s = sc(MediaKind::Optane, DurabilityDomain::Adr, algo);
            run_scenario(&mut KvStore::new(512), &s, &quick(threads))
        };
        let (redo, htm) = (run(Algo::RedoLazy), run(Algo::HtmLogged));
        assert!(
            htm.ptm.htm_commits > 0,
            "HtmLogged committed nothing on the hardware path ({threads} threads)"
        );
        assert!(
            htm.throughput_mops() >= redo.throughput_mops(),
            "HtmLogged ({:.4} Mops) must not lose to redo ({:.4} Mops) \
             at low contention under ADR ({threads} threads)",
            htm.throughput_mops(),
            redo.throughput_mops(),
        );
    }
}

/// Orec geometry: a line's words sit on one aligned group of orecs
/// (DESIGN.md §5 decision 17), so a small table aliases groups, not
/// words, and at 4 threads 2^8 orecs still read less throughput than
/// 2^20 (the full `ablate` run reads 0.099 vs 0.62 Mops on `tpcc-hash`,
/// 1.30 vs 4.65 on `btree-mixed`; at this scale about 0.10 vs 0.25 and
/// 0.97 vs 1.87).
#[test]
fn few_orecs_read_less_than_many() {
    for name in ["tpcc-hash", "btree-mixed"] {
        let run = |orec_count| {
            let c = RunConfig {
                ptm: PtmConfig {
                    orec_count,
                    ..PtmConfig::default()
                },
                ..quick(4)
            };
            let s = sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy);
            run_scenario(quick_workload(name, 4).as_mut(), &s, &c).throughput_mops()
        };
        let (lo, hi) = (run(1 << 8), run(1 << 20));
        assert!(
            hi > lo,
            "{name} reads {hi:.4} Mops at 2^20 orecs, {lo:.4} at 2^8"
        );
    }
}

/// Methodology: results do not hang on the executor's bounded-lag window
/// (DESIGN.md decision 8). Bandwidth servers serve in virtual-time order
/// (decision 24), so across windows of 0.5-8 µs at 4 threads TATP
/// throughput stays within max/min 1.25 and `tpcc-hash` within 1.30
/// (1.95-2.15 and 1.33-1.41 while a lagging thread queued behind its
/// peer's future), and no request is too old for its server to place.
/// Multi-threaded, so not bit-stable; `ci.sh` runs it in a release build.
#[test]
#[ignore = "multi-threaded sweep; run with --release -- --ignored window_flatness"]
fn window_flatness() {
    const THREADS: usize = 4;
    const OPS: u64 = 300;
    let sc = sc(MediaKind::Optane, DurabilityDomain::Adr, Algo::RedoLazy);
    let mut bad = Vec::new();
    println!("workload,window_ns,throughput_mops,bw_late,bw_horizon_misses");
    for (name, bound) in [("tpcc-hash", 1.30), ("tatp", 1.25)] {
        let mut tput = Vec::new();
        for window in [500u64, 1_000, 2_000, 4_000, 8_000] {
            let mut w: Box<dyn Workload> = match name {
                "tpcc-hash" => Box::new(Tpcc::new(IndexKind::Hash, 8, THREADS as u64 * OPS)),
                _ => Box::new(Tatp::new(2048)),
            };
            let (mops, mem) = run_at_window(w.as_mut(), &sc, THREADS, OPS, window);
            println!(
                "{name},{window},{mops:.4},{},{}",
                mem.bw_late, mem.bw_horizon_misses
            );
            if mem.bw_horizon_misses > 0 {
                bad.push(format!(
                    "{name} at {window} ns: {} horizon misses",
                    mem.bw_horizon_misses
                ));
            }
            tput.push(mops);
        }
        let lo = tput.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = tput.iter().copied().fold(0.0, f64::max);
        assert!(lo > 0.0, "{name}: a window ran nothing");
        let spread = hi / lo;
        if spread > bound {
            bad.push(format!("{name}: throughput max/min {spread:.3} > {bound}"));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// `run_scenario` with its measured phase on a lag window of `window_ns`
/// (set-up, seeds and ops as there): throughput in Mops and the memory
/// counters.
fn run_at_window(
    w: &mut dyn Workload,
    sc: &Scenario,
    threads: usize,
    ops: u64,
    window_ns: u64,
) -> (f64, optane_ptm::pmem_sim::StatsSnapshot) {
    use optane_ptm::pmem_sim::{Machine, MachineConfig};
    use optane_ptm::ptm::PtmDb;
    use rand::{rngs::SmallRng, SeedableRng};
    let rc = RunConfig::default();
    let machine = Machine::new(MachineConfig {
        domain: sc.domain,
        ..MachineConfig::default()
    });
    let cfg = PtmConfig {
        algo: sc.algo,
        heap_media: sc.heap_media,
        ..rc.ptm.clone()
    };
    let db = PtmDb::on_machine(machine, "heap", cfg, w.heap_words(), 16);
    db.begin_run(1, u64::MAX);
    w.setup(&mut db.thread(0));
    db.reset_stats();
    db.begin_run(threads, window_ns);
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let (db, w, seed) = (&db, &*w, rc.seed);
            scope.spawn(move || {
                let mut th = db.thread(tid);
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9));
                for i in 0..ops {
                    w.op(&mut th, &mut rng, tid, i);
                }
                th.session_mut().finish();
            });
        }
    });
    let elapsed = db.machine().run_time_ns();
    let mops = (threads as u64 * ops) as f64 * 1_000.0 / elapsed as f64;
    (mops, db.machine().stats.snapshot())
}
