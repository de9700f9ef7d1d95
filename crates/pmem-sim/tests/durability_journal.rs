//! The durability journal (DESIGN.md §5 decision 21) defers when a
//! fence's snapshots reach the durable shadow; these tests hold that no
//! reader can tell.
//!
//! * Equivalence: one seeded schedule of stores, loads, `clwb`,
//!   `clwb_batch`, `sfence`, L3 evictions (a 64-line L3) and
//!   `persist_line_now`, with crash captures at random points, run twice —
//!   once reading `shadow()` after every fence, which folds at once and so
//!   applies snapshots in the order `sfence` used to, and once folding only
//!   when a capture does. Every image is compared bit for bit under every
//!   adversary policy, for one session and for two sessions interleaved
//!   from one OS thread.
//! * Liveness: crash captures on one thread while four threads commit
//!   `clwb` + `sfence` batches finish, and every capture is a cut.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use pmem_sim::{
    AdversaryPolicy, DurabilityDomain, LatencyModel, Machine, MachineConfig, MediaKind,
    PersistenceClass, LINE_BYTES, WORDS_PER_LINE,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every policy a capture is taken under.
const POLICIES: [AdversaryPolicy; 5] = [
    AdversaryPolicy::PerWord,
    AdversaryPolicy::AllOld,
    AdversaryPolicy::AllNew,
    AdversaryPolicy::PerLine,
    AdversaryPolicy::Biased(0.3),
];

/// Run the schedule drawn from `seed` over `sessions` sessions; returns
/// every capture (per policy, per pool, the image's words) and how many
/// evictions the run made.
fn schedule(seed: u64, sessions: usize, fold_every_fence: bool) -> (Vec<Vec<u64>>, u64) {
    let model = LatencyModel {
        l3_bytes: 64 * LINE_BYTES,
        ..LatencyModel::zero()
    };
    let m = Machine::new(MachineConfig {
        model,
        ..MachineConfig::functional(DurabilityDomain::Adr)
    });
    let pools = [
        m.alloc_pool("a", 64 * WORDS_PER_LINE, MediaKind::Optane),
        m.alloc_pool("b", 32 * WORDS_PER_LINE, MediaKind::Optane),
        m.alloc_pool_with_class(
            "log",
            16 * WORDS_PER_LINE,
            MediaKind::Optane,
            PersistenceClass::PdramLite,
        ),
        m.alloc_pool("dram", 16 * WORDS_PER_LINE, MediaKind::Dram),
    ];
    m.begin_run(sessions, u64::MAX);
    let mut ss: Vec<_> = (0..sessions).map(|t| m.session(t)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut images = Vec::new();
    let mut batch = Vec::new();
    let fold = || {
        if fold_every_fence {
            for p in &pools {
                p.shadow();
            }
        }
    };
    for step in 0..6_000u64 {
        let s = &mut ss[rng.gen_range(0..sessions)];
        let pool = &pools[rng.gen_range(0..pools.len())];
        let addr = pool.addr(rng.gen_range(0..pool.len_words() as u64));
        match rng.gen_range(0..100) {
            0..=39 => s.store(addr, rng.gen_range(1..1_000)),
            40..=47 => {
                s.load(addr);
            }
            48..=59 => s.clwb(addr),
            60..=64 => {
                for _ in 0..rng.gen_range(1..6) {
                    let p = &pools[rng.gen_range(0..pools.len())];
                    batch.push(p.addr(rng.gen_range(0..p.len_words() as u64)));
                }
                s.clwb_batch(&mut batch);
            }
            65..=82 => {
                s.sfence();
                fold();
            }
            83..=93 => pool.persist_line_now(addr.line()),
            _ => images.extend(POLICIES.iter().flat_map(|&policy| {
                m.crash_with(seed ^ step, policy)
                    .pools
                    .into_iter()
                    .map(|p| p.words)
            })),
        }
    }
    drop(ss);
    (images, m.stats.snapshot().evictions)
}

#[test]
fn deferring_the_fold_changes_no_image() {
    for sessions in [1, 2] {
        for seed in 0..6 {
            let (eager, evictions) = schedule(seed, sessions, true);
            let (deferred, _) = schedule(seed, sessions, false);
            assert!(eager.len() > 500, "captures were taken");
            assert!(evictions > 100, "the tiny L3 evicts: {evictions}");
            assert!(
                eager == deferred,
                "seed {seed}, {sessions} session(s): an image differs"
            );
        }
    }
}

/// A racing crash round's shape: four threads commit lines of their
/// own — every word of a line set to the thread's next value, `clwb`,
/// and one `sfence` per batch of eight lines — while this thread
/// captures, until both have done plenty. It must finish within the
/// timeout, and each all-old capture must be a cut: a line holds one
/// value in all its words (a snapshot is whole; the run evicts nothing,
/// so no line is persisted half-written), and never less than an
/// earlier capture held.
#[test]
fn captures_race_four_committing_threads_without_deadlock() {
    const THREADS: usize = 4;
    const LINES_PER_THREAD: u64 = 32;
    let (done_tx, done_rx) = mpsc::channel();
    // Joined only once it has reported: a deadlocked run cannot be joined.
    let run = std::thread::spawn(move || {
        // A direct-mapped L3 large enough that none of the run's 256 lines
        // shares a slot.
        let model = LatencyModel {
            l3_bytes: 64 << 20,
            ..LatencyModel::zero()
        };
        let m = Machine::new(MachineConfig {
            model,
            ..MachineConfig::functional(DurabilityDomain::Adr)
        });
        let words = THREADS * LINES_PER_THREAD as usize * WORDS_PER_LINE;
        let pool = m.alloc_pool("heap", words, MediaKind::Optane);
        let log = m.alloc_pool("log", words, MediaKind::Optane);
        m.begin_run(THREADS, u64::MAX);
        let fences = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (m, pool, log) = (Arc::clone(&m), Arc::clone(&pool), Arc::clone(&log));
                let (fences, stop) = (Arc::clone(&fences), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut s = m.session(t);
                    let first = t as u64 * LINES_PER_THREAD;
                    let mut value = 0;
                    while !stop.load(Ordering::Relaxed) {
                        value += 1;
                        for line in first..first + LINES_PER_THREAD {
                            for p in [&pool, &log] {
                                let base = line * WORDS_PER_LINE as u64;
                                for w in base..base + WORDS_PER_LINE as u64 {
                                    s.store(p.addr(w), value);
                                }
                                s.clwb(p.addr(base));
                            }
                            if line % 8 == 7 {
                                s.sfence();
                                fences.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    value
                })
            })
            .collect();
        let mut last = vec![0u64; 2 * words / WORDS_PER_LINE];
        let mut captures = 0;
        while captures < 200 || fences.load(Ordering::Relaxed) < 4_000 {
            let img = m.crash_with(captures, AdversaryPolicy::AllOld);
            let lines = img
                .pools
                .iter()
                .flat_map(|p| p.words.chunks(WORDS_PER_LINE));
            for (i, line) in lines.enumerate() {
                assert!(
                    line.iter().all(|&w| w == line[0]),
                    "torn line {i}: {line:?}"
                );
                assert!(line[0] >= last[i], "line {i} went back: {line:?}");
                last[i] = line[0];
            }
            captures += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let committed: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(
            m.stats.snapshot().evictions,
            0,
            "the cut check assumes none"
        );
        done_tx.send(committed).unwrap();
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(committed) => {
            run.join().unwrap();
            assert!(committed.iter().all(|&v| v > 1), "every thread committed");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("captures and commits deadlocked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().unwrap_err())
        }
    }
}
