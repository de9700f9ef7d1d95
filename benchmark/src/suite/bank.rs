//! `bank_crash_restart`: the durability check.
//!
//! A [`PtmDb`] with persistence tracking on (ADR, redo) holds `N`
//! accounts in a [`PHashMap`] — one heap block per account, so the
//! restart GC has a six-figure block count to scan and mark. `K`
//! single-thread transfers run, each mirrored in an in-memory model the
//! moment `run` returns (that return is the acknowledgement). Transfer
//! `K+1` is cut down by a [`CrashInjector`] at a seed-chosen persistence
//! site inside it; the database is reopened from the captured image —
//! only what the durability domain persisted — and verified:
//!
//! * every acknowledged transfer is readable through a transaction;
//! * the in-flight transfer is all-or-nothing;
//! * the total balance is conserved;
//! * [`PHeap::validate`](palloc::PHeap::validate) is clean.
//!
//! The benchmark owns this loop, so per-op virtual latencies are read
//! directly from `session.now()`.

use std::sync::Arc;

use pmem_sim::{
    catch_simulated_crash, silence_simulated_crash_panics, AdversaryPolicy, CrashInjector,
    DurabilityDomain, MachineConfig,
};
use pstructs::PHashMap;
use ptm::{PtmConfig, PtmDb, RecoverOptions, Tx, TxResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use trace::TraceSink;

use super::{Rep, Restart, Scale, Traced, Virtual};
use crate::host::HostMark;
use crate::probe::{tie_interpolated_rank, Lane, OpRecord};
use crate::traced;

const INITIAL_BALANCE: u64 = 1_000;
/// Accounts populated per set-up transaction.
const POPULATE_BATCH: u64 = 32;
/// Accounts read back per verification transaction.
const VERIFY_BATCH: u64 = 64;
/// Trace events per transfer, with headroom (measured ≈ 35).
const EVENTS_PER_TRANSFER: u64 = 64;

/// How to break the verifier's model, to show the check can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    None,
    /// Leave one acknowledged transfer out of the in-memory model, as if
    /// the database had lost it.
    DropOneTransfer,
}

/// (accounts, acknowledged transfers) of one repetition.
pub fn sizes(scale: Scale) -> (u64, u64) {
    (
        scale.pick(400_000, 100_000, 2_000),
        scale.pick(600_000, 50_000, 1_500),
    )
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    from: u64,
    to: u64,
    amount: u64,
}

fn draw(rng: &mut SmallRng, accounts: u64) -> Transfer {
    let from = rng.gen_range(0..accounts);
    // Distinct accounts: shift past `from` instead of redrawing.
    let to = (from + rng.gen_range(1..accounts)) % accounts;
    Transfer {
        from,
        to,
        amount: rng.gen_range(1..=10),
    }
}

/// Move `t.amount` if the source can cover it. Returns whether money
/// moved.
fn transfer(tx: &mut Tx<'_>, map: PHashMap, t: Transfer) -> TxResult<bool> {
    let balance = map.get(tx, t.from)?.expect("account exists");
    if balance < t.amount {
        return Ok(false);
    }
    map.update(tx, t.from, |v| v - t.amount)?;
    map.update(tx, t.to, |v| v + t.amount)?;
    Ok(true)
}

fn apply(model: &mut [u64], t: Transfer) {
    model[t.from as usize] -= t.amount;
    model[t.to as usize] += t.amount;
}

/// A well-mixed function of the seed (splitmix64 finaliser), so
/// neighbouring seeds crash at unrelated sites.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run_rep(scale: Scale, seed: u64, traced: bool, sabotage: Sabotage) -> (Rep, Option<Traced>) {
    silence_simulated_crash_panics();
    let (accounts, transfers) = sizes(scale);
    let machine_cfg = MachineConfig {
        domain: DurabilityDomain::Adr,
        track_persistence: true,
        window_ns: u64::MAX,
        ..MachineConfig::default()
    };
    let ptm_cfg = PtmConfig {
        tracing: traced,
        ..PtmConfig::redo()
    };

    // Set-up: create + populate.
    let epoch = std::time::Instant::now();
    let start = HostMark::now();
    // Bucket array (one word per account) + a 3-word node and header per
    // account, rounded up by the size classes.
    let heap_words = (accounts as usize * 10 + (1 << 16)).next_power_of_two();
    let db = PtmDb::create(machine_cfg.clone(), ptm_cfg.clone(), heap_words, 4);
    db.begin_run(1, u64::MAX);
    let map = {
        let mut th = db.thread(0);
        let map = th.run(|tx| PHashMap::create(tx, accounts as usize));
        for base in (0..accounts).step_by(POPULATE_BATCH as usize) {
            th.run(|tx| {
                for k in base..(base + POPULATE_BATCH).min(accounts) {
                    map.insert(tx, k, INITIAL_BALANCE)?;
                }
                Ok(())
            });
        }
        let heap = Arc::clone(db.heap());
        heap.set_root(th.session_mut(), 0, map.header());
        map
    };
    db.ptm().stats.reset();
    db.ptm().phases.reset();
    db.machine().stats.reset();
    // Like the driver: the recorder covers exactly what the counters
    // cover, and the measured session is created after it is attached.
    let sink = traced.then(|| TraceSink::new((transfers * EVENTS_PER_TRANSFER) as usize));
    if let Some(sink) = &sink {
        db.machine().attach_tracer(Arc::clone(sink));
    }
    // A fresh run, as the driver starts one after set-up: new clocks and
    // idle bandwidth servers, so the first transfer does not inherit the
    // populate phase's write backlog.
    db.begin_run(1, u64::MAX);
    let mut th = db.thread(0);
    let setup_end = HostMark::now();

    // Measured phase: K acknowledged transfers, mirrored in the model.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = vec![INITIAL_BALANCE; accounts as usize];
    let mut lane = Lane {
        sim_ns: Vec::with_capacity(transfers as usize),
        ops: Vec::new(),
    };
    let dropped_transfer = transfers / 2;
    let sim_begin = th.session_mut().now();
    for i in 0..transfers {
        let t = draw(&mut rng, accounts);
        let sim_start_ns = th.session_mut().now();
        let host_start = traced.then(std::time::Instant::now);
        let moved = th.run(|tx| transfer(tx, map, t));
        let sim_end_ns = th.session_mut().now();
        lane.sim_ns.push(sim_end_ns - sim_start_ns);
        if let Some(h0) = host_start {
            lane.ops.push(OpRecord {
                host_start_ns: h0.duration_since(epoch).as_nanos() as u64,
                host_end_ns: epoch.elapsed().as_nanos() as u64,
                sim_start_ns,
                sim_end_ns,
            });
        }
        if moved && !(sabotage == Sabotage::DropOneTransfer && i == dropped_transfer) {
            apply(&mut model, t);
        }
    }
    let sim_end = th.session_mut().now();
    let measure_end = HostMark::now();
    let mem = db.machine().stats.snapshot();
    let ptm = db.ptm().stats_snapshot();
    let phases = db.ptm().phases_snapshot();

    // Transfer K+1, cut down at a persistence site inside it. A dry run
    // over an equivalent transfer (one unit between two funded accounts,
    // acknowledged and mirrored like any other) sizes the site range.
    let funded = |rng: &mut SmallRng, model: &[u64]| loop {
        let t = Transfer {
            amount: 1,
            ..draw(rng, accounts)
        };
        if model[t.from as usize] >= 1 {
            break t;
        }
    };
    let sizing = funded(&mut rng, &model);
    let counter = CrashInjector::count_only();
    db.machine().arm_injector(Arc::clone(&counter));
    let moved = th.run(|tx| transfer(tx, map, sizing));
    db.machine().disarm_injector();
    assert!(moved, "a funded transfer moved nothing");
    apply(&mut model, sizing);
    let sites = counter.sites_counted().max(1);

    let doomed = funded(&mut rng, &model);
    let injector = CrashInjector::at_site(mix(seed) % sites, AdversaryPolicy::default(), seed);
    db.machine().arm_injector(Arc::clone(&injector));
    let outcome = catch_simulated_crash(|| th.run(|tx| transfer(tx, map, doomed)));
    db.machine().disarm_injector();
    // The session's state is meaningless after an unwind; it is only
    // dropped (which hands its trace ring to the sink).
    drop(th);
    let (image, in_flight) = match outcome {
        Err(_) => {
            let fired = injector
                .take_outcome()
                .expect("crash fired without an image");
            (fired.image, true)
        }
        // The doomed transfer had fewer sites than its twin and ran to
        // completion: it is acknowledged, and the power fails right
        // after it.
        Ok(moved) => {
            assert!(moved, "a funded transfer moved nothing");
            apply(&mut model, doomed);
            (db.crash(seed), false)
        }
    };
    if sink.is_some() {
        db.machine().detach_tracer();
    }
    drop(db);

    // Restart from the image alone.
    let (db2, reports) = PtmDb::reopen_with(
        &image,
        machine_cfg,
        ptm_cfg,
        RecoverOptions {
            workers: 1,
            ..RecoverOptions::default()
        },
    );

    let mut sorted = lane.sim_ns.clone();
    sorted.sort_unstable();
    let latency_sum: u64 = lane.sim_ns.iter().sum();
    let mut rep = Rep {
        ops: transfers,
        setup_s: start.until(&setup_end).wall_s,
        measured: setup_end.until(&measure_end),
        virt: Virtual {
            mops: transfers as f64 * 1_000.0 / (sim_end - sim_begin).max(1) as f64,
            mean_ns: latency_sum as f64 / transfers as f64,
            p99_ns: tie_interpolated_rank(&sorted, 99, 100),
            p99_samples: transfers,
            ops: transfers,
            mem,
            ptm,
            phases: Some(phases),
        },
        slowdown: 1.0,
        restart: Some(Restart {
            full_restart_s: reports.full_restart_ns as f64 / 1e9,
            first_txn_s: reports.time_to_first_txn_ns as f64 / 1e9,
            recovery_ms: reports.recovery.recovery_ns as f64 / 1e6,
            recovery_logs: reports.recovery.logs_scanned as f64,
            gc_scan_ms: reports.gc.gc_scan_ns as f64 / 1e6,
            gc_mark_ms: reports.gc.gc_mark_ns as f64 / 1e6,
            gc_sweep_ms: reports.gc.gc_sweep_ns as f64 / 1e6,
            gc_blocks_reclaimed: reports.gc.reclaimed_blocks as f64,
        }),
        failures: Vec::new(),
    };
    if ptm.commits < transfers {
        rep.fail(transfers - ptm.commits, "transfers without a commit");
    }
    if mem.clwbs == 0 || mem.sfences == 0 {
        rep.fail(transfers, "ADR run never flushed or fenced");
    }

    // Verify, reading every account back through transactions.
    if let Err(e) = db2.heap().validate() {
        rep.fail(transfers, format!("heap invalid after restart: {e}"));
    }
    if !reports.recovery.malformed.is_empty() {
        rep.fail(
            transfers,
            format!(
                "recovery found malformed logs: {:?}",
                reports.recovery.malformed
            ),
        );
    }
    db2.begin_run(1, u64::MAX);
    let map2 = PHashMap::from_header(db2.heap().root_raw(0));
    let mut th2 = db2.thread(0);
    let mut recovered: Vec<Option<u64>> = Vec::with_capacity(accounts as usize);
    for base in (0..accounts).step_by(VERIFY_BATCH as usize) {
        recovered.extend(th2.run(|tx| {
            (base..(base + VERIFY_BATCH).min(accounts))
                .map(|k| map2.get(tx, k))
                .collect::<TxResult<Vec<_>>>()
        }));
    }
    // With the doomed transfer in flight, both the model without it and
    // the model with it are legal — but nothing in between.
    let mismatches = |model: &[u64]| {
        recovered
            .iter()
            .zip(model)
            .filter(|(got, want)| **got != Some(**want))
            .count() as u64
    };
    let mut wrong = mismatches(&model);
    if in_flight && wrong != 0 {
        let mut with_doomed = model.clone();
        apply(&mut with_doomed, doomed);
        wrong = wrong.min(mismatches(&with_doomed));
    }
    if wrong != 0 {
        rep.fail(
            wrong,
            format!("{wrong} account(s) differ from every legal state after restart"),
        );
    }
    let total: u64 = recovered.iter().flatten().sum();
    if total != accounts * INITIAL_BALANCE {
        rep.fail(
            1,
            format!(
                "total balance {total} after restart, {} before",
                accounts * INITIAL_BALANCE
            ),
        );
    }

    let traced = sink.map(|sink| {
        let threads = sink.threads();
        let (mut spans, dropped_events) = obs::spans::reconstruct(&threads);
        // The sizing and doomed transfers are outside the measured phase.
        spans.retain(|s| s.end_ts <= sim_end);
        let host_ns = |m: &HostMark| m.at.duration_since(epoch).as_nanos() as u64;
        Traced {
            ops: traced::attach(std::slice::from_ref(&lane), &spans),
            events: traced::events_recorded(&threads),
            dropped_events,
            closure_err: traced::closure_err(&spans, latency_sum),
            setup_end_host_ns: host_ns(&setup_end),
            measure_end_host_ns: host_ns(&measure_end),
            sim_elapsed_ns: sim_end - sim_begin,
            queue_share_p99: None,
            imbalance: None,
        }
    });
    (rep, traced)
}
