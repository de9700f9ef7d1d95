//! The sampled crash round: concurrent bank transfers frozen mid-flight
//! by a power failure, restarted, and summed. Where
//! [`crate::crash_harness`] *enumerates* the crash sites of a
//! deterministic run, this samples the crash space of a racing one;
//! `tests/crash_bank.rs` runs it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pmem_sim::{AdversaryPolicy, DurabilityDomain, Machine, MachineConfig, PAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::PtmConfig;
use crate::crash_harness::{open_accounts, rooted_table, transfer};
use crate::db::{restart, PtmDb};
use crate::recovery::{RecoverOptions, RecoveryReport};
use crate::stats::PtmStatsSnapshot;

/// Accounts, opening balance and worker threads of one
/// [`frozen_bank_round`]; every round must conserve
/// `FROZEN_ACCOUNTS * FROZEN_INITIAL`.
pub const FROZEN_ACCOUNTS: u64 = 32;
pub const FROZEN_INITIAL: u64 = 500;
const FROZEN_THREADS: usize = 3;
const FROZEN_HEAP: &str = "bank";

/// What one [`frozen_bank_round`] recovered.
#[derive(Debug, Clone)]
pub struct FrozenRound {
    /// Sum of the recovered balances.
    pub total: u64,
    /// The account table the run rooted, and the root recovery found.
    pub table: PAddr,
    pub root: PAddr,
    pub recovery: RecoveryReport,
    /// The run's PTM counters (e.g. to assert a path was exercised).
    pub stats: PtmStatsSnapshot,
}

/// The *sampled* counterpart of the sweep: concurrent bank transfers on
/// real threads for `run_for`, the world frozen mid-flight, a power
/// failure under `policy`, then the production [`restart`]. Not
/// deterministic — where the freeze lands depends on the host — so
/// callers assert conservation, never a particular state.
pub fn frozen_bank_round(
    ptm_cfg: PtmConfig,
    domain: DurabilityDomain,
    policy: AdversaryPolicy,
    seed: u64,
    run_for: Duration,
) -> FrozenRound {
    let machine_cfg = MachineConfig {
        domain,
        track_persistence: true,
        ..MachineConfig::default()
    };
    let db = PtmDb::on_machine(
        Machine::new(machine_cfg.clone()),
        FROZEN_HEAP,
        ptm_cfg,
        1 << 15,
        4,
    );
    let machine = db.machine();
    db.begin_run(1, u64::MAX);
    let table = open_accounts(&mut db.thread(0), FROZEN_ACCOUNTS, FROZEN_INITIAL);
    let stop = AtomicBool::new(false);
    db.begin_run(FROZEN_THREADS, u64::MAX);
    let image = std::thread::scope(|scope| {
        for tid in 0..FROZEN_THREADS {
            let (db, stop) = (&db, &stop);
            scope.spawn(move || {
                let mut th = db.thread(tid);
                let mut rng = SmallRng::seed_from_u64(seed ^ (tid as u64) << 32);
                while !stop.load(Ordering::Relaxed) {
                    let from = rng.gen_range(0..FROZEN_ACCOUNTS);
                    let to = rng.gen_range(0..FROZEN_ACCOUNTS);
                    transfer(&mut th, table, from, to, rng.gen_range(1..40));
                }
            });
        }
        std::thread::sleep(run_for);
        machine.freeze();
        let image = machine.crash_with(seed.wrapping_mul(0x9E37_79B9), policy);
        stop.store(true, Ordering::Relaxed);
        machine.thaw();
        image
    });
    let r = restart(&image, FROZEN_HEAP, machine_cfg, RecoverOptions::default())
        .expect("frozen bank restart");
    FrozenRound {
        total: rooted_table(&r, FROZEN_ACCOUNTS).map_or(0, |t| t.iter().sum()),
        table,
        root: r.heap.root_raw(0),
        recovery: r.reports.recovery,
        stats: db.ptm().stats_snapshot(),
    }
}
