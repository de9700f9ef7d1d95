//! The five benchmark workloads. Each one runs as *repetitions* of a
//! fixed op count (never a fixed duration: the virtual statistics of a
//! repetition must repeat exactly), drives the system only through its
//! public functions, and times it from outside.

use pmem_sim::{LatencyModel, StatsSnapshot};
use ptm::{PhaseSnapshot, PtmStatsSnapshot};

use crate::host::HostSpan;

pub mod bank;
pub mod closed;
pub mod kv_open;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    TpccAdr1t,
    BtreeEadr1t,
    TpccUndoAdr2t,
    KvOpen2Shard,
    BankCrashRestart,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::TpccAdr1t,
        WorkloadId::BtreeEadr1t,
        WorkloadId::TpccUndoAdr2t,
        WorkloadId::KvOpen2Shard,
        WorkloadId::BankCrashRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::TpccAdr1t => "tpcc_adr_1t",
            WorkloadId::BtreeEadr1t => "btree_eadr_1t",
            WorkloadId::TpccUndoAdr2t => "tpcc_undo_adr_2t",
            WorkloadId::KvOpen2Shard => "kv_open_2shard",
            WorkloadId::BankCrashRestart => "bank_crash_restart",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// OS threads the measured phase runs on (what the host-speed
    /// calibration must mirror).
    pub fn os_threads(self) -> usize {
        match self {
            WorkloadId::TpccUndoAdr2t | WorkloadId::KvOpen2Shard => 2,
            _ => 1,
        }
    }

    /// Whether same seed ⇒ bit-identical virtual statistics. Only the
    /// 2-thread workload races real atomics inside one clock domain.
    pub fn deterministic(self) -> bool {
        self != WorkloadId::TpccUndoAdr2t
    }

    /// Why the workload is in the benchmark (one line, as in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::TpccAdr1t => {
                "paper Table I-III config: write-heavy TPCC, ADR, redo; every commit pays log append + clwb + sfence, so the persist path dominates; 1 thread, exact"
            }
            WorkloadId::BtreeEadr1t => {
                "bypasses the persist path (eADR: zero clwb/sfence asserted): B+Tree traversal, PTM read path and the cache model dominate; tree 9 MB > 4 MB modelled L3"
            }
            WorkloadId::TpccUndoAdr2t => {
                "same layers used differently: undo/eager locking on 2 virtual threads; orec conflicts, rollback, backoff and the clock domain's yield-spin"
            }
            WorkloadId::KvOpen2Shard => {
                "open loop: Zipf 0.9 KV over 2 shards, sojourn from arrival at 0.74 load plus a saturated pass for capacity; shard routing and the sharded front-end"
            }
            WorkloadId::BankCrashRestart => {
                "durability: tracked persistence, crash inside a transfer, restart, every acknowledged transfer verified; recovery and restart GC"
            }
        }
    }
}

/// Op-count scale of a repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The timed repetitions: about 1-2 s of measured phase each.
    Full,
    /// The traced repetition and its untraced baseline: a fraction of
    /// `Full`, because the flight recorder holds 30-300 events per op in
    /// memory.
    Traced,
    /// Tiny op counts with every check on: the whole benchmark in
    /// seconds, for CI.
    Smoke,
}

impl Scale {
    pub fn pick(self, full: u64, traced: u64, smoke: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Traced => traced,
            Scale::Smoke => smoke,
        }
    }
}

/// The virtual-clock statistics of one repetition. On a deterministic
/// workload two repetitions with the same seed must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    pub mops: f64,
    pub mean_ns: f64,
    pub p99_ns: f64,
    /// Latency samples behind `p99_ns`.
    pub p99_samples: u64,
    /// Ops the counters below cover.
    pub ops: u64,
    pub mem: StatsSnapshot,
    pub ptm: PtmStatsSnapshot,
    /// Absent where the public result type carries no phase profile
    /// (`ShardedRunResult`) or the benchmark owns the loop.
    pub phases: Option<PhaseSnapshot>,
}

/// Restart measurements of `bank_crash_restart`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Restart {
    pub full_restart_s: f64,
    pub first_txn_s: f64,
    pub recovery_ms: f64,
    pub recovery_logs: f64,
    pub gc_scan_ms: f64,
    pub gc_mark_ms: f64,
    pub gc_sweep_ms: f64,
    pub gc_blocks_reclaimed: f64,
}

/// One repetition, measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Ops attempted in the measured phase.
    pub ops: u64,
    /// Start of the repetition → first measured op.
    pub setup_s: f64,
    /// The measured phase on the host clock.
    pub measured: HostSpan,
    /// Host slowdown against the nominal host around this repetition
    /// (see [`crate::calib`]); 1 until the caller brackets the
    /// repetition with calibration samples.
    pub slowdown: f64,
    pub virt: Virtual,
    pub restart: Option<Restart>,
    /// Ops that count as failed, with the reason for each group.
    pub failures: Vec<Failure>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub ops: u64,
    pub why: String,
}

impl Rep {
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failures.push(Failure {
            ops,
            why: why.into(),
        });
    }

    pub fn failed_ops(&self) -> u64 {
        self.failures
            .iter()
            .map(|f| f.ops)
            .sum::<u64>()
            .min(self.ops)
    }
}

/// What the traced repetition adds: per-op spans and trace accounting.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// One entry per op, in (tid, issue) order.
    pub ops: Vec<crate::traced::OpSpanOut>,
    pub events: u64,
    pub dropped_events: u64,
    /// Σ span components vs the independently measured latency total.
    pub closure_err: f64,
    /// Host ns from the probe's epoch: set-up end, measured-phase end.
    pub setup_end_host_ns: u64,
    pub measure_end_host_ns: u64,
    /// Virtual makespan of the measured phase.
    pub sim_elapsed_ns: u64,
    /// kv_open_2shard only.
    pub queue_share_p99: Option<f64>,
    pub imbalance: Option<f64>,
}

/// Run one repetition of `id`. `traced` arms the flight recorder and the
/// per-op host clock; such a repetition never feeds an end-to-end metric.
pub fn run_rep(id: WorkloadId, scale: Scale, seed: u64, traced: bool) -> (Rep, Option<Traced>) {
    match id {
        WorkloadId::TpccAdr1t | WorkloadId::BtreeEadr1t | WorkloadId::TpccUndoAdr2t => {
            closed::run_rep(id, scale, seed, traced, &LatencyModel::default())
        }
        WorkloadId::KvOpen2Shard => kv_open::run_rep(scale, seed, traced),
        WorkloadId::BankCrashRestart => bank::run_rep(scale, seed, traced, bank::Sabotage::None),
    }
}
