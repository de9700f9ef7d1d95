//! # ptm — persistent transactional memory (the paper's core contribution)
//!
//! An orec-based PTM runtime in the style of the authors' PACT'19 LLVM
//! plugin. Algorithms are pluggable: each one implements
//! [`algo::LogPolicy`] and registers in the [`algo`] registry, while the
//! driver ([`txn`]) and shared machinery ([`access`]) stay
//! algorithm-agnostic. Three policies ship:
//!
//! * **orec-lazy** ([`config::Algo::RedoLazy`]) — commit-time locking with
//!   redo logging and O(1) fences per transaction;
//! * **orec-eager** ([`config::Algo::UndoEager`]) — encounter-time locking
//!   with undo logging and O(W) fences;
//! * **htm-logged** ([`config::Algo::HtmLogged`]) — durable HTM: the
//!   body runs in a simulated hardware section with no flush or fence
//!   inside it, persisted afterwards through a back-end redo log.
//!
//! All are tuned the way the paper tunes them for Optane: the log's hash
//! index lives in DRAM while logged data lives in persistent memory (the
//! split-log optimization), timestamp extension is on, and read-only
//! transactions skip the commit protocol entirely.
//!
//! Persistence is mediated by [`pmem_sim`]: under ADR the algorithms
//! issue `clwb`/`sfence`; under eADR/PDRAM/PDRAM-Lite those calls are
//! elided, which is exactly how the paper derives its eADR variants from
//! the ADR ones (§III-C). Crash recovery ([`recovery::recover`]) replays
//! committed redo logs and rolls back in-flight undo logs.
//!
//! ## Example
//!
//! ```
//! use pmem_sim::{Machine, MachineConfig, DurabilityDomain};
//! use palloc::PHeap;
//! use ptm::{Ptm, PtmConfig, TxThread};
//!
//! let machine = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
//! let heap = PHeap::format(&machine, "heap", 1 << 16, 8);
//! let ptm = Ptm::new(PtmConfig::redo());
//! let mut th = TxThread::new(ptm, heap.clone(), machine.session(0));
//!
//! let cell = heap.alloc(th.session_mut(), 1);
//! th.run(|tx| tx.write(cell, 41));
//! let v = th.run(|tx| {
//!     let v = tx.read(cell)?;
//!     tx.write(cell, v + 1)?;
//!     Ok(v + 1)
//! });
//! assert_eq!(v, 42);
//! ```

#![deny(unsafe_code)]

pub mod access;
pub mod algo;
pub mod config;
pub mod crash_harness;
pub mod crash_round;
pub mod db;
#[cfg(test)]
mod engine_tests;
pub mod log;
pub mod orec;
pub mod phases;
pub mod recovery;
pub mod shard;
pub mod stats;
pub mod twopc;
pub mod txn;
pub mod umap;

pub use config::{Algo, FlushPlan, PtmConfig};
pub use crash_harness::{
    count_sites, default_cases, run_site, sweep, sweep_case, BankTransfers, CaseResult,
    CrashWorkload, ShardedTransfers, SiteResult, SweepCase, SweepOptions, SweepReport,
    TwoThreadBank, Violation,
};
pub use db::PtmDb;
pub use phases::{Phase, PhaseSnapshot, PhaseStats, PhaseTimer, PHASE_COUNT};
pub use recovery::resolve_in_doubt;
pub use recovery::{recover, recover_with_options, RecoverOptions, RecoveryReport};
pub use shard::ShardedEngine;
pub use stats::{PtmStats, PtmStatsSnapshot};
pub use twopc::{CrossShardTx, CrossTx};
pub use txn::{Abort, Ptm, Tx, TxResult, TxThread};
