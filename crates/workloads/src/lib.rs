//! # workloads — the paper's benchmark applications and measurement driver
//!
//! Every application the paper evaluates (§III-A), rebuilt on the PTM:
//!
//! * [`tatp::Tatp`] — write-only TATP (Fig. 4 / Fig. 7);
//! * [`btree_bench::BTreeInsertOnly`] / [`btree_bench::BTreeMixed`] — the
//!   DudeTM B+Tree microbenchmarks (Fig. 3 / Fig. 6, top row);
//! * [`tpcc::Tpcc`] — write-only TPCC with a B+Tree or Hash-Table order
//!   index (Fig. 3 / Fig. 6 middle row, Tables I–III);
//! * [`vacation::Vacation`] — STAMP Vacation at low/high contention
//!   (Fig. 3 / Fig. 6 bottom row);
//! * [`kvstore::KvStore`] — the memcached-like store for the working-set
//!   sweep (Fig. 8).
//!
//! [`driver::run_scenario`] executes one (workload, scenario, threads)
//! measurement on a fresh simulated machine and reports virtual-time
//! throughput, commit/abort ratios and memory-system counters.

#![deny(unsafe_code)]

pub mod btree_bench;
pub mod driver;
pub mod hist;
pub mod kvstore;
pub mod sharded;
pub mod tatp;
pub mod tpcc;
pub mod vacation;

pub use btree_bench::{BTreeInsertOnly, BTreeMixed};
pub use driver::{run_scenario, RunConfig, RunResult, Scenario, Workload, PAPER_THREADS};
pub use hist::{LatencyHistogram, LatencySummary};
pub use kvstore::KvStore;
pub use sharded::{
    gen_open_loop, run_cross_shard_transfer, run_sharded_kv, run_sharded_tpcc, Request,
    ShardedRunConfig, ShardedRunResult, StreamConfig, ZipfGen, TRANSFER_INITIAL_BALANCE,
};
pub use tatp::Tatp;
pub use tpcc::{IndexKind, Tpcc};
pub use vacation::{Vacation, VacationCfg};
