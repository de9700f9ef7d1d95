//! # optane-ptm
//!
//! Umbrella crate for the reproduction of Zardoshti et al., *Understanding
//! and Improving Persistent Transactions on Optane™ DC Memory* (IPDPS 2020).
//!
//! Re-exports the workspace crates so examples and integration tests can
//! use one coherent namespace:
//!
//! * [`pmem_sim`] — the simulated Optane substrate (latency model, virtual
//!   time, durability domains, crash simulation);
//! * [`palloc`] — the Makalu-style persistent allocator;
//! * [`ptm`] — the persistent transactional memory runtime (orec-lazy redo
//!   and orec-eager undo);
//! * [`pstructs`] — persistent data structures built on `ptm`;
//! * [`workloads`] — the paper's five benchmark applications and the
//!   virtual-thread measurement driver;
//! * [`trace`] — the virtual-time flight recorder (per-thread event rings,
//!   Perfetto/binary export, abort-attribution and WPQ analysis);
//! * [`obs`] — offline telemetry folded from recorded traces (per-shard
//!   virtual-time series, per-request critical-path span reconstruction,
//!   bench-trend regression guard).

#![deny(unsafe_code)]

pub use obs;
pub use palloc;
pub use pmem_sim;
pub use pstructs;
pub use ptm;
pub use trace;
pub use workloads;
