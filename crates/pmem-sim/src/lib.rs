//! # pmem-sim — a simulated Optane™ DC persistent-memory substrate
//!
//! This crate emulates the memory system of an Intel Optane DC machine well
//! enough to reproduce the *shape* results of Zardoshti et al., "Understanding
//! and Improving Persistent Transactions on Optane DC Memory" (IPDPS 2020).
//!
//! The real machine is replaced by:
//!
//! * a **latency model** ([`LatencyModel`]) with DRAM vs Optane load/store
//!   latencies, `clwb`/`sfence` costs, and read/write bandwidth limits taken
//!   from the paper and its cited measurements (Izraelevitz et al.);
//! * **virtual time**: every simulated memory operation advances a per-thread
//!   virtual clock ([`clock`]); threads run on real OS threads but are kept
//!   within a bounded virtual-time window of each other, so critical-section
//!   *virtual* durations translate into real interleaving exposure (this is
//!   what lets abort rates respond to flush/fence costs, as in the paper's
//!   Tables I and II);
//! * **queueing servers** ([`bandwidth`]) for the Optane read path, the
//!   write path and the bounded Write Pending Queue (WPQ), which reproduce
//!   the paper's observation that Optane write bandwidth saturates with a
//!   handful of writer threads while reads keep scaling;
//! * an **L3 cache model** ([`cache`]) so that workloads with L3-resident
//!   working sets behave differently from streaming ones (paper Fig. 8);
//! * **durability domains** ([`DurabilityDomain`]): ADR, eADR and the paper's
//!   proposed PDRAM and PDRAM-Lite, each defining both the *cost* of
//!   persistence primitives and *what survives a crash*;
//! * **crash simulation** ([`crash`]): a simulated power failure yields a
//!   media image containing exactly what the active durability domain
//!   guarantees (adversarially randomized where the hardware gives no
//!   guarantee), against which recovery code can be exercised;
//! * **crash-site injection** ([`inject`]): every persistence-relevant
//!   event is a numbered crash site; an armed [`CrashInjector`] triggers a
//!   deterministic simulated power failure exactly at the N-th site, which
//!   lets harnesses *enumerate* the crash space instead of sampling it.
//!
//! Memory is exposed as 64-bit words inside [`pool::PmemPool`]s addressed by
//! [`PAddr`]. All timed accesses go through a per-thread [`MemSession`].
//!
//! ```
//! use pmem_sim::{Machine, MachineConfig, MediaKind, DurabilityDomain};
//!
//! let machine = Machine::new(MachineConfig {
//!     domain: DurabilityDomain::Adr,
//!     ..MachineConfig::default()
//! });
//! let pool = machine.alloc_pool("heap", 1024, MediaKind::Optane);
//! let mut s = machine.session(0);
//! let addr = pool.addr(0);
//! s.store(addr, 42);
//! s.clwb(addr);
//! s.sfence();
//! assert_eq!(s.load(addr), 42);
//! assert!(s.now() > 0); // the ops consumed virtual time
//! ```

#![deny(unsafe_code)]

pub mod bandwidth;
pub mod cache;
pub mod clock;
pub mod crash;
pub mod domain;
pub mod host;
pub mod inject;
pub mod latency;
pub mod machine;
pub mod pool;
pub mod session;
pub mod stats;

pub use crash::{AdversaryPolicy, CrashImage};
pub use domain::DurabilityDomain;
pub use inject::{
    catch_simulated_crash, silence_simulated_crash_panics, CrashInjector, FiredCrash,
    SimulatedCrash, SiteKind,
};
pub use latency::LatencyModel;
pub use machine::{HtmModel, Machine, MachineConfig};
pub use pool::{MediaKind, PAddr, PersistenceClass, PmemPool, PoolId};
pub use session::MemSession;
pub use stats::{MachineStats, StatsSnapshot};

/// Bytes per simulated cache line.
pub const LINE_BYTES: usize = 64;
/// 64-bit words per simulated cache line.
pub const WORDS_PER_LINE: usize = LINE_BYTES / 8;
