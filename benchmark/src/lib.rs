//! Two-clock benchmark of the optane-ptm simulator.
//!
//! The system under test has two clocks. *Virtual time* (`sim_*`
//! metrics) is what the modelled Optane machine would take — the paper's
//! figures are made of it, and at one thread per clock domain it repeats
//! bit for bit. *Host time* (`host_*`, `setup_s`, `restart_s`,
//! `peak_rss_mb`) is what the simulator itself costs to run. This crate
//! measures both, end to end on five workloads and layer by layer, using
//! only the public functions of the repository's crates and timing them
//! from outside. See `README.md` for the glossary.

pub mod calib;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod stats;
pub mod suite;
pub mod traced;

/// How long one run measures by default: `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;
