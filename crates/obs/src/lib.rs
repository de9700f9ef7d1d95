//! # obs — offline virtual-time telemetry
//!
//! The counters (`ptm::PtmStats`, `pmem_sim::MachineStats`) answer "how
//! much, in total"; the flight recorder (`crates/trace`) answers "what
//! happened, event by event". This crate fills the gap in between: *how
//! do the engine's gauges evolve over a run*, and *what exactly is a tail
//! latency made of*.
//!
//! The flight recorder is the only observer a run arms; every view here
//! is a pure function of the `&[trace::ThreadTrace]` it leaves behind:
//!
//! * a **time series** ([`series`]): each thread's events are bucketed
//!   into period-aligned windows, each window folded into a [`GaugeSet`]
//!   by the one event fold (`trace::GaugeSet::apply`) and accumulated
//!   into per-(window, shard) rows. The period is chosen after the run;
//!   the series is bounded by the trace ring, whose `dropped` count is
//!   its one loss figure;
//! * **critical-path span reconstruction** ([`spans`]): rebuild
//!   per-transaction span trees from trace events and decompose exact
//!   p50/p95/p99 latencies into queue wait, execution, commit protocol,
//!   log flush, fence wait, WPQ stall, backoff and rollback;
//! * a **trend guard** ([`trend`]): diff archived `results/BENCH_*.json`
//!   files across PRs and flag metric regressions beyond a tolerance.

#![deny(unsafe_code)]

pub mod export;
pub mod series;
pub mod spans;
pub mod trend;

pub use trace::GaugeSet;

/// Default sampling period: 10 µs of simulated time.
pub const DEFAULT_PERIOD_NS: u64 = 10_000;
