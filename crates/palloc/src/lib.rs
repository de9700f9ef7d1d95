//! # palloc — a Makalu-style persistent allocator
//!
//! The paper's experiments manage the persistent heap with the Makalu
//! allocator (Bhandari et al., OOPSLA 2016). Makalu's defining property is
//! *crash-robust allocation without per-allocation logging*: allocation
//! metadata (free lists) is volatile, and after a failure a conservative
//! mark-sweep garbage collection from a persistent **root table** rebuilds
//! it, reclaiming every block that leaked when the crash struck between an
//! allocation and the store that would have linked it into a structure.
//!
//! This crate reproduces that design on top of [`pmem_sim`]:
//!
//! * each heap lives in one Optane-backed pool with a persistent header
//!   and root table ([`layout`]);
//! * blocks carry a persistent one-word header (tag + size class) written
//!   and flushed **before** the block becomes reachable ([`heap`]);
//! * free lists are volatile size-class stacks ([`classes`], [`heap`]);
//! * [`PHeap::attach`] recovers a heap after a crash: it scans the block
//!   headers, conservatively marks everything reachable from the roots,
//!   and sweeps the rest back onto the free lists ([`gc`]) — offline, on
//!   the calling thread, before the heap is handed out.

#![deny(unsafe_code)]

pub mod classes;
pub mod gc;
pub mod heap;
pub mod layout;

pub use gc::GcReport;
pub use heap::{AttachError, HeapStats, PHeap};
