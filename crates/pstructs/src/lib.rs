//! # pstructs — persistent data structures on the PTM
//!
//! The containers the workloads run, each fully transactional (every
//! node access goes through [`ptm::Tx`], so the structures inherit the
//! PTM's atomicity, isolation and durability):
//!
//! * [`bptree::BpTree`] — fixed-fanout B+Tree (DudeTM's microbenchmark
//!   structure and the TPCC B+Tree index);
//! * [`hashmap::PHashMap`] — chained hash table (TPCC Hash-Table index,
//!   TATP tables, memcached-like KV index).
//!
//! Handles are plain persistent addresses: store them in a
//! [`palloc::PHeap`] root slot and re-attach after a crash with
//! `from_header`.

#![deny(unsafe_code)]

pub mod bptree;
pub mod hashmap;

pub use bptree::BpTree;
pub use hashmap::PHashMap;
