//! # pstructs — persistent data structures on the PTM
//!
//! The containers the paper's workloads are built from, each fully
//! transactional (every node access goes through [`ptm::Tx`], so the
//! structures inherit the PTM's atomicity, isolation and durability):
//!
//! * [`bptree::BpTree`] — fixed-fanout B+Tree (DudeTM's microbenchmark
//!   structure and the TPCC B+Tree index);
//! * [`hashmap::PHashMap`] — chained hash table (TPCC Hash-Table index,
//!   TATP tables, memcached-like KV index);
//! * [`list::PList`] — sorted linked list (classic STM microbenchmark);
//! * [`queue::PQueue`] — FIFO queue;
//! * [`skiplist::PSkipList`] — ordered map with probabilistic balance
//!   (deterministic towers; smaller write sets than the B+Tree);
//! * [`pvec::PVec`] — growable vector (copy-grow, atomic publish);
//! * [`blob::PBlob`] — immutable byte blobs for values larger than a word.
//!
//! Handles are plain persistent addresses: store them in a
//! [`palloc::PHeap`] root slot and re-attach after a crash with
//! `from_header`.

#![deny(unsafe_code)]

pub mod blob;
pub mod bptree;
pub mod hashmap;
pub mod list;
pub mod pvec;
pub mod queue;
pub mod skiplist;

pub use blob::PBlob;
pub use bptree::BpTree;
pub use hashmap::PHashMap;
pub use list::PList;
pub use pvec::PVec;
pub use queue::PQueue;
pub use skiplist::PSkipList;
