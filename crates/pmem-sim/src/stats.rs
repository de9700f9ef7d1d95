//! Machine-wide event counters.
//!
//! Counters are relaxed atomics updated on the access fast paths; they feed
//! the paper's secondary measurements (flush/fence counts, writeback
//! volume, WPQ stalls) and many shape assertions in tests.
//!
//! The table below is the one place a machine counter is declared: rows
//! are in the order the `--json` report's `mem` block emits them, and
//! every row is an event count or a stall total, so all are `Sum` (see
//! [`trace::counters!`]).

use std::sync::atomic::{AtomicU64, Ordering};

trace::counters! {
    /// Live counters (shared, relaxed).
    live MachineStats;
    /// A plain-value snapshot of [`MachineStats`].
    snapshot StatsSnapshot;

    loads: Sum, Always;
    stores: Sum, Always;
    l3_hits: Sum, Always;
    l3_misses: Sum, Always;
    clwbs: Sum, Always;
    /// `clwb`s that actually wrote a dirty line back.
    clwb_writebacks: Sum, Always;
    /// Batched flush drains issued via `clwb_batch`.
    clwb_batches: Sum, Always;
    sfences: Sum, Always;
    /// Dirty lines displaced by capacity/conflict evictions.
    evictions: Sum, Always;
    /// Lines written to Optane media (flushes + evictions + PDRAM writeback).
    optane_lines_written: Sum, Always;
    /// Lines written to DRAM.
    dram_lines_written: Sum, Always;
    /// Virtual ns spent stalled on a full WPQ / writeback backlog
    /// (Optane write path only).
    wpq_stall_ns: Sum, Always;
    /// Virtual ns spent stalled on DRAM write-server backlog (e.g. L3
    /// victims of DRAM-backed or PDRAM-accelerated pools). Kept apart
    /// from `wpq_stall_ns` so the WPQ counter means exactly "Optane
    /// write-pending-queue pressure", the paper's saturation signal.
    dram_write_stall_ns: Sum, Always;
    /// Virtual ns spent waiting in `sfence` for outstanding flushes.
    fence_wait_ns: Sum, Always;
}

impl MachineStats {
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = MachineStats::new();
        MachineStats::bump(&s.loads, 3);
        MachineStats::bump(&s.sfences, 1);
        let snap = s.snapshot();
        assert_eq!(snap.loads, 3);
        assert_eq!(snap.sfences, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    /// A reset between snapshots used to underflow-panic `delta_since`.
    #[test]
    fn delta_saturates_across_reset() {
        let s = MachineStats::new();
        MachineStats::bump(&s.stores, 10);
        let a = s.snapshot();
        s.reset();
        let d = s.snapshot().delta_since(&a);
        assert_eq!(d.stores, 0);
        assert_eq!(d, StatsSnapshot::default());
    }

    #[test]
    fn delta_subtracts() {
        let s = MachineStats::new();
        MachineStats::bump(&s.stores, 10);
        let a = s.snapshot();
        MachineStats::bump(&s.stores, 5);
        let b = s.snapshot();
        assert_eq!(b.delta_since(&a).stores, 5);
    }
}
