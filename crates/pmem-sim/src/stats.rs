//! Machine-wide event counters, kept as one shard per session.
//!
//! Counters feed the paper's secondary measurements (flush/fence counts,
//! writeback volume, WPQ stalls) and many shape assertions in tests, and
//! they are bumped on every simulated access. So that a bump costs no
//! locked read-modify-write and touches no line another thread writes,
//! each [`crate::MemSession`] owns one cache-line-aligned [`StatsShard`]
//! and is its only writer ([`bump`] is a plain load + store).
//! [`MachineStats`] is the registry that makes the shards read as one
//! machine: a snapshot is *retired sessions' totals + Σ live shards −
//! reset baseline*.
//!
//! The table below is the one place a machine counter is declared: rows
//! are in the order the `--json` report's `mem` block emits them, and
//! every row is an event count or a stall total, so all are `Sum` (see
//! [`trace::counters!`]). The bandwidth servers' out-of-order counters
//! are emitted only when nonzero, as no 1-thread run has any.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

trace::counters! {
    /// One session's counters: written only by the owning session, read
    /// (relaxed) by [`MachineStats::snapshot`]. Aligned so two sessions'
    /// shards never share a cache line (or an adjacent-line prefetch pair).
    #[repr(align(128))]
    live StatsShard;
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
    /// Bandwidth-server requests that arrived behind their server's
    /// current busy period and were placed in the idle time before it.
    bw_late: Sum, NonZero;
    /// Late requests older than their server remembers, served in order
    /// at the tail instead (see `bandwidth`); every bench expects zero.
    bw_horizon_misses: Sum, NonZero;
}

/// Add `n` to a counter of the calling session's own shard. The session
/// is the shard's single writer, so this is a plain load + store, not an
/// atomic read-modify-write.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

#[derive(Debug, Default)]
struct Registry {
    /// Shards of the sessions currently alive.
    live: Vec<Arc<StatsShard>>,
    /// Totals folded in from sessions that have dropped.
    retired: StatsSnapshot,
    /// Raw totals at the last [`MachineStats::reset`].
    baseline: StatsSnapshot,
}

impl Registry {
    fn raw_total(&self) -> StatsSnapshot {
        let mut total = self.retired;
        for shard in &self.live {
            total.merge(&shard.snapshot());
        }
        total
    }
}

/// The machine's counters: a registry of per-session shards.
#[derive(Debug, Default)]
pub struct MachineStats {
    registry: Mutex<Registry>,
}

impl MachineStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update below leaves the registry valid at each step, so a
    /// poisoned lock is recovered (sessions retire their shards in `Drop`,
    /// possibly while a simulated crash unwinds).
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand a new session its shard.
    pub(crate) fn register(&self) -> Arc<StatsShard> {
        let shard = Arc::new(StatsShard::new());
        self.lock().live.push(Arc::clone(&shard));
        shard
    }

    /// Fold a dropping session's shard into the retired totals.
    pub(crate) fn retire(&self, shard: &Arc<StatsShard>) {
        let mut reg = self.lock();
        reg.live.retain(|s| !Arc::ptr_eq(s, shard));
        reg.retired.merge(&shard.snapshot());
    }

    /// Capture the current values. With sessions running, each counter
    /// is read at a slightly different instant; every counter is monotone,
    /// so such a snapshot is bounded by any later one.
    pub fn snapshot(&self) -> StatsSnapshot {
        let reg = self.lock();
        reg.raw_total().delta_since(&reg.baseline)
    }

    /// Zero every counter (between benchmark phases). Records a baseline
    /// instead of writing into shards their sessions own, so it is safe —
    /// and loses no later count — with sessions alive.
    pub fn reset(&self) {
        let mut reg = self.lock();
        reg.baseline = reg.raw_total();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig, MediaKind};

    #[test]
    fn snapshot_and_reset() {
        let s = MachineStats::new();
        let shard = s.register();
        bump(&shard.loads, 3);
        bump(&shard.sfences, 1);
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
        let shard = s.register();
        bump(&shard.stores, 10);
        let a = s.snapshot();
        s.reset();
        let d = s.snapshot().delta_since(&a);
        assert_eq!(d.stores, 0);
        assert_eq!(d, StatsSnapshot::default());
    }

    #[test]
    fn delta_subtracts() {
        let s = MachineStats::new();
        let shard = s.register();
        bump(&shard.stores, 10);
        let a = s.snapshot();
        bump(&shard.stores, 5);
        let b = s.snapshot();
        assert_eq!(b.delta_since(&a).stores, 5);
    }

    /// No count is lost to a race: every thread bumps only its own shard,
    /// and the shards add up to the exact totals once the threads join.
    #[test]
    fn concurrent_sessions_add_up_exactly() {
        const THREADS: usize = 4;
        const OPS: u64 = 20_000;
        let m = Machine::new(MachineConfig::default());
        let p = m.alloc_pool("h", 1 << 10, MediaKind::Optane);
        m.begin_run(THREADS, u64::MAX);
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let (m, p) = (&m, &p);
                scope.spawn(move || {
                    let mut s = m.session(tid);
                    for i in 0..OPS {
                        s.store(p.addr(tid as u64 * 64 + i % 64), i);
                        s.load(p.addr(i % 512));
                    }
                });
            }
        });
        let st = m.stats.snapshot();
        assert_eq!(st.stores, THREADS as u64 * OPS);
        assert_eq!(st.loads, THREADS as u64 * OPS);
        assert_eq!(st.l3_hits + st.l3_misses, 2 * THREADS as u64 * OPS);
    }

    /// Snapshots taken while a session is running never go backwards and
    /// never exceed the final one.
    #[test]
    fn live_snapshots_are_monotone_and_bounded_by_the_final_one() {
        const OPS: u64 = 200_000;
        let m = Machine::new(MachineConfig::default());
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut prev = StatsSnapshot::default();
        let mut advance_to = |next: StatsSnapshot| {
            for (a, b) in prev.fields().iter().zip(next.fields()) {
                assert!(a.value <= b.value, "{} went backwards", a.name);
            }
            prev = next;
        };
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut s = m.session(0);
                for i in 0..OPS {
                    s.store(p.addr(i % 64), i);
                }
            });
            while !worker.is_finished() {
                advance_to(m.stats.snapshot());
            }
        });
        let last = m.stats.snapshot();
        assert_eq!(last.stores, OPS);
        advance_to(last);
    }

    #[test]
    fn a_dropped_sessions_counts_survive_it() {
        let m = Machine::new(MachineConfig::default());
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        {
            let mut s = m.session(0);
            for i in 0..7 {
                s.store(p.addr(i), i);
            }
            assert_eq!(m.stats.snapshot().stores, 7, "visible while alive");
        }
        assert_eq!(m.stats.snapshot().stores, 7, "and after the drop");
        let mut s = m.session(0);
        s.store(p.addr(0), 1);
        assert_eq!(m.stats.snapshot().stores, 8);
    }

    /// `reset` must not write into a shard its session owns: a live
    /// session's next bump would otherwise resurrect the old count (a
    /// plain load + store carries no atomicity against a foreign store).
    #[test]
    fn reset_with_a_live_session_counts_only_what_follows() {
        let m = Machine::new(MachineConfig::default());
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let mut s = m.session(0);
        for i in 0..100 {
            s.store(p.addr(i % 64), i);
        }
        m.stats.reset();
        assert_eq!(m.stats.snapshot(), StatsSnapshot::default());
        for i in 0..5 {
            s.load(p.addr(i));
        }
        drop(s);
        let st = m.stats.snapshot();
        assert_eq!((st.loads, st.stores), (5, 0));
    }
}
