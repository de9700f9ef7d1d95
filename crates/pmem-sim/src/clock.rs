//! Per-thread virtual clocks with bounded-lag coordination.
//!
//! Every simulated memory operation advances the issuing thread's *virtual*
//! clock by the operation's modeled latency. Threads run on real OS threads,
//! but a thread whose virtual clock runs more than a window ahead of the
//! slowest still-active thread yields until the others catch up. This keeps
//! virtual time roughly aligned with real time, so that a lock held for a
//! long *virtual* interval (e.g. across ADR flushes and fences) is exposed
//! to other threads for a proportionally long *real* interval — which is
//! exactly the mechanism behind the paper's contention-window findings
//! (Tables I/II).
//!
//! The coordination is deliberately approximate: it trades strict
//! discrete-event ordering for scalability, which is the right trade for
//! reproducing throughput *shapes* rather than cycle-exact traces.
//!
//! A domain takes one of two windows:
//! * [`WINDOW_NS`] for every run with one OS thread per virtual thread.
//!   Throughput is flat from 0.5 to 8 µs at 4 threads
//!   (`tests/shape_checks.rs`'s `window_flatness`). At 32 threads on a
//!   2-core host, 0.5 and 2 µs move at most 1 of 77 `fig3 --quick`
//!   cells by more than 10 % against 1 µs, and 8 µs moves 25; total
//!   aborts fall as the window widens (549 k at 0.5 µs, 430 k at 8 µs);
//! * `u64::MAX` (no throttling) for *stepped* runs, where one OS thread
//!   alternates several virtual threads: a stepped thread a window ahead
//!   of its peer would spin forever, because its own OS thread is the one
//!   that has to step the peer. A lone virtual thread never throttles,
//!   whatever its window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The lag window of every run with one OS thread per virtual thread, in
/// virtual nanoseconds: about a fraction of one transaction's virtual
/// time.
pub const WINDOW_NS: u64 = 1_000;

/// Sentinel virtual time for a thread that has finished its run.
const DONE: u64 = u64::MAX;

/// A handle publishes (and maybe throttles) every `PUBLISH_MASK + 1`
/// advances.
const PUBLISH_MASK: u32 = 0x3f;

/// Yield iterations [`ClockDomain::freeze`] tolerates before concluding
/// the world will never stop and panicking with a per-slot dump. Threads
/// park within ~64 memory operations, so any legitimate wait is orders of
/// magnitude shorter; a thread blocked outside the simulator (a deadlock,
/// a forgotten `publish`/`finish`) is the only way to exhaust this.
const FREEZE_YIELD_BUDGET: u64 = 20_000_000;

/// Shared state for one virtual thread's clock. Written by its owner at
/// every publish and read by every throttling peer, so each slot gets its
/// own cache lines: one thread's publish must not invalidate the line a
/// peer's slot (or an adjacent-line prefetch pair) lives in.
#[derive(Debug)]
#[repr(align(128))]
pub struct ClockSlot {
    vt: AtomicU64,
    /// Final virtual time recorded when the thread finishes (the live
    /// `vt` becomes the DONE sentinel, but the makespan still needs the
    /// real value).
    final_vt: AtomicU64,
    /// Set while the thread is parked at a freeze point.
    parked: std::sync::atomic::AtomicBool,
    /// Mirror of the owner's crash-atomic nesting depth, so freeze-stall
    /// diagnostics can tell "never published" from "stuck inside an
    /// atomic section".
    deferred: std::sync::atomic::AtomicU32,
}

impl ClockSlot {
    fn new() -> Self {
        ClockSlot {
            vt: AtomicU64::new(0),
            final_vt: AtomicU64::new(0),
            parked: std::sync::atomic::AtomicBool::new(false),
            deferred: std::sync::atomic::AtomicU32::new(0),
        }
    }
}

/// The clock domain: one slot per registered virtual thread.
#[derive(Debug)]
pub struct ClockDomain {
    slots: Vec<Arc<ClockSlot>>,
    window_ns: u64,
    /// Stop-the-world flag: threads park at their next publish point.
    /// Used to make a concurrent crash snapshot instantaneous (a real
    /// power failure does not interleave with further execution).
    freeze: std::sync::atomic::AtomicBool,
}

impl ClockDomain {
    /// Create a domain with `n` virtual threads and the given lag window:
    /// [`WINDOW_NS`], or `u64::MAX` to disable throttling (see the module
    /// documentation).
    pub fn new(n: usize, window_ns: u64) -> Self {
        ClockDomain {
            slots: (0..n).map(|_| Arc::new(ClockSlot::new())).collect(),
            window_ns,
            freeze: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Stop the world: every thread parks at its next publish point
    /// (within ~64 memory operations). Blocks until all threads are
    /// parked or finished. Call [`ClockDomain::thaw`] to resume.
    ///
    /// # Panics
    /// Panics with a per-slot diagnostic dump if some thread never
    /// reaches a publish point within a large yield budget — a silent
    /// infinite spin here turned harness hangs into undebuggable
    /// timeouts.
    pub fn freeze(&self) {
        self.freeze_with_budget(FREEZE_YIELD_BUDGET);
    }

    /// [`ClockDomain::freeze`] with an explicit yield budget (exposed so
    /// tests can exercise the stall diagnostics quickly).
    pub fn freeze_with_budget(&self, budget: u64) {
        use std::sync::atomic::Ordering as O;
        self.freeze.store(true, O::SeqCst);
        let mut spins = 0u64;
        loop {
            let all_stopped = self
                .slots
                .iter()
                .all(|s| s.parked.load(O::SeqCst) || s.vt.load(O::SeqCst) == DONE);
            if all_stopped {
                return;
            }
            spins += 1;
            if spins > budget {
                // Un-freeze so parked peers are released even if this
                // panic is caught; then report which slot is stuck.
                self.freeze.store(false, O::SeqCst);
                panic!(
                    "ClockDomain::freeze stalled after {budget} yields; \
                     some thread never reached a publish point\n{}",
                    self.dump_slots()
                );
            }
            std::thread::yield_now();
        }
    }

    /// Human-readable per-slot state, for stall diagnostics.
    fn dump_slots(&self) -> String {
        use std::sync::atomic::Ordering as O;
        let mut out = String::new();
        for (i, s) in self.slots.iter().enumerate() {
            let vt = s.vt.load(O::SeqCst);
            let vt = if vt == DONE {
                "DONE".to_string()
            } else {
                vt.to_string()
            };
            out.push_str(&format!(
                "  slot {i}: vt={vt} parked={} deferred={} final_vt={}\n",
                s.parked.load(O::SeqCst),
                s.deferred.load(O::SeqCst),
                s.final_vt.load(O::SeqCst),
            ));
        }
        out
    }

    /// Resume after a [`ClockDomain::freeze`].
    pub fn thaw(&self) {
        self.freeze
            .store(false, std::sync::atomic::Ordering::SeqCst);
    }

    /// Number of registered virtual threads.
    pub fn threads(&self) -> usize {
        self.slots.len()
    }

    /// Obtain a handle for virtual thread `tid`.
    ///
    /// # Panics
    /// Panics if `tid` is out of range.
    pub fn handle(self: &Arc<Self>, tid: usize) -> ClockHandle {
        assert!(tid < self.slots.len(), "thread id {tid} out of range");
        ClockHandle {
            slot: Arc::clone(&self.slots[tid]),
            domain: Arc::clone(self),
            local_vt: 0,
            limit: if self.throttles() {
                self.window_ns
            } else {
                u64::MAX
            },
            ops_since_publish: 0,
            defer_park: 0,
        }
    }

    /// Whether threads of this domain ever wait for each other: a lone
    /// thread has no peer to lag behind, and an unbounded window admits
    /// any lag.
    fn throttles(&self) -> bool {
        self.window_ns != u64::MAX && self.slots.len() > 1
    }

    /// The minimum published virtual time over active threads; `DONE`
    /// when every thread has finished.
    fn min_time(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.vt.load(Ordering::Acquire))
            .min()
            .unwrap_or(DONE)
    }

    /// The largest virtual time any thread has reached (the simulation's
    /// makespan once all threads are done).
    pub fn max_time(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                let v = s.vt.load(Ordering::Acquire);
                let f = s.final_vt.load(Ordering::Acquire);
                if v == DONE {
                    f
                } else {
                    v.max(f)
                }
            })
            .max()
            .unwrap_or(0)
    }
}

/// A per-thread handle: owns a fast local clock, periodically published to
/// the shared slot for lag coordination.
pub struct ClockHandle {
    slot: Arc<ClockSlot>,
    domain: Arc<ClockDomain>,
    local_vt: u64,
    /// The virtual time up to which this thread may run before it must
    /// look at its peers again: the minimum it computed at its last
    /// throttle check plus the window (`u64::MAX` where the domain never
    /// throttles). Handle-local, so [`Self::advance`] reads nothing
    /// another thread writes; a stale value is conservative, because
    /// peers' clocks only move forward.
    limit: u64,
    ops_since_publish: u32,
    /// While > 0, the handle neither parks for a freeze nor throttles:
    /// the thread is inside a crash-atomic section (e.g. an HTM commit's
    /// write application) that a power failure must not split.
    defer_park: u32,
}

impl ClockHandle {
    /// Current virtual time of this thread, in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.local_vt
    }

    /// Advance this thread's virtual clock by `ns`, throttling if the
    /// thread has run too far ahead of the slowest active peer.
    #[inline]
    pub fn advance(&mut self, ns: u64) {
        self.local_vt += ns;
        self.ops_since_publish = self.ops_since_publish.wrapping_add(1);
        // Publish either periodically or when we may have crossed the
        // window relative to the minimum last seen.
        if self.ops_since_publish & PUBLISH_MASK == 0 || self.local_vt > self.limit {
            self.publish_and_throttle();
        }
    }

    /// Set the clock forward to at least `target` (used for stalls that
    /// wait on shared servers). No-op if `target` is in the past.
    #[inline]
    pub fn advance_to(&mut self, target: u64) {
        if target > self.local_vt {
            let delta = target - self.local_vt;
            self.advance(delta);
        }
    }

    /// Park at a freeze point if a stop-the-world is in progress.
    #[cold]
    fn maybe_park(&self) {
        use std::sync::atomic::Ordering as O;
        if self.domain.freeze.load(O::Relaxed) {
            self.slot.parked.store(true, O::SeqCst);
            while self.domain.freeze.load(O::SeqCst) {
                std::thread::yield_now();
            }
            self.slot.parked.store(false, O::SeqCst);
        }
    }

    #[cold]
    fn publish_and_throttle(&mut self) {
        self.slot.vt.store(self.local_vt, Ordering::Release);
        self.ops_since_publish = 0;
        if self.defer_park > 0 {
            // Crash-atomic section: no parking, no throttling (a frozen
            // peer would never advance the minimum, and the freeze itself
            // is waiting for us to reach a park point *after* the
            // section).
            return;
        }
        self.maybe_park();
        if !self.domain.throttles() {
            return;
        }
        loop {
            // Decide on a freshly computed minimum, never on the stale
            // `limit`. (`DONE` — nobody left to wait for — saturates.)
            self.limit = self.domain.min_time().saturating_add(self.domain.window_ns);
            if self.local_vt <= self.limit {
                break;
            }
            // A freeze can arrive while we are waiting here; without this
            // check the parked peers never advance the minimum and both
            // this loop and the freeze would wait forever.
            self.maybe_park();
            std::thread::yield_now();
        }
    }

    /// Enter a crash-atomic section: until the matching
    /// [`ClockHandle::exit_atomic`], this thread will not park at a
    /// freeze point (a simulated power failure cannot split the section).
    /// Nestable. Keep sections short — the world-stop waits them out.
    pub fn enter_atomic(&mut self) {
        self.defer_park += 1;
        self.slot.deferred.store(self.defer_park, Ordering::Release);
    }

    /// Leave a crash-atomic section (parks immediately if a freeze is
    /// pending).
    pub fn exit_atomic(&mut self) {
        debug_assert!(self.defer_park > 0);
        self.defer_park -= 1;
        self.slot.deferred.store(self.defer_park, Ordering::Release);
        if self.defer_park == 0 {
            self.maybe_park();
        }
    }

    /// Whether this thread is inside a crash-atomic section (a simulated
    /// power failure must not land here).
    #[inline]
    pub fn in_atomic(&self) -> bool {
        self.defer_park > 0
    }

    /// Mark this virtual thread finished: it no longer constrains others.
    pub fn finish(&mut self) {
        self.slot
            .final_vt
            .fetch_max(self.local_vt, Ordering::AcqRel);
        self.slot.vt.store(DONE, Ordering::Release);
    }

    /// Explicitly publish the local clock (e.g. before blocking on
    /// application-level synchronization) so peers are not held back.
    /// Also a freeze safe-point: a thread that publishes manually on every
    /// iteration (e.g. a backoff loop) would otherwise never reach the
    /// batch-counter publish path and never park, deadlocking
    /// [`ClockDomain::freeze`] against itself.
    pub fn publish(&mut self) {
        self.slot.vt.store(self.local_vt, Ordering::Release);
        self.ops_since_publish = 0;
        self.maybe_park();
    }
}

impl Drop for ClockHandle {
    fn drop(&mut self) {
        // A dropped handle must not stall the rest of the simulation, but
        // its elapsed time still counts toward the makespan.
        self.slot
            .final_vt
            .fetch_max(self.local_vt, Ordering::AcqRel);
        self.slot.vt.store(DONE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_never_throttles() {
        let d = Arc::new(ClockDomain::new(1, 100));
        let mut h = d.handle(0);
        for _ in 0..10_000 {
            h.advance(50);
        }
        assert_eq!(h.now(), 500_000);
    }

    /// A lone thread has no peer to throttle against, so a finite window
    /// must not push it onto the publish path: its slot moves once per
    /// 64-advance batch, however far past the window it runs.
    #[test]
    fn lone_thread_with_a_finite_window_publishes_once_per_batch() {
        let d = Arc::new(ClockDomain::new(1, 1_000));
        let mut h = d.handle(0);
        let mut publishes = 0;
        let mut last = d.slots[0].vt.load(Ordering::Acquire);
        for _ in 0..64 * 100 {
            h.advance(50);
            let vt = d.slots[0].vt.load(Ordering::Acquire);
            if vt != last {
                assert_eq!(vt, h.now(), "a publish stores the current time");
                publishes += 1;
                last = vt;
            }
        }
        assert_eq!(h.now(), 64 * 100 * 50, "far past the window");
        assert_eq!(publishes, 100);
    }

    #[test]
    fn advance_to_is_monotone() {
        let d = Arc::new(ClockDomain::new(1, u64::MAX));
        let mut h = d.handle(0);
        h.advance(100);
        h.advance_to(50); // past: no-op
        assert_eq!(h.now(), 100);
        h.advance_to(250);
        assert_eq!(h.now(), 250);
    }

    #[test]
    fn finished_threads_do_not_block_others() {
        let d = Arc::new(ClockDomain::new(2, 10));
        let mut a = d.handle(0);
        let mut b = d.handle(1);
        b.finish();
        // With b done, a may run arbitrarily far ahead without blocking.
        for _ in 0..1000 {
            a.advance(1_000);
        }
        assert_eq!(a.now(), 1_000_000);
    }

    /// The contract of a stepped run: with an unbounded window, one OS
    /// thread may carry a handle far past a live peer that stays at 0 —
    /// the peer only moves when this same thread steps it.
    #[test]
    fn unbounded_domain_lets_a_stepped_thread_run_past_a_live_peer() {
        let d = Arc::new(ClockDomain::new(2, u64::MAX));
        let mut a = d.handle(0);
        let mut b = d.handle(1);
        b.publish();
        for _ in 0..1_000 {
            a.advance(1_000);
        }
        a.publish();
        assert_eq!(a.now(), 1_000_000, "1 ms ahead");
        assert_eq!(b.now(), 0);
        assert_eq!(d.min_time(), 0, "the peer is live, at 0");
    }

    #[test]
    fn two_threads_stay_within_window() {
        let d = Arc::new(ClockDomain::new(2, WINDOW_NS));
        let d2 = Arc::clone(&d);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut h = d2.handle(1);
                for _ in 0..50_000 {
                    h.advance(10);
                }
                h.finish();
            });
            let mut h = d.handle(0);
            for _ in 0..50_000 {
                h.advance(10);
                // Every publish point, check the invariant loosely: we can
                // read the peer's published time and must not be more than
                // window + one publish-batch ahead of it.
                let peer = d.slots[1].vt.load(Ordering::Acquire);
                if peer != DONE {
                    let slack = d.window_ns + 64 * 10 + 10;
                    assert!(
                        h.now() <= peer.saturating_add(slack),
                        "ran ahead: self={} peer={}",
                        h.now(),
                        peer
                    );
                }
            }
            h.finish();
        });
    }

    #[test]
    fn max_time_reports_makespan() {
        let d = Arc::new(ClockDomain::new(2, u64::MAX));
        let mut a = d.handle(0);
        let mut b = d.handle(1);
        a.advance(500);
        a.publish();
        b.advance(900);
        b.publish();
        assert_eq!(d.max_time(), 900);
    }

    #[test]
    fn dropped_handle_releases_peers() {
        let d = Arc::new(ClockDomain::new(2, 10));
        {
            let _h = d.handle(1);
        } // dropped immediately
        let mut a = d.handle(0);
        for _ in 0..1000 {
            a.advance(100);
        }
        assert_eq!(a.now(), 100_000);
    }
}

#[cfg(test)]
mod freeze_tests {
    use super::*;

    #[test]
    fn freeze_blocks_until_all_park_and_thaw_releases() {
        let d = Arc::new(ClockDomain::new(2, u64::MAX));
        let d2 = Arc::clone(&d);
        let progressed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let p2 = Arc::clone(&progressed);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut h = d2.handle(1);
                while !s2.load(std::sync::atomic::Ordering::Relaxed) {
                    h.advance(10);
                    p2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                h.finish();
            });
            let mut h0 = d.handle(0);
            h0.finish(); // main's slot must not block the freeze
            d.freeze();
            // World stopped: the worker makes (almost) no progress while
            // frozen — allow the <=64-op publish batch in flight.
            let at_freeze = progressed.load(std::sync::atomic::Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            let later = progressed.load(std::sync::atomic::Ordering::SeqCst);
            assert!(
                later - at_freeze <= 64,
                "worker ran while frozen: {}",
                later - at_freeze
            );
            d.thaw();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // After the scope, the worker resumed and exited: progress resumed.
        assert!(progressed.load(std::sync::atomic::Ordering::SeqCst) > 0);
    }

    #[test]
    fn stalled_freeze_panics_with_slot_dump() {
        // Slot 1's thread never publishes or finishes: before the yield
        // budget, freeze() would spin forever with no diagnostics.
        let d = Arc::new(ClockDomain::new(2, u64::MAX));
        let mut h0 = d.handle(0);
        h0.finish();
        let _h1 = d.handle(1); // alive, never parks
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.freeze_with_budget(5_000)))
                .expect_err("freeze must give up");
        let msg = err.downcast_ref::<String>().expect("panic message").clone();
        assert!(msg.contains("freeze stalled"), "got: {msg}");
        assert!(msg.contains("slot 0: vt=DONE"), "got: {msg}");
        assert!(msg.contains("slot 1: vt=0 parked=false"), "got: {msg}");
        // The failed freeze must not leave the world frozen.
        assert!(!d.freeze.load(Ordering::SeqCst));
    }

    #[test]
    fn slot_mirrors_atomic_section_depth() {
        let d = Arc::new(ClockDomain::new(1, u64::MAX));
        let mut h = d.handle(0);
        assert!(!h.in_atomic());
        h.enter_atomic();
        h.enter_atomic();
        assert!(h.in_atomic());
        assert_eq!(d.slots[0].deferred.load(Ordering::SeqCst), 2);
        h.exit_atomic();
        h.exit_atomic();
        assert!(!h.in_atomic());
        assert_eq!(d.slots[0].deferred.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn freeze_returns_immediately_when_all_done() {
        let d = Arc::new(ClockDomain::new(3, 100));
        for tid in 0..3 {
            let mut h = d.handle(tid);
            h.advance(5);
            h.finish();
        }
        d.freeze(); // must not hang
        d.thaw();
    }
}
