//! Deterministic crash-site injection.
//!
//! Randomized crash testing (freeze at an arbitrary real-time point, as
//! `tests/crash_bank.rs` does) samples the space of failure points; it
//! cannot *enumerate* it. This module adds the missing systematic tool, in the
//! spirit of pmemcheck-style crash-point injection: every
//! persistence-relevant event in a run — timed store, `clwb`, `sfence`,
//! dirty-line eviction, WPQ acceptance, recovery persist — is a numbered
//! **crash site**, and a [`CrashInjector`] armed on the [`crate::Machine`]
//! triggers a simulated power failure immediately *before* the N-th site
//! executes.
//!
//! The trigger captures the crash image synchronously at the site (so
//! unwinding cannot smear the surviving state) and then raises a panic
//! with a [`SimulatedCrash`] payload, which harnesses catch with
//! [`catch_simulated_crash`]. Armed with the same `(site, policy, seed)`
//! triple, a run replays the exact same crash — which is what makes a
//! failing site a minimal, deterministic reproducer.
//!
//! Sites inside a crash-atomic section (see
//! [`crate::clock::ClockHandle::enter_atomic`]) are counted but never
//! fired at; like [`crate::Machine::freeze`], the failure lands at the
//! first eligible site at or after the requested index.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

use crate::crash::{AdversaryPolicy, CrashImage};

/// The kind of persistence-relevant event at a crash site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A timed 64-bit store (or CAS) becoming cache-visible.
    Store,
    /// A `clwb` issuing (snapshot + writeback initiation).
    Clwb,
    /// An `sfence` committing this thread's outstanding flushes.
    Sfence,
    /// A dirty L3 line displaced toward the media.
    Eviction,
    /// The WPQ accepting a flushed line (the ADR durability point).
    WpqAccept,
    /// An untimed persist performed by post-crash recovery code
    /// (log replay/rollback, truncation, state transitions).
    RecoveryPersist,
}

impl SiteKind {
    /// Short label for reproducer lines.
    pub fn label(self) -> &'static str {
        match self {
            SiteKind::Store => "store",
            SiteKind::Clwb => "clwb",
            SiteKind::Sfence => "sfence",
            SiteKind::Eviction => "evict",
            SiteKind::WpqAccept => "wpq-accept",
            SiteKind::RecoveryPersist => "recovery-persist",
        }
    }
}

/// Panic payload used to unwind out of a run when an injected crash
/// fires. Never constructed by application code.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedCrash;

/// What an injector captured when it fired.
#[derive(Debug)]
pub struct FiredCrash {
    /// The surviving memory image, captured synchronously at the site.
    pub image: CrashImage,
    /// The site index the crash actually landed on (== the armed index
    /// unless atomic sections deferred it).
    pub site: u64,
    /// The event kind at that site.
    pub kind: SiteKind,
}

/// A crash trigger armed on a machine via
/// [`crate::Machine::arm_injector`].
///
/// Counting is process-global per injector and thread-safe; deterministic
/// site→state mapping additionally requires the instrumented run itself
/// to be deterministic (single virtual thread, fixed seeds).
#[derive(Debug)]
pub struct CrashInjector {
    /// Fire immediately before the site with this index (0-based).
    /// `u64::MAX` means count-only (dry run).
    trigger_at: u64,
    policy: AdversaryPolicy,
    crash_seed: u64,
    count: AtomicU64,
    fired: AtomicBool,
    outcome: Mutex<Option<FiredCrash>>,
}

impl CrashInjector {
    /// A dry-run injector: counts sites, never fires.
    pub fn count_only() -> Arc<CrashInjector> {
        Self::at_site(u64::MAX, AdversaryPolicy::default(), 0)
    }

    /// An injector that fires just before site `site` executes, building
    /// the failure image with `policy` and `crash_seed`.
    pub fn at_site(site: u64, policy: AdversaryPolicy, crash_seed: u64) -> Arc<CrashInjector> {
        Arc::new(CrashInjector {
            trigger_at: site,
            policy,
            crash_seed,
            count: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            outcome: Mutex::new(None),
        })
    }

    /// The adversary policy the failure image will be built with.
    pub fn policy(&self) -> AdversaryPolicy {
        self.policy
    }

    /// The seed driving the failure image's adversarial choices.
    pub fn crash_seed(&self) -> u64 {
        self.crash_seed
    }

    /// Number of sites observed so far (the dry-run result).
    pub fn sites_counted(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Whether the trigger fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Take the captured crash, if the trigger fired.
    pub fn take_outcome(&self) -> Option<FiredCrash> {
        self.outcome.lock().unwrap().take()
    }

    /// Observe one site; called by the machine's instrumentation hooks.
    /// Fires (captures an image of `machine` and panics with
    /// [`SimulatedCrash`]) when the armed site is reached outside a
    /// crash-atomic section.
    pub(crate) fn note(&self, machine: &crate::Machine, kind: SiteKind, in_atomic: bool) {
        let idx = self.count.fetch_add(1, Ordering::AcqRel);
        if idx < self.trigger_at || in_atomic || self.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        // Capture the image *here*, before any unwinding runs drop glue
        // that could keep mutating simulated memory.
        let image = machine.crash_with(self.crash_seed, self.policy);
        *self.outcome.lock().unwrap() = Some(FiredCrash {
            image,
            site: idx,
            kind,
        });
        std::panic::panic_any(SimulatedCrash);
    }
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for [`SimulatedCrash`] panics — a crash-site
/// sweep fires hundreds of them by design — while delegating every other
/// panic to the previous hook.
pub fn silence_simulated_crash_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimulatedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Run `f`, converting a [`SimulatedCrash`] panic into `Err(SimulatedCrash)`.
/// Any other panic is propagated unchanged.
pub fn catch_simulated_crash<R>(f: impl FnOnce() -> R) -> Result<R, SimulatedCrash> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast_ref::<SimulatedCrash>() {
            Some(_) => Err(SimulatedCrash),
            None => std::panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::pool::MediaKind;
    use crate::DurabilityDomain as DD;

    fn machine() -> Arc<Machine> {
        Machine::new(MachineConfig::functional(DD::Adr))
    }

    #[test]
    fn dry_run_counts_every_event_kind() {
        let m = machine();
        let p = m.alloc_pool("h", 256, MediaKind::Optane);
        let inj = CrashInjector::count_only();
        m.arm_injector(Arc::clone(&inj));
        let mut s = m.session(0);
        s.store(p.addr(0), 1); // Store
        s.clwb(p.addr(0)); // Clwb + WpqAccept
        s.sfence(); // Sfence
        m.disarm_injector();
        assert_eq!(inj.sites_counted(), 4);
        assert!(!inj.fired());
    }

    #[test]
    fn fires_exactly_before_the_armed_site() {
        // Sites: store(0)=Store#0, store(1)=Store#1, store(2)=Store#2.
        // Arming site 2 must crash before the third store executes.
        let m = machine();
        let p = m.alloc_pool("h", 256, MediaKind::Optane);
        let inj = CrashInjector::at_site(2, AdversaryPolicy::AllNew, 7);
        m.arm_injector(Arc::clone(&inj));
        let crashed = catch_simulated_crash(|| {
            let mut s = m.session(0);
            s.store(p.addr(0), 10);
            s.store(p.addr(1), 11);
            s.store(p.addr(2), 12); // never executes
            s.store(p.addr(3), 13);
        });
        m.disarm_injector();
        assert!(crashed.is_err());
        let fired = inj.take_outcome().expect("must have fired");
        assert_eq!(fired.site, 2);
        assert_eq!(fired.kind, SiteKind::Store);
        let words = &fired.image.pools[0].words;
        assert_eq!(words[0], 10, "first store is in the image (AllNew)");
        assert_eq!(words[1], 11, "second store is in the image (AllNew)");
        assert_eq!(words[2], 0, "third store must not have executed");
    }

    #[test]
    fn replay_is_deterministic() {
        let run = |site: u64| {
            let m = machine();
            let p = m.alloc_pool("h", 256, MediaKind::Optane);
            let inj = CrashInjector::at_site(site, AdversaryPolicy::Biased(0.5), 99);
            m.arm_injector(Arc::clone(&inj));
            let _ = catch_simulated_crash(|| {
                let mut s = m.session(0);
                for i in 0..16u64 {
                    s.store(p.addr(i), i + 100);
                    s.clwb(p.addr(i));
                }
                s.sfence();
            });
            m.disarm_injector();
            inj.take_outcome().expect("fired").image.pools[0]
                .words
                .clone()
        };
        assert_eq!(run(17), run(17));
    }

    #[test]
    fn atomic_sections_defer_the_crash() {
        let m = machine();
        let p = m.alloc_pool("h", 256, MediaKind::Optane);
        let inj = CrashInjector::at_site(1, AdversaryPolicy::AllNew, 0);
        m.arm_injector(Arc::clone(&inj));
        let crashed = catch_simulated_crash(|| {
            let mut s = m.session(0);
            s.enter_atomic();
            s.store(p.addr(0), 1); // site 0
            s.store(p.addr(1), 2); // site 1: armed, but atomic — deferred
            s.store(p.addr(2), 3); // site 2: still atomic
            s.exit_atomic();
            s.store(p.addr(3), 4); // site 3: first eligible — fires here
            s.store(p.addr(4), 5);
        });
        m.disarm_injector();
        assert!(crashed.is_err());
        let fired = inj.take_outcome().expect("fired");
        assert_eq!(fired.site, 3, "crash must land after the atomic section");
        let words = &fired.image.pools[0].words;
        assert_eq!(words[2], 3, "stores inside the section are not split");
        assert_eq!(words[3], 0);
    }

    #[test]
    fn unfired_injector_leaves_the_run_untouched() {
        let m = machine();
        let p = m.alloc_pool("h", 64, MediaKind::Optane);
        let inj = CrashInjector::at_site(1_000, AdversaryPolicy::AllOld, 0);
        m.arm_injector(Arc::clone(&inj));
        let done = catch_simulated_crash(|| {
            let mut s = m.session(0);
            s.store(p.addr(0), 5);
            s.load(p.addr(0))
        });
        m.disarm_injector();
        assert_eq!(done.unwrap(), 5);
        assert!(!inj.fired());
        assert_eq!(inj.sites_counted(), 1, "loads are not persistence sites");
    }

    #[test]
    fn other_panics_pass_through() {
        let r = std::panic::catch_unwind(|| catch_simulated_crash(|| panic!("real bug")));
        assert!(r.is_err(), "non-crash panics must propagate");
    }
}
