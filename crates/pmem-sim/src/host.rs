//! Hints to the *host* processor running the simulator. Nothing here is
//! part of the modelled machine: no virtual time, no counter, no crash
//! site, no trace event.

/// Ask the host to start pulling the cache line holding `target` toward
/// L1 without waiting for it. A no-op on targets without the
/// instruction.
///
/// Exists because the simulator's own tables (orecs, L3 tags, pool
/// words) are far larger than a host L2 and are reached between locked
/// read-modify-writes, which stop the host from starting a later load
/// early: a miss there is paid in full unless it was requested before
/// the locked operation (DESIGN.md §5 decision 17). A plain load cannot
/// stand in — it must complete to retire.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch<T>(target: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64 target
    // has; the pointer comes from a live reference, and a prefetch
    // neither faults nor reads or writes memory architecturally.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(target).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}
