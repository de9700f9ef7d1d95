//! The simulator's two doors to the *host*: hints to the processor and
//! zeroed memory from the allocator. Nothing here is part of the modelled
//! machine: no virtual time, no counter, no crash site, no trace event.

use std::sync::atomic::AtomicU64;

/// `len` zeroed words from the allocator's zeroed path (`calloc`, or
/// fresh `mmap` pages), so a host page is paid for — faulted in, counted
/// in RSS — only when a word on it is first written.
///
/// Every table whose size the modelled machine decides (pool words,
/// durable shadows, tag arrays, orecs) is built here: a workload touches
/// a fraction of them, so set-up, peak memory and every reboot should
/// pay for that fraction, not for the modelled size (DESIGN.md §5
/// decision 19). Keep the element a plain
/// `AtomicU64`: for a type aligned past the allocator's minimum (a
/// `#[repr(align(64))]` line struct) std's zeroed path falls back to
/// allocate + `memset`, which silently touches everything again.
#[allow(unsafe_code)]
pub fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    // SAFETY: `AtomicU64` has the same size, alignment and bit validity
    // as `u64`, for which the all-zero bit pattern is the value 0; the
    // slice is initialised by the allocator's zeroing.
    unsafe { Box::<[AtomicU64]>::new_zeroed_slice(len).assume_init() }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn zeroed_words_are_zero_and_writable() {
        for len in [0, 1, 7, 4096] {
            let w = zeroed_words(len);
            assert_eq!(w.len(), len);
            assert!(w.iter().all(|x| x.load(Ordering::Relaxed) == 0));
            if let Some(last) = w.last() {
                last.store(u64::MAX, Ordering::Relaxed);
                assert_eq!(last.load(Ordering::Relaxed), u64::MAX);
            }
        }
    }
}
