//! The simulator's two doors to the *host*: hints to the processor and
//! zeroed memory from the allocator. Nothing here is part of the modelled
//! machine: no virtual time, no counter, no crash site, no trace event.

use std::ops::Deref;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, PoisonError};

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
///
/// A table of the same length that an earlier machine dropped is reused
/// instead (see [`Words`]), zeroed again word by word where it holds
/// data, so a process that rebuilds the same machine — repetitions of one
/// run, crash and reboot — pays its first touches once, not per machine.
#[allow(unsafe_code)]
pub fn zeroed_words(len: usize) -> Words {
    Words(reuse(len).unwrap_or_else(|| {
        // SAFETY: `AtomicU64` has the same size, alignment and bit
        // validity as `u64`, for which the all-zero bit pattern is the
        // value 0; the slice is initialised by the allocator's zeroing.
        unsafe { Box::<[AtomicU64]>::new_zeroed_slice(len).assume_init() }
    }))
}

/// Tables dropped by machines no longer alive, waiting for a machine of
/// the same shape.
static SPARE: Mutex<Vec<Box<[AtomicU64]>>> = Mutex::new(Vec::new());

/// A spare table of `len` words, zeroed again. Without one, the spares
/// belong to machines that are not being rebuilt, so their pages go back
/// to the allocator.
fn reuse(len: usize) -> Option<Box<[AtomicU64]>> {
    let mut table = {
        let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(i) = spare.iter().position(|t| t.len() == len) else {
            spare.clear();
            return None;
        };
        spare.remove(i)
    };
    clear(&mut table);
    Some(table)
}

/// Zero `table`, writing only the words that hold data: they sit on
/// resident pages, while a page no machine wrote is only read (the kernel
/// maps its shared zero page, which RSS does not count).
fn clear(table: &mut [AtomicU64]) {
    for chunk in table.chunks_mut(512) {
        if chunk.iter_mut().fold(0, |any, w| any | *w.get_mut()) != 0 {
            for w in chunk.iter_mut().map(AtomicU64::get_mut) {
                if *w != 0 {
                    *w = 0;
                }
            }
        }
    }
}

/// A table from [`zeroed_words`]. Dropped, it is kept for the next table
/// of its length rather than returned to the allocator: the pages a run
/// wrote stay resident, so rebuilding the same machine faults nothing in
/// and its first touches cost the same in every repetition.
#[derive(Debug)]
pub struct Words(Box<[AtomicU64]>);

impl Deref for Words {
    type Target = [AtomicU64];

    fn deref(&self) -> &[AtomicU64] {
        &self.0
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        let table = std::mem::take(&mut self.0);
        if !table.is_empty() {
            SPARE
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(table);
        }
    }
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
            // The second table of a length is the first one back, dirty,
            // unless a concurrent test released the spares: zero either way.
            for _ in 0..2 {
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

    #[test]
    fn clear_zeroes_every_written_word() {
        let mut t: Vec<AtomicU64> = (0..3000).map(AtomicU64::new).collect();
        t[2999].store(u64::MAX, Ordering::Relaxed);
        clear(&mut t);
        assert!(t.iter().all(|x| x.load(Ordering::Relaxed) == 0));
    }
}
