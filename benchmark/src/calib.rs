//! Host-speed calibration: how slow is this host *right now*?
//!
//! The simulator is bound by host memory latency (big pools, hashed
//! cache-model state), and on a shared box that latency drifts by tens of
//! percent over minutes as neighbours come and go — far longer than one
//! run, so medians over a run's repetitions cannot average it out.
//! Measured on the reference host: whole-run medians of raw
//! `host_ops_per_s` moved by 10–35% between runs minutes apart, while a
//! pure-ALU loop stayed within 4% and a dependent-load chase over a
//! 32 MB table moved with the workloads (correlation −0.8 per
//! repetition). Dividing each repetition's host time by the chase's
//! slowdown measured right before and after it brought those run-to-run
//! spreads to 3–6%.
//!
//! So every repetition is bracketed by two samples of this kernel — one
//! chase per OS thread the workload uses, timed to the slowest thread,
//! because a workload's wall time is also set by its slowest thread — and
//! the end-to-end host metrics are reported in *nominal host seconds*:
//! raw seconds ÷ (measured ns per read ÷ [`NOMINAL_NS_PER_READ`]). The
//! kernel lives here, outside the code under test, so no change to the
//! repository's crates can move it.

use std::time::Instant;

/// Size of each thread's table: beyond the private caches, within reach
/// of the shared last-level cache — the regime where neighbours hurt the
/// simulator most (a 4 MB table tracked the workloads worse, 64–128 MB no
/// better).
const TABLE_BYTES: usize = 32 << 20;
/// Dependent reads per sample: about 30–50 ms.
const STEPS: usize = 300_000;
/// The unit anchor: a host on which one dependent read of the chase
/// costs this much has slowdown 1. About the quiet-time figure of the
/// 2-core reference host.
pub const NOMINAL_NS_PER_READ: f64 = 100.0;

pub struct HostSpeed {
    /// One single-cycle permutation per thread: following `t[i]` visits
    /// every slot before repeating, in an order no prefetcher predicts.
    tables: Vec<Vec<u32>>,
    cursors: Vec<usize>,
}

impl HostSpeed {
    /// A calibrator for a workload that runs on `threads` OS threads.
    pub fn new(threads: usize) -> HostSpeed {
        assert!(threads >= 1);
        let words = TABLE_BYTES / std::mem::size_of::<u32>();
        let tables = (0..threads)
            .map(|t| single_cycle(words, 0x9E37_79B9_7F4A_7C15 ^ (t as u64 + 1)))
            .collect();
        HostSpeed {
            tables,
            cursors: vec![0; threads],
        }
    }

    /// Time one chase per thread; returns the host's slowdown against the
    /// nominal host (1 = nominal, 1.3 = reads take 30% longer).
    pub fn slowdown(&mut self) -> f64 {
        let started = Instant::now();
        if self.tables.len() == 1 {
            self.cursors[0] = chase(&self.tables[0], self.cursors[0]);
        } else {
            let tables = &self.tables;
            std::thread::scope(|scope| {
                let handles: Vec<_> = tables
                    .iter()
                    .zip(&self.cursors)
                    .map(|(t, &c)| scope.spawn(move || chase(t, c)))
                    .collect();
                for (cursor, h) in self.cursors.iter_mut().zip(handles) {
                    *cursor = h.join().expect("calibration thread panicked");
                }
            });
        }
        let ns_per_read = started.elapsed().as_nanos() as f64 / STEPS as f64;
        ns_per_read / NOMINAL_NS_PER_READ
    }
}

fn chase(table: &[u32], start: usize) -> usize {
    let mut i = start;
    for _ in 0..STEPS {
        i = table[i] as usize;
    }
    // The cursor is carried into the next sample, so the loop has a use
    // the optimiser cannot remove.
    std::hint::black_box(i)
}

/// Sattolo's shuffle: a uniformly random permutation that is one cycle.
fn single_cycle(words: usize, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..words as u32).collect();
    let mut x = seed;
    for i in (1..words).rev() {
        // xorshift64: plenty for scattering a table.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.swap(i, (x % i as u64) as usize);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_one_cycle() {
        let n = 1 << 12;
        let v = single_cycle(n, 7);
        let (mut i, mut steps) = (0usize, 0usize);
        loop {
            i = v[i] as usize;
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, n, "the chase must visit every slot");
    }

    #[test]
    fn slowdown_is_positive_and_finite() {
        for threads in [1, 2] {
            let s = HostSpeed::new(threads).slowdown();
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
    }
}
