//! `Probe<W>`: a [`Workload`] adapter that measures a workload from
//! outside, through the public driver.
//!
//! The driver ([`workloads::run_scenario`]) owns the machine, the
//! threads and the loop; all it hands a workload is `setup` and `op`.
//! Wrapping the workload is therefore the only seam at which a program
//! outside the repository's crates can see (a) where set-up ends and the
//! measured phase begins on the host clock, and (b) each operation's
//! virtual latency exactly, instead of through the driver's two
//! sub-bucket histogram.

use std::sync::Mutex;
use std::time::Instant;

use ptm::TxThread;
use rand::rngs::SmallRng;
use workloads::Workload;

use crate::host::HostMark;

/// One operation as seen by the probe in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Host ns since the probe's epoch at `op` entry and exit.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Virtual clock of the executing thread at `op` entry and exit.
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

/// What one virtual thread recorded.
#[derive(Debug, Default)]
pub struct Lane {
    /// Virtual latency of every op, in issue order.
    pub sim_ns: Vec<u64>,
    /// Per-op host and virtual intervals; filled only when the probe
    /// was built with `timed = true` (the traced run).
    pub ops: Vec<OpRecord>,
}

pub struct Probe<W> {
    inner: W,
    timed: bool,
    epoch: Instant,
    setup_end: Option<HostMark>,
    lanes: Vec<Mutex<Lane>>,
}

impl<W: Workload> Probe<W> {
    /// Wrap `inner` for a run over `threads` virtual threads expecting
    /// about `ops_per_thread` ops each. `timed` adds a host `Instant`
    /// pair around every op — the traced run only, because two clock
    /// reads per op are not free next to a ~10 µs operation.
    pub fn new(inner: W, threads: usize, ops_per_thread: u64, timed: bool) -> Probe<W> {
        let lanes = (0..threads)
            .map(|_| {
                Mutex::new(Lane {
                    sim_ns: Vec::with_capacity(ops_per_thread as usize),
                    ops: Vec::with_capacity(if timed { ops_per_thread as usize } else { 0 }),
                })
            })
            .collect();
        Probe {
            inner,
            timed,
            epoch: Instant::now(),
            setup_end: None,
            lanes,
        }
    }

    /// The instant host-side op records count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Host clock at the moment `setup` returned.
    ///
    /// # Panics
    /// Panics if the driver never called `setup`.
    pub fn setup_end(&self) -> HostMark {
        self.setup_end.expect("driver ran setup")
    }

    /// Consume the probe, yielding one [`Lane`] per virtual thread.
    pub fn into_lanes(self) -> Vec<Lane> {
        self.lanes
            .into_iter()
            .map(|l| l.into_inner().expect("a measured thread panicked"))
            .collect()
    }
}

impl<W: Workload> Workload for Probe<W> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn heap_words(&self) -> usize {
        self.inner.heap_words()
    }

    fn setup(&mut self, th: &mut TxThread) {
        self.inner.setup(th);
        self.setup_end = Some(HostMark::now());
    }

    fn op(&self, th: &mut TxThread, rng: &mut SmallRng, tid: usize, i: u64) {
        let sim_start_ns = th.session_mut().now();
        let host_start = self.timed.then(Instant::now);
        self.inner.op(th, rng, tid, i);
        let host_end = self.timed.then(Instant::now);
        let sim_end_ns = th.session_mut().now();
        // Each lane is touched by exactly one OS thread; the mutex is
        // there to keep `op(&self)` safe, and is never contended.
        let mut lane = self.lanes[tid].lock().expect("lane poisoned");
        lane.sim_ns.push(sim_end_ns - sim_start_ns);
        if let (Some(s), Some(e)) = (host_start, host_end) {
            lane.ops.push(OpRecord {
                host_start_ns: s.duration_since(self.epoch).as_nanos() as u64,
                host_end_ns: e.duration_since(self.epoch).as_nanos() as u64,
                sim_start_ns,
                sim_end_ns,
            });
        }
    }
}

/// Exact nearest-rank percentile `num/den` of `sorted` (ascending): the
/// smallest sample such that at least `num/den` of all samples are at or
/// below it, i.e. the sample of 1-based rank `⌈n·num/den⌉`. Integer
/// arithmetic, so the rank never depends on how `0.99` rounds.
///
/// Same convention as `obs::spans::decompose`. It differs from the seed
/// driver's truncated index `⌊(n−1)·p⌋` (one rank lower whenever
/// `(n−1)·p` has a fractional part) and from `LatencyHistogram`'s
/// round-half-up rank (one rank higher when `n·p` is whole).
///
/// # Panics
/// Panics on an empty slice or `num > den`.
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(den > 0 && num <= den, "percentile outside [0, 1]");
    let n = sorted.len() as u128;
    let rank = (n * num as u128).div_ceil(den as u128).clamp(1, n);
    sorted[rank as usize - 1]
}

/// The `num/den` percentile of `sorted` for data with ties: the
/// nearest-rank sample `v` is located exactly, then the value is
/// interpolated between the next smaller distinct sample and `v` by how
/// far the rank reaches into `v`'s group of tied samples (the textbook
/// percentile for grouped data, with the distinct values as groups).
///
/// Why not plain nearest rank: at one thread a virtual latency is a sum
/// of a few model constants, so hundreds of thousands of ops share a few
/// dozen distinct latencies and the nearest-rank p99 is the *same
/// integer for every seed* — it cannot show a tail shift smaller than a
/// whole step, and reads as a constant. The interpolated value lies in
/// `(v_prev, v]`, equals nearest rank when the rank hits the last tied
/// sample, and moves with the mass at and below `v`.
///
/// # Panics
/// As [`nearest_rank`].
pub fn tie_interpolated_rank(sorted: &[u64], num: u64, den: u64) -> f64 {
    let v = nearest_rank(sorted, num, den);
    let n = sorted.len() as u128;
    let rank = (n * num as u128).div_ceil(den as u128).clamp(1, n) as usize;
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    let prev = if below == 0 { v } else { sorted[below - 1] };
    prev as f64 + (v - prev) as f64 * (rank - below) as f64 / at as f64
}

/// Sorts all lanes' latencies together and reads the p99 (see
/// [`tie_interpolated_rank`]). Returns `(p99, samples)`.
pub fn p99_of_lanes(lanes: &[Lane]) -> (f64, u64) {
    let mut all: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.sim_ns.iter().copied())
        .collect();
    all.sort_unstable();
    (tie_interpolated_rank(&all, 99, 100), all.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        assert_eq!(nearest_rank(&[42], 99, 100), 42);
        assert_eq!(nearest_rank(&[42], 0, 100), 42);
        assert_eq!(nearest_rank(&[42], 100, 100), 42);
    }

    #[test]
    fn hundred_samples_p99_is_the_99th() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 99, 100), 99);
        assert_eq!(nearest_rank(&v, 50, 100), 50);
        assert_eq!(nearest_rank(&v, 100, 100), 100);
        assert_eq!(nearest_rank(&v, 1, 1000), 1);
    }

    /// The distribution `workloads::hist` pins its rank rule with: 198
    /// fast samples and two slow ones. Nearest rank ⌈0.99·200⌉ = 198 is
    /// still a fast sample; p99.5 is the first slow one.
    #[test]
    fn two_hundred_samples() {
        let mut v = vec![16u64; 198];
        v.extend([1024, 4096]);
        assert_eq!(nearest_rank(&v, 99, 100), 16);
        assert_eq!(nearest_rank(&v, 995, 1000), 1024);
        assert_eq!(nearest_rank(&v, 100, 100), 4096);
    }

    #[test]
    fn ties_report_the_tied_value() {
        let v = [5u64, 7, 7, 7, 7, 7, 7, 7, 7, 9];
        assert_eq!(nearest_rank(&v, 50, 100), 7);
        assert_eq!(nearest_rank(&v, 90, 100), 7);
        assert_eq!(nearest_rank(&v, 91, 100), 9);
    }

    /// Where the seed's truncation under-reports: 150 samples, p99. The
    /// truncated 0-based index ⌊149·0.99⌋ = 147 is the 148th smallest;
    /// nearest rank ⌈148.5⌉ is the 149th.
    #[test]
    fn seed_truncation_case() {
        let v: Vec<u64> = (1..=150).collect();
        let truncated = v[(149.0 * 0.99) as usize];
        assert_eq!(truncated, 148);
        assert_eq!(nearest_rank(&v, 99, 100), 149);
    }

    #[test]
    fn lanes_are_pooled_before_ranking() {
        let a = Lane {
            sim_ns: (1..=50).collect(),
            ops: Vec::new(),
        };
        let b = Lane {
            sim_ns: (51..=100).rev().collect(),
            ops: Vec::new(),
        };
        assert_eq!(p99_of_lanes(&[a, b]), (99.0, 100));
    }

    #[test]
    fn interpolation_equals_nearest_rank_without_ties() {
        let v: Vec<u64> = (1..=200).map(|x| x * 10).collect();
        for (num, den) in [(1, 100), (50, 100), (99, 100), (100, 100)] {
            assert_eq!(
                tie_interpolated_rank(&v, num, den),
                nearest_rank(&v, num, den) as f64
            );
        }
    }

    #[test]
    fn interpolation_moves_with_the_mass_inside_a_tie_group() {
        // 1000 samples: 980 at 100 ns, 20 at 400 ns. p99 = rank 990, the
        // 10th of the 20 slow samples: half way from 100 to 400.
        let mut v = vec![100u64; 980];
        v.extend(vec![400u64; 20]);
        assert_eq!(nearest_rank(&v, 99, 100), 400);
        assert_eq!(tie_interpolated_rank(&v, 99, 100), 250.0);
        // Two more slow samples: nearest rank cannot tell, this can.
        let mut w = vec![100u64; 978];
        w.extend(vec![400u64; 22]);
        assert_eq!(nearest_rank(&w, 99, 100), 400);
        assert!(tie_interpolated_rank(&w, 99, 100) > 250.0);
        // The rank on the last tied sample reads the sample itself, and
        // a rank inside the lowest group stays at that value.
        assert_eq!(tie_interpolated_rank(&v, 100, 100), 400.0);
        assert_eq!(tie_interpolated_rank(&v, 50, 100), 100.0);
    }
}
