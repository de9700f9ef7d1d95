//! Virtual-time queueing servers modeling shared memory-path bandwidth.
//!
//! Each server is a single FIFO resource with a per-request service time.
//! A request arriving at virtual time `now` begins service at
//! `max(now, next_free)` and finishes `service_ns` later; the gap between
//! `now` and the start is queueing delay. This is how the simulation
//! reproduces the paper's two bandwidth findings:
//!
//! * Optane **write** bandwidth saturates with ~4 writer threads: once the
//!   aggregate line-write arrival rate exceeds `1/optane_write_line_ns`,
//!   backlog grows and writers stall at the WPQ bound;
//! * Optane **read** bandwidth keeps scaling to ~17 threads because its
//!   per-line service time is much smaller.
//!
//! The server is lock-free: `next_free` advances with a CAS loop.

use std::sync::atomic::{AtomicU64, Ordering};

/// A single-queue bandwidth server in virtual time.
///
/// Aligned to two host cache lines (as `ClockSlot` is) so each server
/// owns its host line: packed, the six 8-byte write banks and the three
/// other servers would share two lines, and every flush would bounce the
/// line its peers' *other* banks live on. Two threads contend on a
/// server only where the model means them to — requests to one bank.
#[derive(Debug)]
#[repr(align(128))]
pub struct BwServer {
    next_free: AtomicU64,
}

/// Outcome of submitting a request to a [`BwServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Virtual time at which the request's service completes.
    pub finish: u64,
    /// Backlog (finish minus the submitter's `now`) observed at submit time.
    pub backlog: u64,
}

impl BwServer {
    pub fn new() -> Self {
        BwServer {
            next_free: AtomicU64::new(0),
        }
    }

    /// Submit a request of `service_ns` at virtual time `now`.
    ///
    /// Returns the finish time and the post-submit backlog. The caller
    /// decides whether (and how much of) the delay is synchronous: a demand
    /// load waits for `finish`, an asynchronous writeback only waits if the
    /// backlog exceeds its queue bound.
    pub fn request(&self, now: u64, service_ns: u64) -> Grant {
        if service_ns == 0 {
            return Grant {
                finish: now,
                backlog: 0,
            };
        }
        let mut cur = self.next_free.load(Ordering::Relaxed);
        loop {
            let start = cur.max(now);
            let finish = start + service_ns;
            match self.next_free.compare_exchange_weak(
                cur,
                finish,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Grant {
                        finish,
                        backlog: finish - now,
                    }
                }
                Err(v) => cur = v,
            }
        }
    }

    /// Current backlog relative to `now` (0 if the server is idle).
    pub fn backlog(&self, now: u64) -> u64 {
        self.next_free.load(Ordering::Acquire).saturating_sub(now)
    }

    /// Reset the server (between benchmark phases).
    pub fn reset(&self) {
        self.next_free.store(0, Ordering::Release);
    }
}

impl Default for BwServer {
    fn default() -> Self {
        Self::new()
    }
}

/// The set of shared memory-path servers of one simulated machine.
///
/// The Optane write path is **banked**: the testbed interleaves its
/// DIMMs, so lines hash to banks and a fence waits only for its own
/// bank's backlog, not a machine-wide queue.
#[derive(Debug)]
pub struct Servers {
    /// Optane media write banks (fed by the WPQ).
    pub optane_write: Vec<BwServer>,
    /// Optane media read path.
    pub optane_read: BwServer,
    /// DRAM write path.
    pub dram_write: BwServer,
    /// DRAM read path.
    pub dram_read: BwServer,
}

impl Servers {
    pub fn new(optane_write_banks: usize) -> Self {
        Servers {
            optane_write: (0..optane_write_banks.max(1))
                .map(|_| BwServer::new())
                .collect(),
            optane_read: BwServer::new(),
            dram_write: BwServer::new(),
            dram_read: BwServer::new(),
        }
    }

    pub fn reset(&self) {
        for b in &self.optane_write {
            b.reset();
        }
        self.optane_read.reset();
        self.dram_write.reset();
        self.dram_read.reset();
    }

    /// Bank index a line key hashes to on the Optane write path.
    ///
    /// Exposed so batched flush planners (`MemSession::clwb_batch`) can
    /// interleave lines across banks with the exact routing `write_for`
    /// will use.
    pub fn optane_bank_of(&self, line_key: u64) -> usize {
        let mut h = line_key;
        h ^= h >> 29;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        (h % self.optane_write.len() as u64) as usize
    }

    /// Pick the write server for a media kind; Optane writes are routed
    /// to a bank by the line key.
    pub fn write_for(&self, optane: bool, line_key: u64) -> &BwServer {
        if optane {
            &self.optane_write[self.optane_bank_of(line_key)]
        } else {
            &self.dram_write
        }
    }

    /// Pick the read server for a media kind.
    pub fn read_for(&self, optane: bool) -> &BwServer {
        if optane {
            &self.optane_read
        } else {
            &self.dram_read
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let s = BwServer::new();
        let g = s.request(1_000, 50);
        assert_eq!(g.finish, 1_050);
        assert_eq!(g.backlog, 50);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let s = BwServer::new();
        let g1 = s.request(0, 100);
        let g2 = s.request(0, 100);
        assert_eq!(g1.finish, 100);
        assert_eq!(g2.finish, 200);
        assert_eq!(g2.backlog, 200);
    }

    #[test]
    fn idle_gap_resets_queue() {
        let s = BwServer::new();
        s.request(0, 100);
        // Next request arrives long after the server drained.
        let g = s.request(10_000, 100);
        assert_eq!(g.finish, 10_100);
        assert_eq!(g.backlog, 100);
    }

    #[test]
    fn zero_service_is_free() {
        let s = BwServer::new();
        let g = s.request(42, 0);
        assert_eq!(g.finish, 42);
        assert_eq!(g.backlog, 0);
        assert_eq!(s.backlog(42), 0);
    }

    #[test]
    fn backlog_observed() {
        let s = BwServer::new();
        s.request(0, 500);
        assert_eq!(s.backlog(100), 400);
        assert_eq!(s.backlog(1_000), 0);
    }

    #[test]
    fn reset_clears_backlog() {
        let s = BwServer::new();
        s.request(0, 1_000);
        s.reset();
        assert_eq!(s.backlog(0), 0);
    }

    #[test]
    fn concurrent_requests_serialize_total_service() {
        // N threads each submit K requests of service 10 at now=0; the final
        // next_free must equal N*K*10 exactly (no lost service time).
        let s = BwServer::new();
        let n = 4;
        let k = 1_000;
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    for _ in 0..k {
                        s.request(0, 10);
                    }
                });
            }
        });
        assert_eq!(s.backlog(0), (n * k * 10) as u64);
    }

    #[test]
    fn write_saturation_point_is_lower_than_read() {
        // Sanity-check the queueing math that underlies the paper's
        // "writes saturate at ~4 threads, reads at ~17" observation:
        // with per-thread demand of one line per 200ns, a 55ns write
        // service saturates between 3 and 4 threads; a 16ns read service
        // needs ~12.
        let write_ns = 55u64;
        let read_ns = 16u64;
        let demand_period = 200u64;
        let sat = |service: u64| demand_period / service;
        assert!(sat(write_ns) <= 4);
        assert!(sat(read_ns) >= 10);
    }
}
