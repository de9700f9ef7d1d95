//! The calibrated latency/bandwidth parameters of the simulated machine.
//!
//! Defaults follow the paper (§III-A) and its reference \[46\]
//! (Izraelevitz et al., "Basic Performance Measurements of the Intel Optane
//! DC Persistent Memory Module"): `clwb` costs 86 ns to DRAM and 94 ns to
//! Optane, Optane L3-miss loads are roughly 3x DRAM, Optane write bandwidth
//! saturates with ~4 writer threads while read bandwidth keeps scaling to
//! ~17 threads.

/// All timing parameters, in simulated nanoseconds (or derived units).
///
/// Every field is public so experiments can perturb individual parameters
/// (ablations in `bench/`); [`LatencyModel::default`] is the Optane-class
/// machine of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyModel {
    /// Latency of a load that hits in the (shared) L3.
    pub l3_hit_ns: u64,
    /// Latency of an L3-miss load served by DRAM.
    pub dram_load_ns: u64,
    /// Latency of an L3-miss load served by Optane media.
    pub optane_load_ns: u64,
    /// Latency of a store that hits in cache (store-buffer absorbed).
    pub store_hit_ns: u64,
    /// Extra latency of a store miss (read-for-ownership) beyond the fill.
    pub store_rfo_extra_ns: u64,
    /// Issue cost of `clwb` when the destination is DRAM.
    pub clwb_dram_ns: u64,
    /// Issue cost of `clwb` when the destination is Optane.
    pub clwb_optane_ns: u64,
    /// Issue cost of `clwb` on a clean or absent line (nothing to write back).
    pub clwb_clean_ns: u64,
    /// Base cost of `sfence` (the wait for outstanding flushes is added on
    /// top, see [`crate::MemSession::sfence`]).
    pub sfence_ns: u64,

    /// Service time per cache line on one Optane write bank (WPQ drain).
    /// Aggregate write bandwidth is `optane_write_banks /
    /// optane_write_line_ns` lines per ns; with the default transaction
    /// mix this saturates around 4 streaming writer threads, as in the
    /// paper.
    pub optane_write_line_ns: u64,
    /// Parallel write banks (the testbed interleaves 6 DIMMs per socket).
    /// Lines hash to banks, so a fence waits only for its own bank's
    /// backlog rather than the machine-wide write queue.
    pub optane_write_banks: usize,
    /// Service time per cache line on the DRAM write path.
    pub dram_write_line_ns: u64,
    /// Service time per line of Optane read bandwidth (used only for misses;
    /// large enough pools of readers will queue here, ~17 threads to
    /// saturate).
    pub optane_read_line_ns: u64,
    /// Service time per line of DRAM read bandwidth.
    pub dram_read_line_ns: u64,

    /// WPQ capacity expressed in lines; when the write-path backlog exceeds
    /// `wpq_lines * optane_write_line_ns` of work, flushing threads stall
    /// (the paper's "WPQ saturation").
    pub wpq_lines: u64,
    /// Backlog bound, in lines, for PDRAM's asynchronous DRAM-to-Optane
    /// writeback. Larger than the WPQ because all of DRAM buffers writes,
    /// but still finite: PDRAM eventually hits the same Optane write
    /// bandwidth wall (paper §IV-D).
    pub pdram_backlog_lines: u64,

    /// Simulated L3 capacity in bytes (Fig. 8's first regime boundary).
    pub l3_bytes: usize,
    /// Simulated capacity of the DRAM cache of Optane pages used by the
    /// PDRAM / PDRAM-Lite domains (and Memory Mode). Working sets beyond
    /// it fall back to Optane latency — Fig. 8's second regime boundary.
    pub dram_cache_bytes: usize,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l3_hit_ns: 20,
            dram_load_ns: 81,
            optane_load_ns: 305,
            store_hit_ns: 2,
            store_rfo_extra_ns: 10,
            clwb_dram_ns: 86,
            clwb_optane_ns: 94,
            clwb_clean_ns: 12,
            sfence_ns: 30,
            optane_write_line_ns: 144,
            optane_write_banks: 6,
            dram_write_line_ns: 3,
            optane_read_line_ns: 6,
            dram_read_line_ns: 2,
            wpq_lines: 64,
            pdram_backlog_lines: 4096,
            l3_bytes: 4 << 20,
            dram_cache_bytes: 64 << 20,
        }
    }
}

impl LatencyModel {
    /// A zero-latency model: every operation is free. Only for functional
    /// tests where virtual time is irrelevant.
    pub fn zero() -> Self {
        LatencyModel {
            l3_hit_ns: 0,
            dram_load_ns: 0,
            optane_load_ns: 0,
            store_hit_ns: 0,
            store_rfo_extra_ns: 0,
            clwb_dram_ns: 0,
            clwb_optane_ns: 0,
            clwb_clean_ns: 0,
            sfence_ns: 0,
            optane_write_line_ns: 0,
            optane_write_banks: 6,
            dram_write_line_ns: 0,
            optane_read_line_ns: 0,
            dram_read_line_ns: 0,
            wpq_lines: u64::MAX / 2,
            pdram_backlog_lines: u64::MAX / 2,
            l3_bytes: 4 << 20,
            dram_cache_bytes: 64 << 20,
        }
    }

    /// L3-miss load latency for the given backing media.
    pub fn load_miss_ns(&self, optane: bool) -> u64 {
        if optane {
            self.optane_load_ns
        } else {
            self.dram_load_ns
        }
    }

    /// `clwb` issue cost for the given backing media.
    pub fn clwb_ns(&self, optane: bool) -> u64 {
        if optane {
            self.clwb_optane_ns
        } else {
            self.clwb_dram_ns
        }
    }

    /// Per-line service time on the write path for the given media.
    pub fn write_line_ns(&self, optane: bool) -> u64 {
        if optane {
            self.optane_write_line_ns
        } else {
            self.dram_write_line_ns
        }
    }

    /// Per-line service time on the read path for the given media.
    pub fn read_line_ns(&self, optane: bool) -> u64 {
        if optane {
            self.optane_read_line_ns
        } else {
            self.dram_read_line_ns
        }
    }

    /// Virtual-ns of *per-bank* write backlog at which flushers stall
    /// (the machine-wide WPQ capacity split across banks).
    pub fn wpq_backlog_ns(&self) -> u64 {
        self.wpq_lines.saturating_mul(self.optane_write_line_ns)
            / self.optane_write_banks.max(1) as u64
    }

    /// Virtual-ns of per-bank backlog at which PDRAM writeback stalls
    /// producers.
    pub fn pdram_backlog_ns(&self) -> u64 {
        self.pdram_backlog_lines
            .saturating_mul(self.optane_write_line_ns)
            / self.optane_write_banks.max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optane_loads_slower_than_dram() {
        let m = LatencyModel::default();
        assert!(m.optane_load_ns > 2 * m.dram_load_ns);
        assert!(m.optane_load_ns < 5 * m.dram_load_ns);
    }

    #[test]
    fn clwb_cost_close_between_media() {
        // Paper: clwb latency is similar whether the line routes to DRAM or
        // Optane (86 vs 94 ns).
        let m = LatencyModel::default();
        let diff = m.clwb_optane_ns.abs_diff(m.clwb_dram_ns);
        assert!(diff * 10 < m.clwb_optane_ns);
    }

    #[test]
    fn write_bandwidth_saturates_before_read() {
        // Writes must hit their wall at fewer threads than reads, so the
        // effective (per-bank-adjusted) write service time must exceed
        // the read service time.
        let m = LatencyModel::default();
        let effective_write = m.optane_write_line_ns / m.optane_write_banks as u64;
        assert!(effective_write > 2 * m.optane_read_line_ns);
    }

    #[test]
    fn selectors_match_fields() {
        let m = LatencyModel::default();
        assert_eq!(m.load_miss_ns(true), m.optane_load_ns);
        assert_eq!(m.load_miss_ns(false), m.dram_load_ns);
        assert_eq!(m.clwb_ns(true), m.clwb_optane_ns);
        assert_eq!(m.write_line_ns(false), m.dram_write_line_ns);
        assert_eq!(m.read_line_ns(true), m.optane_read_line_ns);
    }

    #[test]
    fn zero_model_is_free() {
        let m = LatencyModel::zero();
        assert_eq!(m.load_miss_ns(true) + m.clwb_ns(true) + m.sfence_ns, 0);
    }
}
