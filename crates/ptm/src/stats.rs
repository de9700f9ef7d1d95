//! Commit/abort accounting (Tables I and II report commit-to-abort ratios).
//!
//! The table below is the one place a PTM counter is declared: rows are
//! in the order the `--json` report's `ptm` block emits them, and the
//! snapshot plumbing, the report block and the trace dump's embedded
//! totals all derive from it (see [`trace::counters!`]).

use std::sync::atomic::{AtomicU64, Ordering};

trace::counters! {
    /// Shared transaction outcome counters.
    live PtmStats;
    /// Plain-value snapshot.
    snapshot PtmStatsSnapshot;

    commits: Sum, Always;
    aborts: Sum, Always;
    /// Aborts broken out by cause, for diagnosis and ablations.
    aborts_read_locked: Sum, Always;
    aborts_read_version: Sum, Always;
    aborts_acquire: Sum, Always;
    aborts_validation: Sum, Always;
    /// Successful timestamp extensions (reads salvaged).
    extensions: Sum, Always;
    /// Transactions committed on the hardware path (`HtmLogged`'s
    /// sections, sealed by its back-end log where the domain needs one).
    htm_commits: Sum, Always;
    /// Hardware-path aborts (conflict/validation).
    htm_aborts: Sum, Always;
    /// Hardware aborts by cause: the section's line footprint exceeded
    /// the model's capacity.
    htm_capacity_aborts: Sum, Always;
    /// Hardware aborts by cause: coherence conflict with a concurrent
    /// committer (or a locked/too-new orec seen inside the section).
    htm_conflict_aborts: Sum, Always;
    /// Hardware aborts by cause: the policy aborted the section
    /// explicitly (e.g. back-end log ring full).
    htm_explicit_aborts: Sum, Always;
    /// Transactions that exhausted hardware retries and took the
    /// software path.
    htm_fallbacks: Sum, Always;
    /// 2PC: participant-shard prepares made durable.
    prepares: Sum, NonZeroWith("twopc");
    /// 2PC: coordinator commit records written (one per committed
    /// cross-shard transaction).
    coordinator_commits: Sum, NonZeroWith("twopc");
    /// 2PC: virtual ns spent in the prepare phase (per-participant
    /// `make_prepared` flush+fence work), the ADR-vs-eADR knee.
    prepare_fence_ns: Sum, NonZeroWith("twopc");
    /// 2PC recovery: in-doubt participants resolved to commit by the
    /// coordinator record.
    indoubt_resolved_commit: Sum, NonZeroWith("indoubt");
    /// 2PC recovery: in-doubt participants resolved to abort (no
    /// coordinator record — presumed abort).
    indoubt_resolved_abort: Sum, NonZeroWith("indoubt");
    /// `HtmLogged`: bytes appended to back-end redo logs.
    backend_log_bytes: Sum, Always;
    /// Largest write set observed, in log entries (the paper's §IV-B
    /// sizing argument for PDRAM-Lite: Vacation <= 37 log cache lines,
    /// TPCC <= 36).
    max_write_entries: Max, Always;
    /// Flushes the write-combining planner skipped because the line was
    /// already planned in the same fence window (offers minus unique).
    flushes_elided: Sum, Always;
    /// Unique lines the planner actually drained through `clwb_batch`.
    lines_planned: Sum, Always;
    /// Largest duplicate-filtered read set observed, in unique orecs.
    max_read_set_unique: Max, Always;
    /// Largest write-back footprint observed, in unique data lines.
    max_write_lines: Max, Always;
    /// CowShadow: shadow lines allocated from the persistent heap.
    shadow_lines_allocated: Sum, Always;
    /// CowShadow: shadow lines returned to the allocator after a publish
    /// or an abort (crashed transactions leave theirs to the restart GC).
    shadow_lines_reclaimed: Sum, Always;
    /// CowShadow: ordering points issued while publishing shadow lines
    /// to their home locations (two per committed writer transaction).
    publish_fences: Sum, Always;
    /// Largest single contention-backoff delay issued, in virtual ns
    /// (high-water; bounded by `config::MAX_BACKOFF_NS`).
    max_backoff_ns: Max, Always;
}

impl PtmStats {
    /// Record a committed transaction's write-set size.
    #[inline]
    pub fn note_write_set(&self, entries: u64) {
        self.max_write_entries.fetch_max(entries, Ordering::Relaxed);
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a plain counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a high-water mark (keeps the larger value).
    #[inline]
    pub fn high_water(counter: &AtomicU64, v: u64) {
        counter.fetch_max(v, Ordering::Relaxed);
    }
}

impl PtmStatsSnapshot {
    /// The paper's Tables I/II metric: committed transactions per abort.
    /// Returns `f64::INFINITY` when no aborts occurred.
    pub fn commit_abort_ratio(&self) -> f64 {
        if self.aborts == 0 {
            f64::INFINITY
        } else {
            self.commits as f64 / self.aborts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_aborts() {
        let s = PtmStats::new();
        PtmStats::bump(&s.commits);
        assert_eq!(s.snapshot().commit_abort_ratio(), f64::INFINITY);
        PtmStats::bump(&s.aborts);
        PtmStats::bump(&s.commits);
        assert_eq!(s.snapshot().commit_abort_ratio(), 2.0);
    }

    /// A reset between snapshots used to underflow-panic `delta_since`.
    #[test]
    fn delta_saturates_across_reset() {
        let s = PtmStats::new();
        PtmStats::bump(&s.commits);
        PtmStats::bump(&s.aborts);
        s.note_write_set(9);
        let a = s.snapshot();
        s.reset();
        let d = s.snapshot().delta_since(&a);
        assert_eq!(d.commits, 0);
        assert_eq!(d.aborts, 0);
        // High-water mark semantics: the larger value survives.
        assert_eq!(d.max_write_entries, 9);
    }

    #[test]
    fn planner_counters_and_high_water_marks() {
        let s = PtmStats::new();
        PtmStats::add(&s.flushes_elided, 5);
        PtmStats::add(&s.lines_planned, 3);
        PtmStats::high_water(&s.max_read_set_unique, 7);
        PtmStats::high_water(&s.max_read_set_unique, 4); // smaller: ignored
        PtmStats::high_water(&s.max_write_lines, 2);
        let a = s.snapshot();
        assert_eq!(a.flushes_elided, 5);
        assert_eq!(a.lines_planned, 3);
        assert_eq!(a.max_read_set_unique, 7);
        PtmStats::add(&s.flushes_elided, 1);
        let d = s.snapshot().delta_since(&a);
        assert_eq!(d.flushes_elided, 1, "plain counter: subtract");
        assert_eq!(d.max_read_set_unique, 7, "high-water: keep the max");
        assert_eq!(d.max_write_lines, 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = PtmStats::new();
        PtmStats::bump(&s.commits);
        PtmStats::bump(&s.extensions);
        s.reset();
        assert_eq!(s.snapshot(), PtmStatsSnapshot::default());
    }
}
