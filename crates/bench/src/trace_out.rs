//! Writing flight-recorder exports from a finished harness run.
//!
//! The binary dump embeds the `PtmStats`/`MachineStats` counter totals
//! of the run that produced it, so `trace_analyze --file` can cross-check
//! a dump offline without re-running the workload.

use std::sync::Arc;

use trace::export::{chrome_trace_json, write_binary};
use trace::TraceSink;
use workloads::driver::RunResult;

/// Write both export formats for a recorded run: the compact binary dump
/// to `path` and Chrome trace-event JSON (Perfetto-loadable) to
/// `<path>.json`. Returns the number of events exported.
pub fn write_trace_exports(
    path: &str,
    sink: &Arc<TraceSink>,
    r: &RunResult,
) -> std::io::Result<u64> {
    let threads = sink.threads();
    std::fs::write(path, write_binary(&threads, &r.trace_totals()))?;
    std::fs::write(format!("{path}.json"), chrome_trace_json(&threads))?;
    Ok(threads.iter().map(|t| t.events.len() as u64).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::DurabilityDomain;
    use trace::export::{read_binary, ExpectedTotals};
    use workloads::driver::RunConfig;

    #[test]
    fn exports_roundtrip_and_embed_run_totals() {
        let sink = TraceSink::new(TraceSink::DEFAULT_RING_CAPACITY);
        let sc = crate::optane("trace-out", DurabilityDomain::Adr, ptm::Algo::RedoLazy);
        let rc = RunConfig {
            threads: 2,
            ops_per_thread: 40,
            trace: Some(Arc::clone(&sink)),
            ..RunConfig::default()
        };
        let r = crate::run_point_with("tatp", &sc, &rc, true);

        let dir = std::env::temp_dir().join("ptm_trace_out_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.trc");
        let path = path.to_str().unwrap();
        let n = write_trace_exports(path, &sink, &r).unwrap();
        assert!(n > 0, "traced run exported no events");

        let dump = read_binary(&std::fs::read(path).unwrap()).unwrap();
        assert_eq!(dump.expected, r.trace_totals());
        let json = std::fs::read_to_string(format!("{path}.json")).unwrap();
        trace::json::check_structure(&json).unwrap();
    }

    /// Every dump total resolves to a declared counter of the layer it
    /// names — `from_counters` panics otherwise, so a renamed counter
    /// fails here, not in `trace_analyze` — and carries its value.
    #[test]
    fn every_dump_total_resolves_to_a_declared_counter() {
        let ptm = ptm::PtmStatsSnapshot {
            commits: 3,
            htm_capacity_aborts: 4,
            sfences_elided: 5,
            ..Default::default()
        };
        let mem = pmem_sim::StatsSnapshot {
            clwbs: 7,
            wpq_stall_ns: 8,
            ..Default::default()
        };
        let got: Vec<_> = ExpectedTotals::from_counters(&ptm.fields(), &mem.fields())
            .fields()
            .filter(|&(_, v)| v != 0)
            .collect();
        assert_eq!(
            got,
            [
                ("commits", 3),
                ("htm_capacity_aborts", 4),
                ("clwbs", 7),
                ("wpq_stall_ns", 8),
                ("fence_joins", 5),
            ]
        );
    }
}
