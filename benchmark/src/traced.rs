//! The traced run: per-op spans assembled from the benchmark's own
//! [`Probe`](crate::probe::Probe) records (host and virtual interval of
//! every `Workload::op`) and the flight recorder's reconstructed
//! critical paths (virtual ns per component inside each op).
//!
//! Span tree written to `out/trace_<workload>.json`:
//! `run` → `setup` / `measure` → one `workloads.op` per op → children
//! (queue, exec, commit, flush, fence_wait, wpq_stall, backoff,
//! rollback; virtual ns). A layer's self time is its span minus its
//! children. Host time *inside* an op is not visible from outside the
//! repository's crates; the `--layers` probes stand in for it.

use std::io::Write;

use obs::spans::{Comp, OpSpan, COMP_COUNT};
use trace::ThreadTrace;

use crate::json::{self, Obj};
use crate::probe::Lane;
use crate::suite::Traced;

/// One `workloads.op` span with its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpanOut {
    pub tid: u32,
    /// Issue index within the thread.
    pub op: u64,
    /// Host ns since the run epoch; absent where the loop is internal to
    /// the system (`run_sharded_kv`).
    pub host: Option<(u64, u64)>,
    /// Virtual ns: op entry (or request arrival) and exit.
    pub sim: (u64, u64),
    /// Children: virtual ns per critical-path component.
    pub comp_ns: [u64; COMP_COUNT],
}

/// Events the threads recorded, overwritten ones included.
pub fn events_recorded(threads: &[ThreadTrace]) -> u64 {
    threads
        .iter()
        .map(|t| t.events.len() as u64 + t.dropped)
        .sum()
}

/// Relative gap between the span components' total and the latency total
/// measured independently of the trace.
pub fn closure_err(spans: &[OpSpan], measured_total_ns: u64) -> f64 {
    let from_spans: u64 = spans.iter().map(OpSpan::total_ns).sum();
    from_spans.abs_diff(measured_total_ns) as f64 / measured_total_ns.max(1) as f64
}

/// Hang each reconstructed transaction span under the probe op whose
/// virtual interval contains it. Both sequences are in virtual-time
/// order per thread, so one forward walk per lane suffices.
pub fn attach(lanes: &[Lane], spans: &[OpSpan]) -> Vec<OpSpanOut> {
    let mut out = Vec::with_capacity(lanes.iter().map(|l| l.ops.len()).sum());
    for (tid, lane) in lanes.iter().enumerate() {
        let mut mine = spans
            .iter()
            .filter(|s| trace::local_tid(s.tid) as usize == tid)
            .peekable();
        for (i, rec) in lane.ops.iter().enumerate() {
            let mut comp_ns = [0u64; COMP_COUNT];
            while let Some(s) = mine.peek() {
                if s.begin_ts < rec.sim_start_ns {
                    // A span from before this op (cannot happen when the
                    // trace covers exactly the measured phase); skip it.
                    mine.next();
                } else if s.end_ts <= rec.sim_end_ns {
                    for (c, ns) in comp_ns.iter_mut().zip(s.comp_ns) {
                        *c += ns;
                    }
                    mine.next();
                } else {
                    break;
                }
            }
            out.push(OpSpanOut {
                tid: tid as u32,
                op: i as u64,
                host: Some((rec.host_start_ns, rec.host_end_ns)),
                sim: (rec.sim_start_ns, rec.sim_end_ns),
                comp_ns,
            });
        }
    }
    out
}

fn pair(p: (u64, u64)) -> String {
    format!("[{},{}]", p.0, p.1)
}

/// Write the span tree. One line per span keeps a 200 k-op trace
/// greppable and streamable.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    t: &Traced,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let comps = json::array(Comp::ALL.iter().map(|c| json::string(c.label())));
    writeln!(
        w,
        "{{\"workload\":{},\"seed\":{seed},\"clocks\":{{\"host\":\"ns since run start\",\"sim\":\"virtual ns\"}},\
         \"children\":{comps},\"dropped_events\":{},\"spans\":[",
        json::string(workload),
        t.dropped_events
    )?;
    let run = Obj::new()
        .int("id", 0)
        .raw("parent", "null")
        .str("name", "run")
        .raw("host", &pair((0, t.measure_end_host_ns)));
    writeln!(w, "{},", run.finish())?;
    let setup = Obj::new()
        .int("id", 1)
        .int("parent", 0)
        .str("name", "setup")
        .raw("host", &pair((0, t.setup_end_host_ns)));
    writeln!(w, "{},", setup.finish())?;
    let measure = Obj::new()
        .int("id", 2)
        .int("parent", 0)
        .str("name", "measure")
        .raw("host", &pair((t.setup_end_host_ns, t.measure_end_host_ns)))
        .raw("sim", &pair((0, t.sim_elapsed_ns)));
    write!(w, "{}", measure.finish())?;
    for (i, s) in t.ops.iter().enumerate() {
        let mut o = Obj::new()
            .int("id", 3 + i as u64)
            .int("parent", 2)
            .str("name", "workloads.op")
            .int("tid", u64::from(s.tid))
            .int("op", s.op);
        if let Some(h) = s.host {
            o = o.raw("host", &pair(h));
        }
        let children = json::array(s.comp_ns.iter().map(u64::to_string));
        o = o.raw("sim", &pair(s.sim)).raw("children", &children);
        write!(w, ",\n{}", o.finish())?;
    }
    writeln!(w, "\n]}}")?;
    // A BufWriter dropped with a pending error loses it silently.
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::OpRecord;

    fn span(tid: u32, begin: u64, end: u64, exec: u64, flush: u64) -> OpSpan {
        let mut comp_ns = [0; COMP_COUNT];
        comp_ns[Comp::Exec as usize] = exec;
        comp_ns[Comp::Flush as usize] = flush;
        OpSpan {
            tid,
            begin_ts: begin,
            end_ts: end,
            arrival_ts: begin,
            attempts: 1,
            comp_ns,
        }
    }

    fn rec(s: u64, e: u64) -> OpRecord {
        OpRecord {
            host_start_ns: s * 10,
            host_end_ns: e * 10,
            sim_start_ns: s,
            sim_end_ns: e,
        }
    }

    #[test]
    fn spans_land_under_the_op_that_contains_them() {
        let lanes = vec![
            Lane {
                sim_ns: vec![100, 100],
                ops: vec![rec(0, 100), rec(100, 200)],
            },
            Lane {
                sim_ns: vec![50],
                ops: vec![rec(0, 50)],
            },
        ];
        // Thread 0's second op holds two transactions.
        let spans = vec![
            span(0, 5, 90, 60, 25),
            span(1, 0, 50, 50, 0),
            span(0, 100, 140, 40, 0),
            span(0, 150, 200, 30, 20),
        ];
        let out = attach(&lanes, &spans);
        assert_eq!(out.len(), 3);
        assert_eq!((out[0].tid, out[0].op, out[0].sim), (0, 0, (0, 100)));
        assert_eq!(out[0].comp_ns[Comp::Exec as usize], 60);
        assert_eq!(out[1].comp_ns[Comp::Exec as usize], 70);
        assert_eq!(out[1].comp_ns[Comp::Flush as usize], 20);
        assert_eq!((out[2].tid, out[2].host), (1, Some((0, 500))));
        // Self time of op 0 on thread 0: 100 - (60 + 25) = 15 virtual ns.
        let children: u64 = out[0].comp_ns.iter().sum();
        assert_eq!(out[0].sim.1 - out[0].sim.0 - children, 15);
        assert_eq!(closure_err(&spans, 225), 0.0);
        assert!((closure_err(&spans, 250) - 0.1).abs() < 1e-12);
    }
}
