//! The paper's side experiments, each a cell of `Scenario::paper_grid`
//! with one knob turned (DESIGN.md §5 decisions 1–6 and 9):
//!
//! * `unsplit` — §III-A's split log undone: the log's hash index in
//!   Optane instead of DRAM;
//! * `incremental`, `combined` — §III-B's flush timing (redo-log lines
//!   flushed as they fill; the paper found no noticeable difference) and
//!   write combining (every obligation of a fence window deduplicated
//!   per line and drained bank-interleaved);
//! * `lite<N>` — §IV-B's PDRAM-Lite DRAM log budget, in entries;
//! * `orecs<N>` — the orec table's size (false conflicts);
//! * `htm` — §V's question: `Algo::HtmLogged` instead of software redo;
//! * `nofence` — Table III: `clwb`s without `sfence`s (incorrect,
//!   measurement only).
//!
//! Each line is labelled with its `fig3` workload name and scenario
//! `<base>+<override>`, e.g. `tpcc-hash|Optane_ADR_R+unsplit`. A base
//! cell's own line is `fig3`'s, with the same key, and is not re-run
//! here, except where `fig3` runs no such workload (the KV store at low
//! and high contention). Arms equal to their base by construction are
//! not rows: a flush plan under a domain that needs no flushes, and
//! `Incremental` for undo, which has no redo log to flush early (the
//! tests below pin both).
//!
//! `--threads a,b,c` is a sweep; the budget, orec and fence-elision rows
//! run once, at its largest count.

use bench::{emit_point, run_point_with, HarnessOpts};
use ptm::{Algo, FlushPlan, PtmConfig};
use workloads::driver::{RunConfig, Scenario};

/// The one knob a row turns on its base cell.
#[derive(Debug, Clone, Copy)]
enum Knob {
    Unsplit,
    Flush(FlushPlan),
    Lite(usize),
    Orecs(usize),
    Htm,
    NoFence,
    /// None: the base cell itself, for a workload `fig3` does not run.
    Base,
}

impl Knob {
    /// The suffix after the base label, `""` for [`Knob::Base`].
    fn suffix(self) -> String {
        match self {
            Knob::Unsplit => "+unsplit".into(),
            Knob::Flush(plan) => format!("+{plan:?}").to_lowercase(),
            Knob::Lite(n) => format!("+lite{n}"),
            Knob::Orecs(n) => format!("+orecs{n}"),
            Knob::Htm => "+htm".into(),
            Knob::NoFence => "+nofence".into(),
            Knob::Base => String::new(),
        }
    }

    fn apply(self, sc: &mut Scenario, ptm: &mut PtmConfig) {
        match self {
            Knob::Unsplit => ptm.split_log_index = false,
            Knob::Flush(plan) => ptm.flush = plan,
            Knob::Lite(n) => ptm.lite_log_entries = n,
            Knob::Orecs(n) => ptm.orec_count = n,
            Knob::Htm => sc.algo = Algo::HtmLogged,
            Knob::NoFence => ptm.elide_fences = true,
            Knob::Base => {}
        }
    }

    /// Whether the row is read at one thread count, the sweep's largest.
    fn at_top_only(self) -> bool {
        matches!(self, Knob::Lite(_) | Knob::Orecs(_) | Knob::NoFence)
    }
}

/// Every workload × base cell × knob of a row is one arm.
struct Row {
    workloads: &'static [&'static str],
    /// `Scenario::paper_grid` labels.
    bases: &'static [&'static str],
    knobs: &'static [Knob],
}

const ADR_R: &[&str] = &["Optane_ADR_R"];

const ROWS: &[Row] = &[
    Row {
        workloads: &["tpcc-hash", "tatp", "btree-insert"],
        bases: &["Optane_ADR_R", "Optane_ADR_U"],
        knobs: &[Knob::Unsplit],
    },
    Row {
        workloads: &["tpcc-hash", "btree-insert", "tpcc-btree"],
        bases: ADR_R,
        knobs: &[
            Knob::Flush(FlushPlan::Incremental),
            Knob::Flush(FlushPlan::Combined),
        ],
    },
    Row {
        workloads: &["tpcc-hash", "btree-insert"],
        bases: &[
            "Optane_ADR_U",
            "Optane_eADR_R",
            "Optane_eADR_U",
            "PDRAM_R",
            "PDRAM_U",
            "PDRAM-Lite",
        ],
        knobs: &[Knob::Flush(FlushPlan::Combined)],
    },
    Row {
        workloads: &["tpcc-hash", "tatp", "vacation-low"],
        bases: &["PDRAM-Lite"],
        knobs: &[
            Knob::Lite(8),
            Knob::Lite(16),
            Knob::Lite(32),
            Knob::Lite(64),
            Knob::Lite(512),
        ],
    },
    Row {
        workloads: &["tpcc-hash", "btree-mixed"],
        bases: ADR_R,
        knobs: &[
            Knob::Orecs(1 << 8),
            Knob::Orecs(1 << 12),
            Knob::Orecs(1 << 16),
            Knob::Orecs(1 << 20),
        ],
    },
    Row {
        workloads: &["tatp", "tpcc-hash", "btree-mixed"],
        bases: &["Optane_eADR_R", "PDRAM_R", "Optane_ADR_R"],
        knobs: &[Knob::Htm],
    },
    Row {
        workloads: &["kvstore-low", "kvstore-high"],
        bases: ADR_R,
        knobs: &[Knob::Base, Knob::Htm],
    },
    Row {
        workloads: &["tpcc-hash", "tatp", "vacation-low", "vacation-high"],
        bases: &["Optane_ADR_U", "Optane_ADR_R"],
        knobs: &[Knob::NoFence],
    },
];

fn base_cell(label: &str) -> Scenario {
    Scenario::paper_grid()
        .into_iter()
        .find(|sc| sc.label == label)
        .unwrap_or_else(|| panic!("`{label}` is not a paper-grid cell"))
}

fn main() {
    let (opts, sweep) = HarnessOpts::with_thread_sweep();
    let top = *sweep.iter().max().expect("--threads lists a count");
    if !opts.json {
        println!("workload,scenario,threads,throughput_mops,commits,aborts,commit_abort_ratio");
    }
    for row in ROWS {
        for &knob in row.knobs {
            let threads = if knob.at_top_only() {
                std::slice::from_ref(&top)
            } else {
                &sweep[..]
            };
            for &name in row.workloads {
                for &base in row.bases {
                    let mut sc = base_cell(base);
                    let mut ptm = PtmConfig::default();
                    knob.apply(&mut sc, &mut ptm);
                    sc.label.push_str(&knob.suffix());
                    for &t in threads {
                        let rc = RunConfig {
                            ptm: ptm.clone(),
                            ..opts.run_config(t)
                        };
                        emit_point(&opts, name, &run_point_with(name, &sc, &rc, opts.quick));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::report::point_json;
    use pmem_sim::DurabilityDomain;

    /// A row turns a knob, so it never sets a field to its default (no
    /// `batched`, `lite128`, `split` or `orecs262144` arm: that is the
    /// base cell, which `fig3` runs), and a knob-less row names a
    /// workload `fig3` does not run.
    #[test]
    fn every_row_moves_its_base_cell() {
        let fig3 = bench::panel_workloads();
        for row in ROWS {
            for &base in row.bases {
                for &knob in row.knobs {
                    let (mut sc, mut ptm) = (base_cell(base), PtmConfig::default());
                    let before = format!("{:?} {ptm:?}", sc.algo);
                    knob.apply(&mut sc, &mut ptm);
                    let after = format!("{:?} {ptm:?}", sc.algo);
                    if let Knob::Base = knob {
                        for w in row.workloads {
                            assert!(!fig3.contains(w), "{w}|{base} is fig3's line");
                        }
                    } else {
                        assert_ne!(before, after, "{base}{} is its base cell", knob.suffix());
                    }
                }
            }
        }
    }

    /// `FlushPlan::Incremental` only adds `clwb`s of completed redo-log
    /// lines, which are no-ops where the domain needs no flush, and undo
    /// has no redo log: those arms are their `Batched` base cells line
    /// for line. (Where it differs, redo under ADR, the golden
    /// `point_tpcc_adr_redo_incremental_1t` pins it.)
    #[test]
    fn incremental_equals_batched_where_nothing_is_flushed_early() {
        let mut arms = vec![(Algo::UndoEager, DurabilityDomain::Adr)];
        for domain in [
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ] {
            arms.push((Algo::RedoLazy, domain));
            arms.push((Algo::UndoEager, domain));
        }
        for name in ["tpcc-hash", "btree-insert"] {
            for &(algo, domain) in &arms {
                let sc = bench::optane("arm", domain, algo);
                let point = |flush| {
                    let rc = RunConfig {
                        threads: 1,
                        ops_per_thread: 300,
                        ptm: PtmConfig {
                            flush,
                            ..PtmConfig::default()
                        },
                        ..RunConfig::default()
                    };
                    point_json(name, &run_point_with(name, &sc, &rc, true))
                };
                assert_eq!(
                    point(FlushPlan::Incremental),
                    point(FlushPlan::Batched),
                    "{name} {algo:?} {domain:?}"
                );
            }
        }
    }
}
