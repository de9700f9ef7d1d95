//! Figure 3: throughput vs threads for the six panel workloads, curves
//! {DRAM, Optane} x {ADR, eADR} x {undo, redo}.

use bench::{panel_workloads, run_figure, HarnessOpts};
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_sweep();
    eprintln!(
        "# fig3: {} workloads x 8 scenarios x {:?} threads",
        panel_workloads().len(),
        threads
    );
    run_figure(&panel_workloads(), &Scenario::fig3_grid(), &opts, &threads);
}
