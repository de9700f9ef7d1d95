//! Figure 6: the proposed durability domains (PDRAM, PDRAM-Lite) against
//! DRAM and eADR, for the six panel workloads.

use bench::{panel_workloads, run_figure, HarnessOpts};
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_sweep();
    eprintln!(
        "# fig6: {} workloads x 7 scenarios x {:?} threads",
        panel_workloads().len(),
        threads
    );
    run_figure(&panel_workloads(), &Scenario::fig6_grid(), &opts, &threads);
}
