//! Figures 3, 4, 6 and 7: throughput vs threads for the seven panel
//! workloads over the eleven curves of `Scenario::paper_grid`, each
//! paper cell once. Figures 4, 6 and 7 are row filters of this output
//! (see the crate docs).

use bench::{panel_workloads, run_figure, HarnessOpts};
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_sweep();
    let grid = Scenario::paper_grid();
    eprintln!(
        "# fig3: {} workloads x {} scenarios x {:?} threads",
        panel_workloads().len(),
        grid.len(),
        threads
    );
    run_figure(&panel_workloads(), &grid, &opts, &threads);
}
