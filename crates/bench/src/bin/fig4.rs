//! Figure 4: TATP throughput vs threads, same scenario grid as Fig. 3.

use bench::{run_figure, HarnessOpts};
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_sweep();
    eprintln!("# fig4: tatp x 8 scenarios x {:?} threads", threads);
    run_figure(&["tatp"], &Scenario::fig3_grid(), &opts, &threads);
}
