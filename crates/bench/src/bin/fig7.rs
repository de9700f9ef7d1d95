//! Figure 7: TATP under the proposed durability domains.

use bench::{run_figure, HarnessOpts};
use workloads::Scenario;

fn main() {
    let (opts, threads) = HarnessOpts::with_thread_sweep();
    eprintln!("# fig7: tatp x 7 scenarios x {:?} threads", threads);
    run_figure(&["tatp"], &Scenario::fig6_grid(), &opts, &threads);
}
