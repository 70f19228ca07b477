//! Prints the topology-zoo showdown: CR vs DOR vs the zero-VC
//! ordered-detour scheme across torus, mesh, fat-tree and full mesh.
//! Pass `--quick` or `--tiny` to shrink the run.

use cr_experiments::{showdown, Run};

fn main() {
    println!(
        "{}",
        showdown::run(&Run::from_args(), &showdown::Config::default())
    );
}
