//! Prints the CR mechanism ablation study. Pass `--quick` or `--tiny`
//! to shrink the run.

use cr_experiments::{ext_ablation, Run};

fn main() {
    println!(
        "{}",
        ext_ablation::run(&Run::from_args(), &ext_ablation::Config::default())
    );
}
