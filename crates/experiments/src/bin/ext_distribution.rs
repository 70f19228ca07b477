//! Prints the kill-induced latency-distribution analysis. Pass
//! `--quick` or `--tiny` to shrink the run.

use cr_experiments::{ext_distribution, Run};

fn main() {
    println!(
        "{}",
        ext_distribution::run(&Run::from_args(), &ext_distribution::Config::default())
    );
}
