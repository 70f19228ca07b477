//! Prints the DOR / planar-adaptive / CR mesh comparison. Pass
//! `--quick` or `--tiny` to shrink the run.

use cr_experiments::{ext_par, Run};

fn main() {
    println!(
        "{}",
        ext_par::run(&Run::from_args(), &ext_par::Config::default())
    );
}
