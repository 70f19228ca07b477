//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig14ab`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig14ab, Run};

fn main() {
    println!(
        "{}",
        fig14ab::run(&Run::from_args(), &fig14ab::Config::default())
    );
}
