//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig16`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig16, Run};

fn main() {
    println!(
        "{}",
        fig16::run(&Run::from_args(), &fig16::Config::default())
    );
}
