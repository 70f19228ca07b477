//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig15`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig15, Run};

fn main() {
    println!(
        "{}",
        fig15::run(&Run::from_args(), &fig15::Config::default())
    );
}
