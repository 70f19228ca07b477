//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig12`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig12, Run};

fn main() {
    println!(
        "{}",
        fig12::run(&Run::from_args(), &fig12::Config::default())
    );
}
