//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig10`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig10, Run};

fn main() {
    println!(
        "{}",
        fig10::run(&Run::from_args(), &fig10::Config::default())
    );
}
