//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig11`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig11, Run};

fn main() {
    println!(
        "{}",
        fig11::run(&Run::from_args(), &fig11::Config::default())
    );
}
