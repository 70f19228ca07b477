//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig14ef`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig14ef, Run};

fn main() {
    println!(
        "{}",
        fig14ef::run(&Run::from_args(), &fig14ef::Config::default())
    );
}
