//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig09`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig09, Run};

fn main() {
    println!(
        "{}",
        fig09::run(&Run::from_args(), &fig09::Config::default())
    );
}
