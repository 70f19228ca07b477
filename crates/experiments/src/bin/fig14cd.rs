//! Regenerates the paper artifact implemented by
//! [`cr_experiments::fig14cd`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{fig14cd, Run};

fn main() {
    println!(
        "{}",
        fig14cd::run(&Run::from_args(), &fig14cd::Config::default())
    );
}
