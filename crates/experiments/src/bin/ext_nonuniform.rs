//! Regenerates the paper artifact implemented by
//! [`cr_experiments::ext_nonuniform`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{ext_nonuniform, Run};

fn main() {
    println!(
        "{}",
        ext_nonuniform::run(&Run::from_args(), &ext_nonuniform::Config::default())
    );
}
