//! Regenerates the paper artifact implemented by
//! [`cr_experiments::tab_pds`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{tab_pds, Run};

fn main() {
    println!(
        "{}",
        tab_pds::run(&Run::from_args(), &tab_pds::Config::default())
    );
}
