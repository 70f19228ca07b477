//! Regenerates the paper artifact implemented by
//! [`cr_experiments::tab_padding`]. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.

use cr_experiments::{tab_padding, Run};

fn main() {
    println!(
        "{}",
        tab_padding::run(&Run::from_args(), &tab_padding::Config::default())
    );
}
