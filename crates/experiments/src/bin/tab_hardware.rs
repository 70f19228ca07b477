//! Prints the Section 5 hardware-complexity table. The table is
//! analytic, so the shared harness flags are checked but change
//! nothing.

use cr_experiments::{tab_hardware, Run};

fn main() {
    Run::from_args();
    println!("{}", tab_hardware::run(&tab_hardware::Config::default()));
}
