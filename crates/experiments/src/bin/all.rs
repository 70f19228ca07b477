//! Regenerates every table and figure of the paper's evaluation in one
//! run. Pass `--quick` or `--tiny` to shrink the runs; the default
//! paper-scale run takes a while.

use cr_experiments::{
    churn, ext_ablation, ext_distribution, ext_par, ext_nonuniform, fig09, fig10, fig11, fig12,
    fig14ab, fig14cd, fig14ef, fig15, fig16, showdown, tab_hardware, tab_padding, tab_pds, Run,
};

fn main() {
    let run = Run::from_args();
    macro_rules! run {
        ($m:ident) => {
            println!("{}", $m::run(&run, &$m::Config::default()))
        };
    }
    run!(fig09);
    run!(fig10);
    run!(fig11);
    run!(fig12);
    run!(fig14ab);
    run!(fig14cd);
    run!(fig14ef);
    run!(fig15);
    run!(fig16);
    run!(tab_pds);
    run!(tab_padding);
    println!("{}", tab_hardware::run(&tab_hardware::Config::default()));
    run!(ext_distribution);
    run!(ext_ablation);
    run!(ext_nonuniform);
    run!(ext_par);
    run!(showdown);
    run!(churn);
}
