//! Regenerates the live-churn extension implemented by
//! [`cr_experiments::churn`]: CR vs FCR vs DOR through the same seeded
//! kill-and-revive storm. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.
//!
//! One extra flag beyond the shared harness set (`--jobs`, `--shards`,
//! `--dense`, `--trace`, `--churn`):
//!
//! * `--emit-plan <path>` — write this run's generated storm schedule
//!   as a `--churn`-compatible JSON plan (primitive kill/revive
//!   events, expanded against the run's torus) and continue. Lets
//!   `verify.sh` replay the identical storm through other runners.

use cr_experiments::{churn, Scale};

fn main() {
    let scale = Scale::from_args();
    let cfg = churn::Config {
        scale,
        ..Default::default()
    };

    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let path = if a == "--emit-plan" {
            it.next().cloned()
        } else {
            a.strip_prefix("--emit-plan=").map(String::from)
        };
        if let Some(p) = path {
            // Emit primitive events only, so the plan replays
            // identically on any runner regardless of topology.
            let topo = cr_topology::KAryNCube::torus(scale.radix(), 2);
            let plan = cfg.storm().expanded(&topo).to_json().to_pretty();
            if let Err(e) = std::fs::write(&p, plan + "\n") {
                eprintln!("error: cannot write --emit-plan file {p}: {e}");
                std::process::exit(2);
            }
        }
    }

    let results = churn::run(&cfg);
    println!("{results}");
}
