//! Regenerates the live-churn extension implemented by
//! [`cr_experiments::churn`]: CR vs FCR vs DOR through the same seeded
//! kill-and-revive storm. Pass `--quick` or `--tiny` to shrink the
//! run; default is the paper-scale configuration.
//!
//! One extra flag beyond the shared harness set (`--jobs`, `--dense`,
//! `--trace`):
//!
//! * `--emit-plan <path>` — write this run's generated storm schedule
//!   as a `--churn`-compatible JSON plan (primitive kill/revive
//!   events, expanded against the run's torus) and continue. Lets
//!   `verify.sh` replay the identical storm through other runners.
//!
//! `--churn` is refused (exit 2): a plan would silently replace the
//! storm this experiment is about.

use cr_experiments::{churn, Run};

fn main() {
    let (run, [emit_plan]) = Run::from_args_with(
        ["--emit-plan"],
        &[(
            "--churn",
            "it runs its own storm, which a plan would silently replace \
             (write that storm with --emit-plan)",
        )],
    );
    let cfg = churn::Config::default();
    if let Some(p) = emit_plan {
        // Emit primitive events only, so the plan replays identically
        // on any runner regardless of topology.
        let topo = cr_topology::KAryNCube::torus(run.scale.radix(), 2);
        let plan = cfg.storm(run.scale).expanded(&topo).to_json().to_pretty();
        if let Err(e) = std::fs::write(&p, plan + "\n") {
            eprintln!("error: cannot write --emit-plan file {p}: {e}");
            std::process::exit(2);
        }
    }
    println!("{}", churn::run(&run, &cfg));
}
