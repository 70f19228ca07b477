//! The checker through every driver.
//!
//! The battery (`configs::all_configs`) closes its state spaces on the
//! reference driver. The canonical state encoding reads protocol state
//! only — no active-set membership, no wake estimates — so the same
//! configuration driven by the active-set scheduler, or over a
//! two-shard plan through the worker team, must reach exactly the same
//! states: same verdict, same state, edge and tail counts. A scheduler
//! that skipped a component with work, or a barrier that applied
//! effects out of order, would reach a different state somewhere in
//! the interleaving space and show up here as a count mismatch (or as
//! an invariant violation with its counterexample).

use cr_check::configs::{all_configs, ring3_builder, torus2x2_builder};
use cr_check::model::{check, CheckConfig};
use cr_core::check_api::CheckNet;
use cr_core::{NetworkBuilder, ProtocolKind};

fn driven(mut b: NetworkBuilder, reference: bool, shards: usize) -> CheckNet {
    let mut net = b.shards(shards).build();
    assert_eq!(net.num_shards(), shards);
    net.set_reference_stepper(reference);
    // Real worker threads behind the two-shard plan, whatever the host.
    net.set_shard_threads(Some(shards));
    CheckNet::new(net)
}

fn ring3_reference() -> CheckNet {
    driven(ring3_builder(), true, 1)
}
fn ring3_active() -> CheckNet {
    driven(ring3_builder(), false, 1)
}
fn ring3_sharded() -> CheckNet {
    driven(ring3_builder(), false, 2)
}
fn torus_fcr_reference() -> CheckNet {
    driven(torus2x2_builder(ProtocolKind::Fcr), true, 1)
}
fn torus_fcr_active() -> CheckNet {
    driven(torus2x2_builder(ProtocolKind::Fcr), false, 1)
}
fn torus_fcr_sharded() -> CheckNet {
    driven(torus2x2_builder(ProtocolKind::Fcr), false, 2)
}

/// Everything a run of the checker concluded — verdict, state, edge
/// and tail counts, depth, kill/retransmit maxima, any violation with
/// its counterexample — as the report's deterministic JSON.
fn verdict(cfg: &CheckConfig) -> String {
    let report = check(cfg, 200_000);
    assert!(report.passed(), "{}: {report:?}", cfg.name);
    assert!(
        report.states > 100,
        "{}: suspiciously small state space",
        cfg.name
    );
    report.to_json().to_string()
}

#[test]
fn sound_configs_close_identically_under_every_driver() {
    let drivers: [(&str, [(&str, fn() -> CheckNet); 3]); 2] = [
        (
            "ring3",
            [
                ("reference", ring3_reference),
                ("active", ring3_active),
                ("shards(2)", ring3_sharded),
            ],
        ),
        (
            "torus2x2-fcr",
            [
                ("reference", torus_fcr_reference),
                ("active", torus_fcr_active),
                ("shards(2)", torus_fcr_sharded),
            ],
        ),
    ];
    for (name, builds) in drivers {
        let mut cfg = all_configs()
            .into_iter()
            .find(|c| c.name == name)
            .expect("battery configuration");
        // The battery's own run (reference driver) is the baseline.
        let baseline = verdict(&cfg);
        for (driver, build) in builds {
            cfg.build = build;
            assert_eq!(verdict(&cfg), baseline, "{name} under {driver}");
        }
    }
}
