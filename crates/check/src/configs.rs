//! The checked battery: sound configurations whose state space must
//! close violation-free, and `--mutate` variants with one unsound
//! knob each, whose violation the checker must find.
//!
//! Every configuration here is tiny on purpose — 2 to 5 nodes — so
//! the interleaving space is exhaustible, yet each one exercises a
//! different protocol pillar:
//!
//! | name            | proves                                              |
//! |-----------------|-----------------------------------------------------|
//! | `line2`         | base CR hand-shake, credits, exactly-once           |
//! | `ring3`         | kill/revive churn + source timeout + retransmit     |
//! | `mesh4`         | zero-VC ordered-detour routing around dead links    |
//! | `torus2x2-cr`   | CR deadlock recovery on a wrapped topology, 1 VC    |
//! | `torus2x2-fcr`  | FCR corruption detection + end-to-end retransmit    |
//!
//! The mutations each break one argument of the paper's
//! deadlock-freedom reasoning:
//!
//! | name                | broken knob                | expected violation |
//! |---------------------|----------------------------|--------------------|
//! | `no-padding`        | CR padding ablated         | deadlock           |
//! | `no-dateline`       | torus dateline discipline  | deadlock           |
//! | `disordered-detour` | detour ordering floor      | deadlock           |

use cr_core::check_api::{assemble_with_routing, CheckNet};
use cr_core::{
    Ablations, Network, NetworkBuilder, NetworkConfig, ProtocolKind, RetransmitScheme, RoutingKind,
};
use cr_faults::FaultModel;
use cr_router::routing::Candidate;
use cr_router::{DimensionOrder, RouteCtx, RoutingFunction};
use cr_sim::{PortId, VcId};
use cr_topology::{FullMesh, KAryNCube};

use crate::model::{CheckConfig, EnvEvent, EnvOp};

/// Watchdog threshold for all checker networks: long enough that CR's
/// kill/retransmit recovery always makes progress first, short enough
/// that genuinely dead mutant networks are flagged quickly.
const DEADLOCK_THRESHOLD: u64 = 300;

fn inject(src: u32, dst: u32, len: u32, lo: u64, hi: u64) -> EnvEvent {
    EnvEvent {
        op: EnvOp::Inject { src, dst, len },
        lo,
        hi,
    }
}

fn kill(link: u32, lo: u64, hi: u64) -> EnvEvent {
    EnvEvent {
        op: EnvOp::KillLink { link },
        lo,
        hi,
    }
}

fn revive(link: u32, lo: u64, hi: u64) -> EnvEvent {
    EnvEvent {
        op: EnvOp::ReviveLink { link },
        lo,
        hi,
    }
}

/// Wraps `net` the way the battery checks it: on the reference driver
/// (every component visited every cycle), so a closed state space
/// does not lean on the active-set scheduler being right.
/// `tests/drivers.rs` closes the same configurations through the
/// other drivers and demands the same verdicts.
fn check_net(mut net: Network) -> CheckNet {
    net.set_reference_stepper(true);
    CheckNet::new(net)
}

fn line2_net() -> CheckNet {
    check_net(
        NetworkBuilder::new(KAryNCube::mesh(2, 1))
            .routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .timeout(8)
            .retransmit(RetransmitScheme::StaticGap { gap: 6 })
            .deadlock_threshold(DEADLOCK_THRESHOLD)
            .warmup(0)
            .seed(1)
            .build(),
    )
}

/// The `ring3` network, unbuilt.
pub fn ring3_builder() -> NetworkBuilder {
    let mut b = NetworkBuilder::new(KAryNCube::torus(3, 1));
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .buffer_depth(2)
        .timeout(8)
        .retransmit(RetransmitScheme::StaticGap { gap: 6 })
        .deadlock_threshold(DEADLOCK_THRESHOLD)
        .warmup(0)
        .seed(1);
    b
}

fn ring3_net() -> CheckNet {
    check_net(ring3_builder().build())
}

fn mesh4_net() -> CheckNet {
    check_net(
        NetworkBuilder::new(FullMesh::new(4))
            .routing(RoutingKind::FullMeshOrdered)
            .protocol(ProtocolKind::Baseline)
            .buffer_depth(2)
            .deadlock_threshold(DEADLOCK_THRESHOLD)
            .warmup(0)
            .seed(1)
            .build(),
    )
}

/// The `torus2x2-*` network under `protocol`, unbuilt.
pub fn torus2x2_builder(protocol: ProtocolKind) -> NetworkBuilder {
    let mut b = NetworkBuilder::new(KAryNCube::torus(2, 2));
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(protocol)
        .buffer_depth(1)
        .inject_depth(2)
        .timeout(6)
        .retransmit(RetransmitScheme::StaticGap { gap: 4 })
        .deadlock_threshold(DEADLOCK_THRESHOLD)
        .warmup(0)
        .seed(1);
    b
}

fn torus2x2_cr_net() -> CheckNet {
    check_net(torus2x2_builder(ProtocolKind::Cr).build())
}

fn torus2x2_fcr_net() -> CheckNet {
    check_net(torus2x2_builder(ProtocolKind::Fcr).build())
}

/// The sound battery: every configuration must close its state space
/// with zero violations.
pub fn all_configs() -> Vec<CheckConfig> {
    vec![
        CheckConfig {
            name: "line2",
            about: "2-node line, CR, adaptive 1 VC: base hand-shake and exactly-once",
            build: line2_net,
            events: vec![inject(0, 1, 2, 0, 1), inject(1, 0, 2, 0, 1)],
            expect_violation: false,
            require_all_delivered: true,
            max_cycles: 2_000,
        },
        CheckConfig {
            name: "ring3",
            about: "3-ring, CR: a link dies under traffic and revives; timeout + retransmit recover",
            build: ring3_net,
            events: vec![
                inject(0, 1, 2, 0, 2),
                inject(1, 2, 2, 0, 2),
                // Link 0 is node 0's +direction channel, i.e. 0 -> 1:
                // the *only* minimal channel for the first flow. In
                // kill-before-inject interleavings the worm blocks at
                // the source, times out, and retries until the revival.
                kill(0, 0, 1),
                revive(0, 12, 14),
            ],
            expect_violation: false,
            require_all_delivered: true,
            max_cycles: 2_000,
        },
        CheckConfig {
            name: "mesh4",
            about: "4-node full mesh, plain wormhole + ordered detours: routes around 3 dead links, 0 VCs to spare",
            build: mesh4_net,
            events: vec![
                // Each flow's direct channel dies before traffic
                // starts (forced-fire windows guarantee the order), so
                // delivery requires an ordered detour.
                kill(0, 0, 1), // 0 -> 1
                kill(6, 0, 1), // 2 -> 0
                kill(4, 0, 1), // 1 -> 2
                inject(0, 1, 2, 1, 2),
                inject(2, 0, 2, 1, 2),
                inject(1, 2, 2, 1, 2),
            ],
            expect_violation: false,
            require_all_delivered: true,
            max_cycles: 2_000,
        },
        CheckConfig {
            name: "torus2x2-cr",
            about: "2x2 torus, CR, adaptive 1 VC, 1-flit buffers: dead channels + contention force timeouts and retransmits",
            build: torus2x2_cr_net,
            events: vec![
                // Links 0 and 1 are node 0's two x-channels — *both*
                // routes of the one-hop 0 -> 1 flow. Killed before the
                // inject (in some interleavings) that worm has no live
                // minimal port: it must time out at the source and
                // retransmit until the revivals land.
                inject(0, 1, 2, 0, 2),
                inject(1, 0, 2, 0, 2),
                inject(0, 3, 2, 0, 2),
                inject(3, 0, 2, 0, 2),
                kill(0, 0, 1),
                kill(1, 0, 1),
                revive(0, 8, 10),
                revive(1, 8, 10),
            ],
            expect_violation: false,
            require_all_delivered: true,
            max_cycles: 3_000,
        },
        CheckConfig {
            name: "torus2x2-fcr",
            about: "2x2 torus, FCR: channels die mid-worm, corruption is detected and killed, retransmit redelivers",
            build: torus2x2_fcr_net,
            events: vec![
                // Both x-channels out of node 0 die while the 0 -> 1
                // worm may still be streaming: trailing flits arrive
                // corrupted, FCR's detection kills the worm, and the
                // source retries (blocked, hence timing out) until the
                // revivals land. FCR must still deliver exactly once
                // and never deliver a corrupt payload.
                inject(0, 1, 2, 0, 2),
                inject(1, 0, 2, 0, 2),
                kill(0, 2, 3),
                kill(1, 2, 3),
                revive(0, 10, 12),
                revive(1, 10, 12),
            ],
            expect_violation: false,
            require_all_delivered: true,
            max_cycles: 3_000,
        },
    ]
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

fn no_padding_net() -> CheckNet {
    check_net(
        NetworkBuilder::new(KAryNCube::torus(5, 1))
            .routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .buffer_depth(1)
            .inject_depth(2)
            .timeout(6)
            .retransmit(RetransmitScheme::StaticGap { gap: 4 })
            .deadlock_threshold(DEADLOCK_THRESHOLD)
            .warmup(0)
            .seed(1)
            .ablations(Ablations {
                disable_padding: true,
                ..Ablations::default()
            })
            .build(),
    )
}

fn no_dateline_net() -> CheckNet {
    // Dimension-order routing with the *mesh* discipline planted on a
    // torus: minimal paths still take wraparound channels, but nobody
    // switches virtual-channel class at the dateline, so the channel
    // dependency graph keeps its ring cycle.
    let cfg = NetworkConfig {
        routing: RoutingKind::Dor { lanes: 1 },
        protocol: ProtocolKind::Baseline,
        buffer_depth: 1,
        inject_depth: 2,
        deadlock_threshold: DEADLOCK_THRESHOLD,
        warmup: 0,
        seed: 1,
        ..NetworkConfig::default()
    };
    check_net(assemble_with_routing(
        Box::new(KAryNCube::torus(5, 1)),
        cfg,
        Box::new(DimensionOrder::mesh(1)),
        FaultModel::new(),
    ))
}

/// [`cr_router::FullMeshOrdered`] with its ordering floor removed:
/// detours may pass through *any* live intermediate, not only ones
/// indexed above both endpoints. The floor is the entire
/// deadlock-freedom argument (every dependency chain has length <= 1);
/// without it three detouring worms can close a channel cycle.
///
/// Deliberately deterministic (no rotation among detours): the first
/// listed candidate is taken, so the checker's counterexample is a
/// clean 3-worm cycle.
#[derive(Debug, Clone, Default)]
struct DisorderedDetour;

impl RoutingFunction for DisorderedDetour {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        let vc = VcId::new(0);
        for port in ctx.live_minimal_ports() {
            out.push(Candidate {
                port,
                vc,
                escape: false,
            });
        }
        if ctx.flit.hops > 0 {
            // Same restriction as the sound scheme: at most one detour.
            return;
        }
        for p in 0..ctx.topo.num_ports(ctx.node) {
            let port = PortId::new(p as u16);
            if ctx.dead_out.get(p).copied().unwrap_or(false) {
                continue;
            }
            let Some(mid) = ctx.topo.neighbor(ctx.node, port) else {
                continue;
            };
            // The sound scheme demands mid > max(node, dst) here; the
            // mutation accepts any intermediate.
            if mid != ctx.flit.dst {
                out.push(Candidate {
                    port,
                    vc,
                    escape: false,
                });
            }
        }
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "disordered detour (mutated)"
    }
}

fn disordered_detour_net() -> CheckNet {
    let cfg = NetworkConfig {
        routing: RoutingKind::FullMeshOrdered,
        protocol: ProtocolKind::Baseline,
        buffer_depth: 1,
        inject_depth: 2,
        deadlock_threshold: DEADLOCK_THRESHOLD,
        warmup: 0,
        seed: 1,
        ..NetworkConfig::default()
    };
    check_net(assemble_with_routing(
        Box::new(FullMesh::new(4)),
        cfg,
        Box::new(DisorderedDetour),
        FaultModel::new(),
    ))
}

/// The falsification battery: each configuration disables one
/// soundness ingredient, and the checker must find the resulting
/// violation.
pub fn mutations() -> Vec<CheckConfig> {
    // Five worms around a 5-ring, each two hops clockwise: worm i
    // holds channel (i, i+1) while waiting for (i+1, i+2) — the
    // classic cyclic pattern CR's padding/kill machinery resolves.
    let ring_cycle_traffic: Vec<EnvEvent> = (0..5)
        .map(|i| inject(i, (i + 2) % 5, 3, 0, 1))
        .collect();
    vec![
        CheckConfig {
            name: "no-padding",
            about: "CR with padding ablated: 3-flit worms fully inject uncommitted, the 5-worm ring cycle becomes unkillable",
            build: no_padding_net,
            events: ring_cycle_traffic.clone(),
            expect_violation: true,
            require_all_delivered: true,
            max_cycles: 2_000,
        },
        CheckConfig {
            name: "no-dateline",
            about: "dimension-order routing on a torus without the dateline VC switch: wraparound closes the channel-dependency cycle",
            build: no_dateline_net,
            events: ring_cycle_traffic,
            expect_violation: true,
            require_all_delivered: true,
            max_cycles: 2_000,
        },
        CheckConfig {
            name: "disordered-detour",
            about: "ordered-detour routing without the ordering floor: three detouring worms close a 3-channel cycle",
            build: disordered_detour_net,
            events: vec![
                kill(0, 0, 1), // 0 -> 1
                kill(6, 0, 1), // 2 -> 0
                kill(4, 0, 1), // 1 -> 2
                inject(0, 1, 3, 1, 2),
                inject(2, 0, 3, 1, 2),
                inject(1, 2, 3, 1, 2),
            ],
            expect_violation: true,
            require_all_delivered: true,
            max_cycles: 2_000,
        },
    ]
}

/// Looks `name` up among sound configurations and mutations alike.
pub fn find(name: &str) -> Option<CheckConfig> {
    all_configs()
        .into_iter()
        .chain(mutations())
        .find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::check_api::ProtocolStep;

    #[test]
    fn names_are_unique_and_findable() {
        let mut names: Vec<&str> = all_configs()
            .iter()
            .chain(mutations().iter())
            .map(|c| c.name)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate configuration name");
        for n in names {
            assert!(find(n).is_some());
        }
        assert!(find("no-such-config").is_none());
    }

    #[test]
    fn expectations_are_partitioned() {
        assert!(all_configs().iter().all(|c| !c.expect_violation));
        assert!(mutations().iter().all(|c| c.expect_violation));
    }

    #[test]
    fn every_config_builds_and_validates_events() {
        for c in all_configs().into_iter().chain(mutations()) {
            let net = (c.build)();
            assert_eq!(net.now().as_u64(), 0, "{}: fresh build must start at 0", c.name);
            for ev in &c.events {
                assert!(ev.lo <= ev.hi, "{}: bad window", c.name);
            }
        }
    }
}
