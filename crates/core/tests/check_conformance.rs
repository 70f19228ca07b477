//! Conformance between the model checker's transition API and the
//! ordinary simulation front door.
//!
//! The `cr-check` model checker drives networks through
//! [`cr_core::check_api::ProtocolStep`]: injections via
//! `inject`, faults via `kill_link_now` / `revive_link_now`, time via
//! `tick`. The regular simulator drives the *same* `Network` through
//! `send_message`, a [`ChurnSchedule`] and `step`. If those two doors
//! ever diverge, the checker proves theorems about a machine nobody
//! runs — so this property test twin-runs randomly generated tiny
//! scenarios through both and requires identical outcomes: per-flow
//! delivery/corruption tallies, the full counter block, the clock and
//! the quiescence verdict.

use std::collections::BTreeMap;

use cr_core::check_api::{CheckNet, DeliveryCount, FlowKey, ProtocolStep};
use cr_core::{Network, NetworkBuilder, ProtocolKind, RetransmitScheme, RoutingKind};
use cr_faults::ChurnSchedule;
use cr_sim::check::{check, Config};
use cr_sim::{Cycle, LinkId, NodeId};
use cr_topology::{KAryNCube, Topology};

/// One externally scheduled action, in the shape both doors accept.
#[derive(Debug, Clone, Copy)]
enum Op {
    Inject { src: u32, dst: u32, len: u32 },
    Kill { link: u32 },
    Revive { link: u32 },
}

const RUN_CYCLES: u64 = 200;

fn build(topo_pick: usize, fcr: bool) -> NetworkBuilder {
    let topo: Box<dyn Topology> = match topo_pick {
        0 => Box::new(KAryNCube::torus(2, 1)),
        1 => Box::new(KAryNCube::torus(3, 1)),
        _ => Box::new(KAryNCube::torus(2, 2)),
    };
    let mut b = NetworkBuilder::new_boxed(topo);
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(if fcr { ProtocolKind::Fcr } else { ProtocolKind::Cr })
        .buffer_depth(2)
        .timeout(8)
        .retransmit(RetransmitScheme::StaticGap { gap: 6 })
        .deadlock_threshold(10_000)
        .warmup(0)
        .seed(7);
    b
}

fn num_links(topo_pick: usize) -> u32 {
    match topo_pick {
        0 => 4,  // 2-node ring: two parallel channels each way
        1 => 6,  // 3-ring: 2 channels per node
        _ => 16, // 2x2 torus: 4 channels per node
    }
}

fn num_nodes(topo_pick: usize) -> u32 {
    match topo_pick {
        0 => 2,
        1 => 3,
        _ => 4,
    }
}

/// Drives a fresh network through the checker door.
fn run_checker_door(
    topo_pick: usize,
    fcr: bool,
    schedule: &[(u64, Op)],
) -> (BTreeMap<FlowKey, DeliveryCount>, cr_core::NetCounters, u64, bool) {
    let mut net = CheckNet::new(build(topo_pick, fcr).build());
    for cycle in 0..RUN_CYCLES {
        for &(at, op) in schedule {
            if at != cycle {
                continue;
            }
            match op {
                Op::Inject { src, dst, len } => {
                    net.inject(NodeId::new(src), NodeId::new(dst), len);
                }
                Op::Kill { link } => net.kill_link_now(LinkId::new(link)),
                Op::Revive { link } => net.revive_link_now(LinkId::new(link)),
            }
        }
        net.tick();
    }
    let quiescent = net.network().flits_in_flight() == 0;
    let deliveries = net.deliveries().clone();
    let counters = *net.network().counters();
    (deliveries, counters, net.now().as_u64(), quiescent)
}

/// Drives a fresh network through the ordinary front door.
fn run_front_door(
    topo_pick: usize,
    fcr: bool,
    schedule: &[(u64, Op)],
) -> (BTreeMap<FlowKey, DeliveryCount>, cr_core::NetCounters, u64, bool) {
    let mut churn = ChurnSchedule::new();
    for &(at, op) in schedule {
        match op {
            Op::Kill { link } => {
                churn.kill_link(Cycle::new(at), LinkId::new(link));
            }
            Op::Revive { link } => {
                churn.revive_link(Cycle::new(at), LinkId::new(link));
            }
            Op::Inject { .. } => {}
        }
    }
    let mut net: Network = build(topo_pick, fcr).churn(churn).build();
    net.set_reference_stepper(true);
    net.set_record_deliveries(true);

    let mut deliveries: BTreeMap<FlowKey, DeliveryCount> = BTreeMap::new();
    for cycle in 0..RUN_CYCLES {
        for &(at, op) in schedule {
            if at != cycle {
                continue;
            }
            if let Op::Inject { src, dst, len } = op {
                net.send_message(NodeId::new(src), NodeId::new(dst), len);
            }
        }
        net.step();
        for d in net.take_delivery_log() {
            let e = deliveries
                .entry((d.src.as_u32(), d.dst.as_u32(), d.msg_seq))
                .or_default();
            e.delivered += 1;
            if d.corrupt {
                e.corrupt += 1;
            }
        }
    }
    let quiescent = net.flits_in_flight() == 0;
    let counters = *net.counters();
    (deliveries, counters, net.now().as_u64(), quiescent)
}

#[test]
fn protocol_step_matches_front_door() {
    check("protocol_step_matches_front_door", Config::default(), |src| {
        let topo_pick = src.usize_in(0..3);
        let fcr = src.usize_in(0..2) == 1;
        let nodes = num_nodes(topo_pick);
        let links = num_links(topo_pick);

        let mut schedule: Vec<(u64, Op)> = Vec::new();
        for _ in 0..src.usize_in(1..4) {
            let s = src.usize_in(0..nodes as usize) as u32;
            let mut d = src.usize_in(0..nodes as usize) as u32;
            if d == s {
                d = (d + 1) % nodes;
            }
            let len = src.usize_in(2..6) as u32;
            schedule.push((src.usize_in(0..6) as u64, Op::Inject { src: s, dst: d, len }));
        }
        for _ in 0..src.usize_in(0..3) {
            let link = src.usize_in(0..links as usize) as u32;
            let at = src.usize_in(0..6) as u64;
            let back = at + 1 + src.usize_in(0..8) as u64;
            schedule.push((at, Op::Kill { link }));
            schedule.push((back, Op::Revive { link }));
        }
        // Both doors apply same-cycle actions in schedule order; sort
        // by cycle, keeping that order stable for ties.
        schedule.sort_by_key(|&(at, _)| at);

        let a = run_checker_door(topo_pick, fcr, &schedule);
        let b = run_front_door(topo_pick, fcr, &schedule);
        assert_eq!(a.0, b.0, "per-flow delivery outcomes diverge");
        assert_eq!(a.1, b.1, "counters diverge");
        assert_eq!(a.2, b.2, "clocks diverge");
        assert_eq!(a.3, b.3, "quiescence verdicts diverge");
    });
}
