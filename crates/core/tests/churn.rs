//! Live fault churn regression tests (DESIGN.md §13).
//!
//! Churn events fire at cycle boundaries, before any phase, under
//! both drivers, so the reference driver and the active-set driver
//! must stay byte-identical under any kill/revive schedule. These
//! tests pin the specific hazards churn introduced:
//!
//! * a run that starts fault-free, loses links mid-run and gets them
//!   back must not depend on anything decided while it was fault-free;
//! * fast-forward must treat the next churn entry as a wake source and
//!   never jump past a scheduled event, even on a totally idle fabric;
//! * a revive must re-wake the upstream router so a worm parked behind
//!   the dead port resumes under the active scheduler;
//! * after a kill-and-revive storm drains, no credits leak: every
//!   node-port credit counter is back at `buffer_depth +
//!   channel_latency`.

use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
use cr_faults::ChurnSchedule;
use cr_sim::trace::Event;
use cr_sim::{Cycle, NodeId, PortId, VcId};
use cr_topology::{KAryNCube, Topology};
use cr_traffic::{LengthDistribution, TrafficPattern};

/// A mid-sized torus link chosen from the topology's own link table,
/// so the id is valid whatever the id-assignment scheme.
fn nth_link(topo: &dyn Topology, n: usize) -> cr_sim::LinkId {
    topo.links()[n].id
}

/// Builds the standard churn test fixture: 4x4 torus, FCR with
/// misrouting (the protocol that detects faults, so dead links
/// actually matter to the arrivals phase), uniform traffic.
fn fcr_builder(seed: u64) -> NetworkBuilder {
    let mut b = NetworkBuilder::new(KAryNCube::torus(4, 2));
    b.routing(RoutingKind::AdaptiveMisroute {
        vcs: 1,
        extra_hops: 4,
    })
    .protocol(ProtocolKind::Fcr)
    .warmup(0)
    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
    .trace(4096)
    .seed(seed);
    b
}

/// A run that goes fault-free → faulty → fault-free under a
/// fault-detecting protocol must stay byte-identical, report and trace
/// stream, between the reference and the active-set driver: arrivals
/// read the live fault model from exactly the churn cycle on, and stop
/// seeing the dead links on the revive.
#[test]
fn mid_run_kill_is_stepper_identical() {
    let topo = KAryNCube::torus(4, 2);
    let mut schedule = ChurnSchedule::new();
    schedule
        .kill_link(Cycle::new(200), nth_link(&topo, 5))
        .kill_link(Cycle::new(350), nth_link(&topo, 17))
        .revive_link(Cycle::new(600), nth_link(&topo, 5))
        .revive_link(Cycle::new(700), nth_link(&topo, 17));

    let build = || {
        let mut b = fcr_builder(0xC0);
        b.churn(schedule.clone());
        b
    };

    let mut dense = build().build();
    dense.set_reference_stepper(true);
    let d = dense.run(1200).to_json();

    let mut active = build().build();
    let report = active.run(1200);
    assert_eq!(report.churn.events.len(), 4, "every kill and revive fired");
    let a = report.to_json();

    assert!(d == a, "dense vs active under churn:\n{d}\n{a}");
    assert_eq!(dense.now(), active.now());
    assert_eq!(
        dense.take_trace_events(),
        active.take_trace_events(),
        "trace streams differ"
    );
}

/// Fast-forward must never sleep past a scheduled churn event. On a
/// totally idle network (no sources, nothing in flight) the active
/// stepper jumps straight between wake sources — pending churn has to
/// be one of them, and the report must show each event applied at
/// exactly its scheduled cycle.
#[test]
fn fast_forward_never_skips_churn_events() {
    let topo = KAryNCube::torus(4, 2);
    let link = nth_link(&topo, 3);
    let mut schedule = ChurnSchedule::new();
    schedule
        .kill_link(Cycle::new(500), link)
        .revive_link(Cycle::new(1500), link);

    let mut b = NetworkBuilder::new(KAryNCube::torus(4, 2));
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Fcr)
        .warmup(0)
        .trace(64)
        .seed(7)
        .churn(schedule);
    let mut net = b.build();
    assert!(!net.is_reference_stepper(), "must exercise fast-forward");

    let report = net.run(3000);
    assert_eq!(net.now(), Cycle::new(3000));

    // The effective apply cycle recorded in the report equals the
    // scheduled cycle — the jump clamped to the event, stepped it, and
    // only then resumed skipping.
    assert_eq!(report.churn.events.len(), 2);
    assert_eq!(report.churn.events[0].at, 500);
    assert_eq!(report.churn.events[0].kind, "kill_link");
    assert_eq!(report.churn.events[0].links_killed, 1);
    assert!(report.churn.events[0].drained, "idle kill drains instantly");
    assert_eq!(report.churn.events[0].time_to_drain, 0);
    assert_eq!(report.churn.events[1].at, 1500);
    assert_eq!(report.churn.events[1].kind, "revive_link");
    assert_eq!(report.churn.events[1].links_revived, 1);

    // And the trace stream carries the structured events at the same
    // cycles.
    let events = net.take_trace_events();
    let churn_events: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::LinkKilled { .. } | Event::LinkRevived { .. }))
        .collect();
    assert_eq!(churn_events.len(), 2);
    assert!(
        matches!(churn_events[0], Event::LinkKilled { at, link: l } if *at == Cycle::new(500) && *l == link)
    );
    assert!(
        matches!(churn_events[1], Event::LinkRevived { at, link: l } if *at == Cycle::new(1500) && *l == link)
    );
}

/// A no-op schedule entry (reviving a live link) fires, is reported,
/// and changes nothing — the network must match a churn-free twin
/// byte-for-byte except for the churn block itself.
#[test]
fn no_op_revive_leaves_run_unchanged() {
    let topo = KAryNCube::torus(4, 2);
    let mut schedule = ChurnSchedule::new();
    schedule.revive_link(Cycle::new(100), nth_link(&topo, 2));

    let mut plain = fcr_builder(0xAB).build();
    let mut churned = {
        let mut b = fcr_builder(0xAB);
        b.churn(schedule);
        b.build()
    };
    let a = plain.run(800);
    let b = churned.run(800);
    assert_eq!(b.churn.events.len(), 1);
    assert_eq!(b.churn.events[0].links_revived, 0, "no-op must not count");
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.latency.count(), b.latency.count());
    assert_eq!(
        plain.take_trace_events(),
        churned.take_trace_events(),
        "a no-op revive must not perturb the protocol event stream"
    );
}

/// Kill-and-revive storm under FCR with scheduled traffic: after the
/// storm passes and the network drains, every message was delivered
/// exactly once, nothing is left in flight, and every node-port
/// credit counter is back at full (`buffer_depth + channel_latency`)
/// — the zero-leaked-credits invariant.
#[test]
fn storm_drains_exactly_once_with_zero_leaked_credits() {
    let topo = KAryNCube::torus(4, 2);
    let mut schedule = ChurnSchedule::new();
    for (i, n) in [3usize, 9, 14, 21].iter().enumerate() {
        let at = 60 + 40 * i as u64;
        schedule.kill_link(Cycle::new(at), nth_link(&topo, *n));
        schedule.revive_link(Cycle::new(at + 300), nth_link(&topo, *n));
    }

    let mut b = NetworkBuilder::new(KAryNCube::torus(4, 2));
    b.routing(RoutingKind::AdaptiveMisroute {
        vcs: 1,
        extra_hops: 4,
    })
    .protocol(ProtocolKind::Fcr)
    .warmup(0)
    .trace(1 << 14)
    .seed(0x57)
    .churn(schedule);
    let mut net = b.build();
    net.set_record_deliveries(true);

    // Scheduled traffic (not Bernoulli) so the offered set is finite
    // and exactly-once is checkable: waves of messages injected
    // throughout the storm window (kills at 60..180, revives at
    // 360..480), so traffic is alive across every event.
    let mut events = Vec::new();
    for wave in 0..7u64 {
        for src in 0..16u32 {
            events.push(cr_traffic::TraceEvent {
                at: Cycle::new(wave * 100),
                src: NodeId::new(src),
                dst: NodeId::new((src + 1 + 5 * (wave as u32 % 3)) % 16),
                length: 8,
            });
        }
    }
    let offered = events.len() as u64;
    net.schedule_trace(&cr_traffic::Trace::from_events(events));

    assert!(
        net.run_until_quiescent(60_000),
        "storm run failed to drain: {} flits in flight at {}",
        net.flits_in_flight(),
        net.now()
    );

    // Exactly once: every offered message delivered, no duplicates
    // accepted. Message ids are dense and monotonic, so the delivered
    // set must be exactly 0..offered.
    assert_eq!(net.counters().messages_generated, offered);
    let log = net.take_delivery_log();
    let mut delivered: Vec<_> = log.iter().map(|d| d.id.as_u64()).collect();
    delivered.sort_unstable();
    let dups = delivered.windows(2).filter(|w| w[0] == w[1]).count();
    assert_eq!(dups, 0, "duplicate deliveries reached a receiver");
    assert_eq!(
        delivered,
        (0..offered).collect::<Vec<_>>(),
        "delivered set != offered set"
    );

    // Every churn event's affected messages eventually drained.
    let report = net.report();
    assert_eq!(report.churn.events.len(), 8);
    assert!(
        report.churn.events.iter().all(|e| e.drained),
        "undrained churn event: {report}"
    );
    assert_eq!(report.flits_in_flight, 0);

    // Zero leaked credits: with the fabric empty, every node-port
    // output credit counter is back at its full value.
    let full = net.config().buffer_depth + net.config().channel_latency as usize;
    for n in 0..16u32 {
        let node = NodeId::new(n);
        let router = net.router(node);
        for p in 0..net.topology().num_ports(node) {
            let port = PortId::new(p as u16);
            let got = router.credits(port, VcId::new(0));
            assert_eq!(
                got, full,
                "node {n} port {p}: {got} credits after drain, expected {full}"
            );
        }
    }
}
