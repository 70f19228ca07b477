//! Tests of the `Network` public API surface: validation, accessors,
//! bookkeeping — the things the scenario tests don't poke directly.

use cr_core::{NetworkBuilder, ProtocolKind, RetransmitScheme, RoutingKind};
use cr_sim::NodeId;
use cr_topology::{GraphTopology, KAryNCube};
use cr_traffic::{LengthDistribution, TrafficPattern};

fn quiet_net() -> cr_core::Network {
    NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .warmup(0)
        .seed(1)
        .build()
}

#[test]
#[should_panic]
fn self_addressed_message_rejected() {
    let mut net = quiet_net();
    net.send_message(NodeId::new(3), NodeId::new(3), 8);
}

#[test]
#[should_panic]
fn out_of_range_destination_rejected() {
    let mut net = quiet_net();
    net.send_message(NodeId::new(0), NodeId::new(99), 8);
}

#[test]
#[should_panic]
fn one_flit_message_rejected() {
    let mut net = quiet_net();
    net.send_message(NodeId::new(0), NodeId::new(1), 1);
}

#[test]
fn message_ids_are_unique_and_sequential_counters_work() {
    let mut net = quiet_net();
    let a = net.send_message(NodeId::new(0), NodeId::new(1), 4);
    let b = net.send_message(NodeId::new(0), NodeId::new(1), 4);
    let c = net.send_message(NodeId::new(2), NodeId::new(1), 4);
    assert_ne!(a, b);
    assert_ne!(b, c);
    assert_eq!(net.counters().messages_generated, 3);
}

#[test]
fn delivery_log_respects_toggle() {
    let mut net = quiet_net();
    net.send_message(NodeId::new(0), NodeId::new(5), 6);
    assert!(net.run_until_quiescent(10_000));
    assert!(net.take_delivery_log().is_empty(), "off by default");

    net.set_record_deliveries(true);
    net.send_message(NodeId::new(0), NodeId::new(5), 6);
    assert!(net.run_until_quiescent(10_000));
    assert_eq!(net.take_delivery_log().len(), 1);
    assert!(net.take_delivery_log().is_empty(), "log drains");
}

#[test]
fn report_is_available_mid_run() {
    let mut net = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
        .warmup(100)
        .seed(2)
        .build();
    for _ in 0..500 {
        net.step();
    }
    let early = net.report();
    for _ in 0..500 {
        net.step();
    }
    let late = net.report();
    assert_eq!(early.cycles, 500);
    assert_eq!(late.cycles, 1000);
    assert!(late.counters.messages_delivered >= early.counters.messages_delivered);
}

#[test]
fn accessors_expose_components() {
    let net = quiet_net();
    assert_eq!(net.topology().num_nodes(), 16);
    assert_eq!(net.now().as_u64(), 0);
    assert!(!net.is_deadlocked());
    assert_eq!(net.flits_in_flight(), 0);
    let r = net.router(NodeId::new(7));
    assert_eq!(r.node(), NodeId::new(7));
    let rx = net.receiver(NodeId::new(7));
    assert_eq!(rx.node(), NodeId::new(7));
    let inj = net.injector(NodeId::new(7), 0);
    assert!(inj.is_drained());
    // Debug output is informative.
    let dbg = format!("{net:?}");
    assert!(dbg.contains("torus"));
}

#[test]
#[should_panic]
fn dor_on_irregular_graph_rejected() {
    let g = GraphTopology::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let _ = NetworkBuilder::new(g)
        .routing(RoutingKind::Dor { lanes: 1 })
        .protocol(ProtocolKind::Baseline)
        .build();
}

#[test]
#[should_panic]
fn path_wide_requires_cr() {
    let _ = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Dor { lanes: 1 })
        .protocol(ProtocolKind::Baseline)
        .path_wide(32)
        .build();
}

#[test]
fn builder_is_reusable() {
    // Non-consuming builder: build twice, identical networks.
    let mut b = NetworkBuilder::new(KAryNCube::torus(4, 2));
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
        .seed(5);
    let r1 = b.build().run(2_000);
    let r2 = b.build().run(2_000);
    assert_eq!(
        r1.counters.messages_delivered,
        r2.counters.messages_delivered
    );
}

#[test]
fn retransmit_scheme_is_configurable() {
    let mut net = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .retransmit(RetransmitScheme::StaticGap { gap: 4 })
        .timeout(8)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.4)
        .warmup(200)
        .seed(6)
        .build();
    let report = net.run(5_000);
    assert!(report.counters.retransmissions > 0);
    assert!(!report.deadlocked);
}

#[test]
fn mesh_networks_work_end_to_end() {
    let mut net = NetworkBuilder::new(KAryNCube::mesh(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
        .warmup(200)
        .seed(7)
        .build();
    let report = net.run(4_000);
    assert!(!report.deadlocked);
    assert!(report.counters.messages_delivered > 100);
}

#[test]
fn deep_channels_change_i_min_and_pad_more() {
    let pad_at = |latency: u64| {
        let mut net = NetworkBuilder::new(KAryNCube::torus(4, 2))
            .routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .channel_latency(latency)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.1)
            .warmup(200)
            .seed(8)
            .build();
        net.run(4_000).pad_overhead()
    };
    assert!(
        pad_at(4) > pad_at(1),
        "deeper channels store more flits, so I_min and padding grow"
    );
}

#[test]
fn dor_on_hypercube_is_ecube_and_safe() {
    // The hypercube has no wraparound channels, so dimension-order
    // routing degenerates to classic e-cube: deadlock-free with a
    // single virtual channel class.
    let mut net = NetworkBuilder::new(cr_topology::Hypercube::new(4))
        .routing(RoutingKind::Dor { lanes: 1 })
        .protocol(ProtocolKind::Baseline)
        .deadlock_threshold(2_000)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.3)
        .warmup(200)
        .seed(41)
        .build();
    let report = net.run(8_000);
    assert!(!report.deadlocked);
    assert!(report.counters.messages_delivered > 400);
    assert_eq!(report.total_kills(), 0);
}

#[test]
fn cr_works_in_three_dimensions() {
    // 4-ary 3-cube torus: 64 nodes, six ports each. Nothing about CR
    // is dimension-specific; this exercises the >2D code paths.
    let mut net = NetworkBuilder::new(KAryNCube::torus(4, 3))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(12), 0.25)
        .warmup(500)
        .seed(43)
        .build();
    let report = net.run(6_000);
    assert!(!report.deadlocked);
    assert!(report.counters.messages_delivered > 800);
    assert_eq!(report.counters.corrupt_payload_delivered, 0);
}

#[test]
fn trace_scheduling_composes_with_bernoulli_traffic() {
    use cr_traffic::Trace;
    let mut net = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.1)
        .warmup(0)
        .seed(45)
        .build();
    let topo = KAryNCube::torus(4, 2);
    let trace = Trace::neighbor_exchange(&topo, 2, 300, 8);
    net.schedule_trace(&trace);
    assert_eq!(net.scheduled_len(), trace.len());
    let report = net.run(3_000);
    assert_eq!(net.scheduled_len(), 0, "all events fired");
    // Background traffic (~0.1 * 16 * 3000 / 8 = 600 msgs) plus the
    // trace's 128 messages, minus whatever is still in flight.
    assert!(report.counters.messages_generated as usize >= trace.len());
    assert!(!report.deadlocked);
}

/// A 256×256 torus has 2³² flows; the per-flow sequence counters must
/// be sparse for it to assemble at all (a dense table is 32 GiB), and
/// must still number each flow's messages 0, 1, 2, … independently.
#[test]
fn torus_256x256_assembles_and_numbers_flows() {
    let topo = KAryNCube::torus(256, 2);
    let (a, b, c) = (
        topo.node_at(&[0, 0]),
        topo.node_at(&[3, 2]),
        topo.node_at(&[255, 255]),
    );
    let mut net = NetworkBuilder::new(topo)
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .warmup(0)
        .seed(1)
        .build();
    net.set_record_deliveries(true);
    net.send_message(a, b, 4);
    net.send_message(a, b, 4);
    net.send_message(c, a, 4);
    net.send_message(a, b, 4);
    assert!(net.run_until_quiescent(10_000));
    let mut seqs: Vec<_> = net
        .take_delivery_log()
        .iter()
        .map(|d| (d.src, d.dst, d.msg_seq))
        .collect();
    seqs.sort();
    assert_eq!(seqs, vec![(a, b, 0), (a, b, 1), (a, b, 2), (c, a, 0)]);
}
