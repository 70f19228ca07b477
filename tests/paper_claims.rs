//! Workspace-level integration tests: the paper's quantitative claims
//! at reduced scale, exercised through the public facade crate.

use compressionless_routing::prelude::*;

fn sweep_peak(routing: RoutingKind, protocol: ProtocolKind, seed: u64) -> f64 {
    let mut net = NetworkBuilder::new(KAryNCube::torus(8, 2))
        .routing(routing)
        .protocol(protocol)
        .buffer_depth(2)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.9)
        .warmup(1_500)
        .seed(seed)
        .build();
    net.run(8_000).accepted_flits_per_node_cycle
}

/// The paper's central performance claim: with equal resources (two
/// virtual channels, 2-flit buffers), CR's peak throughput beats
/// dimension-order routing on the 8x8 torus.
#[test]
fn cr_beats_dor_at_equal_resources() {
    let cr = sweep_peak(RoutingKind::Adaptive { vcs: 2 }, ProtocolKind::Cr, 5);
    let dor = sweep_peak(RoutingKind::Dor { lanes: 1 }, ProtocolKind::Baseline, 5);
    assert!(
        cr > dor * 1.1,
        "CR peak {cr:.3} should clearly beat DOR peak {dor:.3}"
    );
}

/// "A CR network with 2-flit deep buffers matches the performance of a
/// DOR network with 16-flit deep buffers" — the Fig. 14(a)/(b)
/// headline, checked at peak throughput.
#[test]
fn cr_shallow_buffers_match_deep_dor() {
    let cr2 = sweep_peak(RoutingKind::Adaptive { vcs: 2 }, ProtocolKind::Cr, 6);
    let dor16 = {
        let mut net = NetworkBuilder::new(KAryNCube::torus(8, 2))
            .routing(RoutingKind::Dor { lanes: 1 })
            .protocol(ProtocolKind::Baseline)
            .buffer_depth(16)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.9)
            .warmup(1_500)
            .seed(6)
            .build();
        net.run(8_000).accepted_flits_per_node_cycle
    };
    assert!(
        cr2 > dor16 * 0.85,
        "CR with 2-flit buffers ({cr2:.3}) should be in deep-DOR's league ({dor16:.3})"
    );
}

/// The builder applies the paper's timeout rule:
/// `timeout = message length x number of virtual channels`.
#[test]
fn default_timeout_follows_the_paper_rule() {
    let net = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 3 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.1)
        .build();
    assert_eq!(net.timeout(), 16 * 3);

    // An explicit timeout wins.
    let net = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 3 })
        .protocol(ProtocolKind::Cr)
        .timeout(77)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.1)
        .build();
    assert_eq!(net.timeout(), 77);
}

/// Padding overhead is independent of the virtual-channel count (the
/// paper: "since CR depends only on the distance in flits, padding
/// overhead is independent of the number of virtual channels").
#[test]
fn padding_overhead_is_vc_independent() {
    let overhead = |vcs: usize| {
        let mut net = NetworkBuilder::new(KAryNCube::torus(8, 2))
            .routing(RoutingKind::Adaptive { vcs })
            .protocol(ProtocolKind::Cr)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.1)
            .warmup(500)
            .seed(9)
            .build();
        net.run(4_000).pad_overhead()
    };
    let one = overhead(1);
    let four = overhead(4);
    assert!(one > 0.0, "8-flit messages on an 8x8 torus must pad");
    assert!(
        (one - four).abs() < 0.05,
        "pad overhead should not depend on VCs: {one:.3} vs {four:.3}"
    );
}

/// Messages longer than every path's `I_min` incur zero padding.
#[test]
fn long_messages_never_pad() {
    let mut net = NetworkBuilder::new(KAryNCube::torus(4, 2))
        .routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(64), 0.1)
        .warmup(200)
        .seed(10)
        .build();
    // diameter 4: I_min = 2 + 4*(2+1) = 14 << 64.
    let report = net.run(3_000);
    assert_eq!(report.counters.pad_flits_injected, 0);
    assert!(report.counters.payload_flits_injected > 0);
}

/// The experiments facade is reachable through the root crate and
/// produces consistent tables.
#[test]
fn experiments_run_through_the_facade() {
    use compressionless_routing::experiments::{fig09, Run, Scale};
    let res = fig09::run(
        &Run::new(Scale::Tiny),
        &fig09::Config {
            message_lengths: vec![8],
            seed: 3,
        },
    );
    assert_eq!(res.rows.len(), Scale::Tiny.loads().len());
    let table = res.to_string();
    assert!(table.contains("offered"));
}

/// Baseline DOR on a *mesh* needs only one VC class and still never
/// deadlocks (the torus is what forces the dateline scheme).
#[test]
fn dor_mesh_single_class_is_safe() {
    let mut net = NetworkBuilder::new(KAryNCube::mesh(4, 2))
        .routing(RoutingKind::Dor { lanes: 1 })
        .protocol(ProtocolKind::Baseline)
        .deadlock_threshold(2_000)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.35)
        .seed(12)
        .build();
    let report = net.run(15_000);
    assert!(!report.deadlocked);
    assert!(report.counters.messages_delivered > 300);
}

/// Tornado traffic on a torus is the classic DOR-killer; CR's
/// adaptivity sustains much more of it.
#[test]
fn cr_crushes_dor_on_tornado_traffic() {
    let peak = |routing, protocol| {
        let mut net = NetworkBuilder::new(KAryNCube::torus(8, 2))
            .routing(routing)
            .protocol(protocol)
            .traffic(TrafficPattern::Tornado, LengthDistribution::Fixed(16), 0.9)
            .warmup(1_500)
            .seed(13)
            .build();
        net.run(8_000).accepted_flits_per_node_cycle
    };
    let cr = peak(RoutingKind::Adaptive { vcs: 2 }, ProtocolKind::Cr);
    let dor = peak(RoutingKind::Dor { lanes: 1 }, ProtocolKind::Baseline);
    assert!(
        cr > dor,
        "adaptive CR ({cr:.3}) should beat DOR ({dor:.3}) on tornado"
    );
}

/// Why adaptivity wins: on skewed (transpose) traffic, CR's adaptive
/// routing spreads load across channels far more evenly than
/// dimension-order routing, whose fixed paths concentrate on a few
/// hot links.
#[test]
fn adaptive_routing_balances_channel_load() {
    let imbalance = |routing, protocol| {
        let mut net = NetworkBuilder::new(KAryNCube::torus(8, 2))
            .routing(routing)
            .protocol(protocol)
            .traffic(TrafficPattern::Transpose, LengthDistribution::Fixed(16), 0.3)
            .warmup(1_000)
            .seed(21)
            .build();
        net.run(6_000).channel_imbalance()
    };
    let cr = imbalance(RoutingKind::Adaptive { vcs: 2 }, ProtocolKind::Cr);
    let dor = imbalance(RoutingKind::Dor { lanes: 1 }, ProtocolKind::Baseline);
    assert!(
        cr < dor,
        "adaptive imbalance {cr:.2} should be below DOR's {dor:.2}"
    );
}
