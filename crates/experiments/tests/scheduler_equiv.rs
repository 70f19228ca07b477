//! The active-set scheduler must be byte-identical to the dense
//! reference stepper.
//!
//! `Network` runs with active-set scheduling and cycle fast-forward by
//! default; `set_reference_stepper(true)` switches the same network to
//! the dense sweep-everything stepper (DESIGN.md §10). These tests
//! twin-run tiny versions of the paper's figure configurations — plus
//! a faulty FCR sweep — through both steppers and demand:
//!
//! * byte-identical `SimReport` JSON,
//! * an identical drained trace-event stream (order included),
//! * the same final clock,
//!
//! at `jobs = 1` and `jobs = 4` through the sweep executor. Any RNG
//! draw made in a different order, any skipped component that was not
//! actually a no-op, or any fast-forward past a cycle that mattered
//! shows up here as a diff.

use cr_core::{NetworkBuilder, ProtocolKind, RetransmitScheme, RoutingKind, TrainStats};
use cr_experiments::{Scale, SweepRunner};
use cr_faults::FaultModel;
use cr_sim::{Cycle, NodeId, Rng, SimRng};
use cr_topology::KAryNCube;
use cr_traffic::{LengthDistribution, Trace, TraceEvent, TrafficPattern};

/// Runs the same configuration through the active-set stepper and the
/// dense reference stepper for `cycles`, asserting report + trace
/// equality, and returns the active run's worm-train counters. The
/// builder closure is called twice so each run owns a fresh network.
fn assert_twin(label: &str, cycles: u64, mut build: impl FnMut() -> NetworkBuilder) -> TrainStats {
    let mut active = build().build();
    let mut dense = build().build();
    dense.set_reference_stepper(true);
    assert!(!active.is_reference_stepper());
    assert!(dense.is_reference_stepper());

    let a = active.run(cycles).to_json();
    let d = dense.run(cycles).to_json();
    assert!(
        a == d,
        "{label}: active and dense reports differ\nactive:\n{a}\ndense:\n{d}"
    );
    assert_eq!(active.now(), dense.now(), "{label}: clocks differ");
    assert_eq!(
        active.take_trace_events(),
        dense.take_trace_events(),
        "{label}: trace event streams differ"
    );
    // The report is real, not an empty stub.
    assert!(a.contains("counters"), "{label}: empty report");
    active.train_stats()
}

/// Fig. 9 shape: plain CR, adaptive routing, uniform traffic.
#[test]
fn fig09_style_twin_run_matches() {
    for vcs in [1, 2] {
        for load in [0.1, 0.3] {
            assert_twin(
                &format!("fig09 vcs={vcs} load={load}"),
                Scale::Tiny.cycles(),
                || {
                    let mut b = Scale::Tiny.builder();
                    b.routing(RoutingKind::Adaptive { vcs })
                        .protocol(ProtocolKind::Cr)
                        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), load)
                        .trace(4096)
                        .seed(0x90 + vcs as u64);
                    b
                },
            );
        }
    }
}

/// Fig. 11 shape: kill timeout 32, static vs dynamic retransmission
/// gaps. The gaps are exactly the idle windows fast-forward skips, so
/// this is the config most likely to expose a lost injector wake-up.
#[test]
fn fig11_style_twin_run_matches() {
    let schemes = [
        ("static-4", RetransmitScheme::StaticGap { gap: 4 }),
        ("static-64", RetransmitScheme::StaticGap { gap: 64 }),
        (
            "dynamic",
            RetransmitScheme::ExponentialBackoff {
                slot: 16,
                ceiling: 10,
            },
        ),
    ];
    for (name, scheme) in schemes {
        assert_twin(
            &format!("fig11 {name}"),
            Scale::Tiny.cycles(),
            move || {
                let mut b = Scale::Tiny.builder();
                b.routing(RoutingKind::Adaptive { vcs: 1 })
                    .protocol(ProtocolKind::Cr)
                    .timeout(32)
                    .retransmit(scheme)
                    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.3)
                    .trace(4096)
                    .seed(110);
                b
            },
        );
    }
}

/// Fig. 16 shape: FCR with permanent link faults and misrouting —
/// exercises corrupt-flit drops, diagnosis and the fault registries.
#[test]
fn fig16_style_faulty_twin_run_matches() {
    for dead in [2usize, 4] {
        assert_twin(
            &format!("fig16 dead={dead}"),
            Scale::Tiny.cycles(),
            move || {
                let mut b = Scale::Tiny.builder();
                let mut faults = FaultModel::new();
                let topo = KAryNCube::torus(Scale::Tiny.radix(), 2);
                faults
                    .kill_random_links_connected(&topo, dead, &mut SimRng::from_seed(0xFA))
                    .expect("fault plan must keep the network connected");
                b.routing(RoutingKind::AdaptiveMisroute {
                    vcs: 1,
                    extra_hops: 4,
                })
                .protocol(ProtocolKind::Fcr)
                .faults(faults)
                .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
                .trace(4096)
                .seed(0x16);
                b
            },
        );
    }
}

/// Drain-to-quiescence equality: explicit messages, no open traffic
/// source, so fast-forward is fully armed (the active stepper jumps
/// the retransmission gaps) — the drained outcome, final clock and
/// report must still match the dense stepper cycle for cycle.
#[test]
fn quiescent_drain_twin_run_matches() {
    let build = || {
        let mut b = Scale::Tiny.builder();
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .timeout(16)
            .retransmit(RetransmitScheme::StaticGap { gap: 64 })
            .warmup(0)
            .trace(4096)
            .seed(7);
        b
    };
    let mut active = build().build();
    let mut dense = build().build();
    dense.set_reference_stepper(true);
    for net in [&mut active, &mut dense] {
        for src in 0..8u32 {
            net.send_message(NodeId::new(src), NodeId::new((src + 5) % 16), 16);
        }
    }
    let a_done = active.run_until_quiescent(50_000);
    let d_done = dense.run_until_quiescent(50_000);
    assert_eq!(a_done, d_done, "quiescence outcomes differ");
    assert!(a_done, "drain should finish well inside the budget");
    assert_eq!(active.now(), dense.now(), "drain clocks differ");
    assert_eq!(active.flits_in_flight(), 0);
    let a = active.report().to_json();
    let d = dense.report().to_json();
    assert!(a == d, "drain reports differ\nactive:\n{a}\ndense:\n{d}");
    assert_eq!(active.take_trace_events(), dense.take_trace_events());
}

/// `sparse_torus128` at a sixty-fourth of its area: lone padded CR
/// worms crossing a 16×16 torus one at a time, drained. Most of their
/// hops fall inside worm trains (DESIGN.md §10), which the reference
/// driver never forms.
#[test]
fn sparse_lone_worms_twin_run_matches() {
    let radix = 16;
    let mut rng = SimRng::from_seed(0x5A);
    let events = (0..12u64)
        .map(|i| {
            let (x, y) = (rng.gen_range(0..radix), rng.gen_range(0..radix));
            let (dx, dy) = (rng.gen_range(-6..7i64), rng.gen_range(1..7i64));
            let wrap = |v: usize, d: i64| (v as i64 + d).rem_euclid(radix as i64) as usize;
            TraceEvent {
                at: Cycle::new(i * 60),
                src: NodeId::from_index(y * radix + x),
                dst: NodeId::from_index(wrap(y, dy) * radix + wrap(x, dx)),
                length: 16,
            }
        })
        .collect();
    let trace = Trace::from_events(events);
    let build = || {
        let mut b = NetworkBuilder::new(KAryNCube::torus(radix, 2));
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .warmup(0)
            .trace(1 << 14)
            .seed(0x128);
        let mut net = b.build();
        net.schedule_trace(&trace);
        net
    };
    let mut active = build();
    let mut dense = build();
    dense.set_reference_stepper(true);
    assert!(active.run_until_quiescent(100_000), "drain");
    assert!(dense.run_until_quiescent(100_000), "drain");
    assert_eq!(active.now(), dense.now(), "drain clocks differ");
    let (a, d) = (active.report(), dense.report());
    let (a_json, d_json) = (a.to_json(), d.to_json());
    assert!(
        a_json == d_json,
        "reports differ\nactive:\n{a_json}\ndense:\n{d_json}"
    );
    assert_eq!(active.take_trace_events(), dense.take_trace_events());
    assert_eq!(a.counters.messages_delivered, 12);
    let trains = active.train_stats();
    assert!(trains.formed >= 10, "{trains:?}");
    assert!(
        2 * trains.flit_hops > a.trace.link_flits_forwarded,
        "trains covered {} of {} flit-hops",
        trains.flit_hops,
        a.trace.link_flits_forwarded
    );
}

/// `dense_torus64_sh2` at radix 16 on two shards with two threads: one
/// message from every fourth node, starts staggered over 384 cycles,
/// drained. Most worms cross others' routers, so this is where trains
/// hold their channels while the rest of each router steps.
#[test]
fn dense_mirror_on_two_shards_twin_run_matches() {
    let radix = 16;
    let stride = 4;
    let mut rng = SimRng::from_seed(0xD64);
    let phase = rng.gen_range(0..stride);
    let events = (0..radix * radix / stride)
        .map(|k| {
            let src = k * stride + phase;
            let (x, y) = (src % radix, src / radix);
            let (dx, dy) = (rng.gen_range(-5..6i64), rng.gen_range(1..6i64));
            let wrap = |v: usize, d: i64| (v as i64 + d).rem_euclid(radix as i64) as usize;
            TraceEvent {
                at: Cycle::new((k % 16) as u64 * 24),
                src: NodeId::from_index(src),
                dst: NodeId::from_index(wrap(y, dy) * radix + wrap(x, dx)),
                length: 16,
            }
        })
        .collect();
    let trace = Trace::from_events(events);
    let build = |reference: bool| {
        let mut b = NetworkBuilder::new(KAryNCube::torus(radix, 2));
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .warmup(0)
            .shards(2)
            .trace(1 << 14)
            .seed(0x64);
        let mut net = b.build();
        net.set_shard_threads(Some(2));
        net.set_reference_stepper(reference);
        net.schedule_trace(&trace);
        net
    };
    let (mut active, mut dense) = (build(false), build(true));
    assert!(active.run_until_quiescent(100_000), "drain");
    assert!(dense.run_until_quiescent(100_000), "drain");
    assert_eq!(active.now(), dense.now(), "drain clocks differ");
    let (a, d) = (active.report(), dense.report());
    let (a_json, d_json) = (a.to_json(), d.to_json());
    assert!(
        a_json == d_json,
        "reports differ\nactive:\n{a_json}\ndense:\n{d_json}"
    );
    assert_eq!(active.take_trace_events(), dense.take_trace_events());
    assert_eq!(
        a.counters.messages_delivered,
        (radix * radix / stride) as u64
    );
    let trains = active.train_stats();
    assert!(trains.flit_hops > 0, "no train share: {trains:?}");
}

/// `sat_torus8` past saturation with its Bernoulli source, briefly:
/// trains form between the sources' polls.
#[test]
fn sat_mirror_with_bernoulli_sources_twin_run_matches() {
    let trains = assert_twin("sat_torus8 mirror", 1_000, || {
        let mut b = NetworkBuilder::new(KAryNCube::torus(8, 2));
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.4)
            .warmup(200)
            .trace(1 << 14)
            .seed(0x58);
        b
    });
    assert!(trains.flit_hops > 0, "no train share: {trains:?}");
}

/// A faulty FCR sweep through the parallel executor: active vs dense
/// at jobs = 1 and jobs = 4 must all agree byte-for-byte.
fn faulty_sweep_reports(jobs: usize, dense: bool) -> Vec<String> {
    let points: Vec<usize> = vec![0, 2, 4];
    SweepRunner::new(jobs).run(
        points
            .into_iter()
            .map(|dead| {
                move || {
                    let scale = Scale::Tiny;
                    let mut b = scale.builder();
                    let mut faults = FaultModel::new();
                    if dead > 0 {
                        let topo = KAryNCube::torus(scale.radix(), 2);
                        faults
                            .kill_random_links_connected(
                                &topo,
                                dead,
                                &mut SimRng::from_seed(0xFA),
                            )
                            .expect("fault plan must keep the network connected");
                    }
                    b.routing(RoutingKind::AdaptiveMisroute {
                        vcs: 1,
                        extra_hops: 4,
                    })
                    .protocol(ProtocolKind::Fcr)
                    .faults(faults)
                    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
                    .seed(0x16);
                    let mut net = b.build();
                    net.set_reference_stepper(dense);
                    net.run(scale.cycles()).to_json()
                }
            })
            .collect(),
    )
}

#[test]
fn faulty_sweep_active_matches_dense_across_jobs() {
    let active_1 = faulty_sweep_reports(1, false);
    let dense_1 = faulty_sweep_reports(1, true);
    let active_n = faulty_sweep_reports(4, false);
    let dense_n = faulty_sweep_reports(4, true);
    assert_eq!(active_1, dense_1, "active vs dense differ at jobs=1");
    assert_eq!(active_1, active_n, "active differs across job counts");
    assert_eq!(dense_1, dense_n, "dense differs across job counts");
    assert!(active_1.iter().all(|s| s.contains("counters")));
}
