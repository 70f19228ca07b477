//! Churn must not break stepper equivalence (DESIGN.md §13).
//!
//! Kill/revive events fire at the top of every stepped cycle, so the
//! reference driver and the active-set driver must remain
//! byte-identical under any [`cr_faults::ChurnSchedule`] — including
//! schedules that go fault-free -> faulty -> fault-free again under a
//! fault-detecting protocol.
//!
//! The fixed grid twin-runs the churn storm experiment's own fixture
//! on both drivers and the experiment at sweep `jobs ∈ {1, 4}`. The
//! property test extends it with random tiny networks and random
//! kill/revive interleavings (every kill paired with a later revive),
//! demanding dense == active reports, exactly-once delivery of a finite
//! scheduled workload, and nothing left in flight after the drain.

use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
use cr_faults::ChurnSchedule;
use cr_sim::{check, Cycle, NodeId, SimRng};
use cr_topology::{KAryNCube, Topology};
use cr_traffic::{Trace, TraceEvent};
use cr_experiments::{churn, Run, Scale};

/// A churn storm that starts fault-free, kills links from two regions
/// mid-run, and revives everything.
fn storm(scale: Scale) -> ChurnSchedule {
    let topo = KAryNCube::torus(scale.radix(), 2);
    let mut s = ChurnSchedule::new();
    s.random_regional_outages(
        &topo,
        3,
        Cycle::new(scale.cycles() / 10),
        Cycle::new(scale.cycles() / 2),
        1,
        150,
        400,
        &mut SimRng::from_seed(0xEE),
    );
    s
}

/// Twin-runs one builder on the reference and the active-set driver;
/// demands byte-identical reports, clocks, and trace streams.
fn assert_churn_twin(label: &str, cycles: u64, mut build: impl FnMut() -> NetworkBuilder) {
    let mut dense = build().build();
    dense.set_reference_stepper(true);
    let d = dense.run(cycles).to_json();

    let mut active = build().build();
    let a = active.run(cycles).to_json();
    assert!(d == a, "{label}: dense vs active differ\n{d}\n{a}");
    assert_eq!(dense.now(), active.now(), "{label}: dense clock differs");
    assert_eq!(
        dense.take_trace_events(),
        active.take_trace_events(),
        "{label}: dense vs active trace streams differ"
    );
}

/// The churn experiment's own FCR fixture, storm included, on both
/// drivers.
#[test]
fn churn_storm_twin_matches() {
    let scale = Scale::Tiny;
    assert_churn_twin("fcr storm", scale.cycles(), || {
        let mut b = scale.builder();
        b.routing(RoutingKind::AdaptiveMisroute {
            vcs: 1,
            extra_hops: 4,
        })
        .protocol(ProtocolKind::Fcr)
        .churn(storm(scale))
        .traffic(
            cr_traffic::TrafficPattern::Uniform,
            cr_traffic::LengthDistribution::Fixed(16),
            0.2,
        )
        .trace(1 << 14)
        .seed(0xC4);
        b
    });
}

/// The full churn experiment run must be identical at sweep `jobs = 1`
/// and `jobs = 4` (scheme points are independent; parallelism is pure
/// wall clock).
#[test]
fn churn_experiment_identical_across_jobs() {
    let cfg = churn::Config {
        outages: 2,
        max_radius: 0,
        down_range: (150, 250),
        waves: 3,
        message_len: 8,
        misroute_budget: 8,
        seed: 0x10B5,
    };
    let runs: Vec<Vec<String>> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let run = Run {
                jobs,
                ..Run::new(Scale::Tiny)
            };
            churn::run(&run, &cfg)
                .rows
                .iter()
                .map(|r| r.report.to_json())
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "churn experiment differs across jobs");
    assert_eq!(runs[0].len(), 3);
}

/// Property: a random tiny network under a random kill/revive
/// interleaving (every kill gets a later revive) drains a finite
/// scheduled workload with dense == active reports, exactly-once
/// delivery, and zero flits left in flight.
#[test]
fn prop_random_churn_interleavings_equivalent_and_exactly_once() {
    check::check(
        "churn_equiv::prop_random_churn_interleavings_equivalent_and_exactly_once",
        check::Config::cases(10),
        |src| {
            let radix = src.usize_in(3..5);
            let topo = KAryNCube::torus(radix, 2);
            let nodes = topo.num_nodes();
            let links = topo.links();
            let seed = src.u64_in(0..1 << 20);

            // Random kill/revive interleaving: each chosen link dies at
            // a random cycle and revives strictly later, well before
            // the drain budget.
            let mut schedule = ChurnSchedule::new();
            let kills = src.usize_in(1..5);
            for _ in 0..kills {
                let link = links[src.usize_in(0..links.len())].id;
                let at = src.u64_in(20..600);
                let up = at + src.u64_in(50..400);
                schedule.kill_link(Cycle::new(at), link);
                schedule.revive_link(Cycle::new(up), link);
            }

            // Finite workload: a few wormlength-8 messages per node,
            // spread across the churn window.
            let mut events = Vec::new();
            for n in 0..nodes as u32 {
                for k in 0..src.usize_in(1..4) as u32 {
                    events.push(TraceEvent {
                        at: Cycle::new((n as u64 * 37 + k as u64 * 211) % 700),
                        src: NodeId::new(n),
                        dst: NodeId::new((n + 1 + k) % nodes as u32),
                        length: 8,
                    });
                }
            }
            let workload = Trace::from_events(events);
            let offered = workload.len() as u64;

            let build = || {
                let mut b = NetworkBuilder::new(KAryNCube::torus(radix, 2));
                b.routing(RoutingKind::AdaptiveMisroute {
                    vcs: 1,
                    extra_hops: 4,
                })
                .protocol(ProtocolKind::Fcr)
                .warmup(0)
                .churn(schedule.clone())
                .seed(seed);
                let mut net = b.build();
                net.set_record_deliveries(true);
                net.schedule_trace(&workload);
                net
            };

            let mut dense = build();
            dense.set_reference_stepper(true);
            let mut active = build();

            let budget = 200_000;
            assert!(dense.run_until_quiescent(budget), "dense failed to drain");
            assert!(active.run_until_quiescent(budget), "active failed to drain");

            let d = dense.report().to_json();
            let a = active.report().to_json();
            assert!(d == a, "dense vs active (seed {seed}):\n{d}\n{a}");

            // Exactly-once on both drivers, and nothing left behind.
            for net in [&mut dense, &mut active] {
                assert_eq!(net.flits_in_flight(), 0);
                let mut delivered: Vec<u64> = net
                    .take_delivery_log()
                    .iter()
                    .map(|d| d.id.as_u64())
                    .collect();
                delivered.sort_unstable();
                assert_eq!(
                    delivered,
                    (0..offered).collect::<Vec<_>>(),
                    "seed {seed}: delivered set != offered set"
                );
            }
        },
    );
}
