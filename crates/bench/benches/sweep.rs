//! Serial-vs-parallel sweep executor baseline.
//!
//! Runs the same fixed CR load sweep through [`SweepRunner::new(1)`]
//! (the old serial path) and [`SweepRunner::new(jobs)`] at the host's
//! effective parallelism, at `Scale::Tiny` and `Scale::Quick`. The
//! resulting `target/bench/BENCH_sweep.json` records the wall clock of
//! each configuration plus a derived simulated-cycles-per-second
//! throughput; its `meta` block states the job count the run was
//! measured under, and every benchmark object carries its own `jobs`
//! count so scripts/bench_compare.sh keys comparisons on
//! `(name, jobs)` — the committed repo-root snapshot is the recorded
//! baseline.
//!
//! The sweeps are bit-identical by construction (each point owns its
//! seed), so the two configurations do identical work; any wall-clock
//! difference is pure executor overhead or parallel speedup.
//!
//! # Idle-heavy scenarios
//!
//! The `idle_*` benchmarks measure the active-set scheduler against
//! the dense reference stepper (`*_dense` variants) on workloads that
//! are mostly dead air — exactly what cycle fast-forward was built
//! for:
//!
//! * `idle_lowload_drain` — sparse trace-driven arrivals (one message
//!   every ~1.5k cycles) drained to quiescence; almost every cycle is
//!   skippable.
//! * `idle_gap_fig11` — a Fig. 11-style hotspot burst under binary
//!   exponential backoff; wall time is dominated by retransmission
//!   gaps.
//! * `idle_dead_fcr` — FCR on a torus with dead links and a sparse
//!   trace; most of the fabric is permanently idle.
//!
//! Each pair runs the identical simulation (the twin-run tests prove
//! byte-equality), so `cycles_per_sec(idle_x) / cycles_per_sec
//! (idle_x_dense)` is the scheduler's speedup on that shape.
//!
//! # Large-topology family
//!
//! The `large_*` benchmarks stress the topology zoo at sizes the paper
//! never ran — a 64×64 torus (4 096 nodes), a 16-ary fat-tree (320
//! switches) and a 128-node full mesh (16 256 channels) — each built
//! through the [`TopologyKind`] config axis and drained to quiescence
//! under the active-set scheduler, which is what makes the 4 096-node
//! point affordable at all. Sparse trace-driven arrivals keep the runs
//! idle-heavy, so these entries track both large-fabric assembly cost
//! and the scheduler's ability to fast-forward a mostly-dead network.

use cr_bench::harness::Group;
use cr_core::{Network, NetworkBuilder, ProtocolKind, RetransmitScheme, RoutingKind};
use cr_experiments::{Scale, SweepRunner};
use cr_faults::FaultModel;
use cr_sim::{pool, Cycle, NodeId, SimRng};
use cr_topology::{KAryNCube, TopologyKind};
use cr_traffic::{LengthDistribution, Trace, TraceEvent, TrafficPattern};

/// Points per sweep: 2 VC counts x 4 loads.
const VC_COUNTS: [usize; 2] = [1, 2];
const LOADS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

fn run_sweep(jobs: usize, scale: Scale) -> usize {
    let mut points: Vec<(usize, f64)> = Vec::new();
    for vcs in VC_COUNTS {
        for load in LOADS {
            points.push((vcs, load));
        }
    }
    let delivered: Vec<u64> = SweepRunner::new(jobs).run(
        points
            .into_iter()
            .map(|(vcs, load)| {
                move || {
                    let mut b = scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs })
                        .protocol(ProtocolKind::Cr)
                        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), load)
                        .seed(0xB0);
                    let mut net = b.build();
                    net.run(scale.cycles()).counters.messages_delivered
                }
            })
            .collect(),
    );
    delivered.len()
}

fn sim_cycles(scale: Scale) -> u64 {
    (VC_COUNTS.len() * LOADS.len()) as u64 * (scale.warmup() + scale.cycles())
}

/// The three idle-heavy shapes (see the module docs).
#[derive(Clone, Copy)]
enum IdleCase {
    LowLoadDrain,
    GapFig11,
    DeadFcr,
}

/// Builds the scenario's network with its messages queued/scheduled,
/// ready to drain.
fn idle_net(case: IdleCase) -> Network {
    match case {
        IdleCase::LowLoadDrain => {
            let mut b = NetworkBuilder::new(KAryNCube::torus(8, 2));
            b.routing(RoutingKind::Adaptive { vcs: 1 })
                .protocol(ProtocolKind::Cr)
                .warmup(0)
                .seed(0x1D1E);
            let mut net = b.build();
            let events: Vec<TraceEvent> = (0..64u64)
                .map(|k| TraceEvent {
                    at: Cycle::new(k * 1_500),
                    src: NodeId::new((k * 7 % 64) as u32),
                    dst: NodeId::new((k * 7 % 64 + 13) as u32 % 64),
                    length: 16,
                })
                .collect();
            net.schedule_trace(&Trace::from_events(events));
            net
        }
        IdleCase::GapFig11 => {
            let mut b = NetworkBuilder::new(KAryNCube::torus(8, 2));
            b.routing(RoutingKind::Adaptive { vcs: 1 })
                .protocol(ProtocolKind::Cr)
                .timeout(32)
                .retransmit(RetransmitScheme::ExponentialBackoff {
                    slot: 64,
                    ceiling: 10,
                })
                .warmup(0)
                .seed(110);
            let mut net = b.build();
            // A hotspot burst small enough that, once everyone is in
            // backoff, the whole fabric goes quiet between retries.
            for src in (4..64u32).step_by(4) {
                net.send_message(NodeId::new(src), NodeId::new(0), 64);
            }
            net
        }
        IdleCase::DeadFcr => {
            let mut b = NetworkBuilder::new(KAryNCube::torus(8, 2));
            let topo = KAryNCube::torus(8, 2);
            let mut faults = FaultModel::new();
            faults
                .kill_random_links_connected(&topo, 20, &mut SimRng::from_seed(0xFA))
                .expect("fault plan must keep the network connected");
            b.routing(RoutingKind::AdaptiveMisroute {
                vcs: 1,
                extra_hops: 6,
            })
            .protocol(ProtocolKind::Fcr)
            .faults(faults)
            .warmup(0)
            .seed(0xFC);
            let mut net = b.build();
            let events: Vec<TraceEvent> = (0..32u64)
                .map(|k| TraceEvent {
                    at: Cycle::new(k * 500),
                    src: NodeId::new((k * 11 % 64) as u32),
                    dst: NodeId::new((k * 11 % 64 + 31) as u32 % 64),
                    length: 16,
                })
                .collect();
            net.schedule_trace(&Trace::from_events(events));
            net
        }
    }
}

/// Drains the scenario to quiescence; returns the final cycle (the
/// simulated-cycle count, since all idle nets start at cycle 0).
fn run_idle(case: IdleCase, dense: bool) -> u64 {
    let mut net = idle_net(case);
    net.set_reference_stepper(dense);
    let done = net.run_until_quiescent(2_000_000);
    assert!(done, "idle scenario must drain");
    net.now().as_u64()
}

/// FCR riding out a live kill-and-revive storm (DESIGN.md §13): a
/// seeded set of regional outages fires while a finite message trace
/// drains. Exercises the churn hot path — per-cycle schedule checks,
/// dead-out flag flips, drain trackers, and fault detection on the
/// arrivals scan.
fn churn_net() -> Network {
    let topo = KAryNCube::torus(8, 2);
    let mut schedule = cr_faults::ChurnSchedule::new();
    schedule.random_regional_outages(
        &topo,
        4,
        Cycle::new(500),
        Cycle::new(4_000),
        1,
        300,
        900,
        &mut SimRng::from_seed(0x5708),
    );
    let mut b = NetworkBuilder::new(KAryNCube::torus(8, 2));
    b.routing(RoutingKind::AdaptiveMisroute {
        vcs: 1,
        extra_hops: 6,
    })
    .protocol(ProtocolKind::Fcr)
    .churn(schedule)
    .warmup(0)
    .seed(0xC4A2);
    let mut net = b.build();
    let events: Vec<TraceEvent> = (0..256u64)
        .map(|k| TraceEvent {
            at: Cycle::new(k * 20),
            src: NodeId::new((k.wrapping_mul(797) % 64) as u32),
            dst: NodeId::new(((k.wrapping_mul(2531) + 33) % 64) as u32),
            length: 16,
        })
        .filter(|e| e.src != e.dst)
        .collect();
    net.schedule_trace(&Trace::from_events(events));
    net
}

/// Drains the churn storm to quiescence; returns the final cycle.
fn run_churn_storm() -> u64 {
    let mut net = churn_net();
    let done = net.run_until_quiescent(2_000_000);
    assert!(done, "churn storm must drain");
    net.now().as_u64()
}

/// The large-topology shapes (see the module docs).
#[derive(Clone, Copy)]
enum LargeCase {
    /// 64×64 torus, 4 096 nodes, CR over minimal-adaptive routing.
    Torus64,
    /// 256×256 torus, 65 536 nodes — the assembly-cost stress point.
    Torus256,
    /// 16-ary fat-tree, 320 switches, CR.
    FatTree16,
    /// 128-node full mesh running the zero-VC ordered-detour scheme.
    FullMesh128,
}

impl LargeCase {
    fn kind(self) -> TopologyKind {
        match self {
            LargeCase::Torus64 => TopologyKind::Torus { radix: 64, dims: 2 },
            LargeCase::Torus256 => TopologyKind::Torus {
                radix: 256,
                dims: 2,
            },
            LargeCase::FatTree16 => TopologyKind::FatTree { k: 16 },
            LargeCase::FullMesh128 => TopologyKind::FullMesh { nodes: 128 },
        }
    }
}

/// Builds the large fabric through the [`TopologyKind`] config axis
/// with a sparse message trace scheduled, ready to drain.
fn large_net(case: LargeCase) -> Network {
    let kind = case.kind();
    let mut b = NetworkBuilder::from_kind(&kind);
    match case {
        LargeCase::Torus64 | LargeCase::Torus256 | LargeCase::FatTree16 => {
            b.routing(RoutingKind::Adaptive { vcs: 1 })
                .protocol(ProtocolKind::Cr)
        }
        LargeCase::FullMesh128 => b
            .routing(RoutingKind::FullMeshOrdered)
            .protocol(ProtocolKind::Baseline),
    }
    .warmup(0)
    .seed(0x1A2);
    let mut net = b.build();
    let n = kind.num_nodes() as u64;
    // Sparse arrivals scattered across the fabric: mostly dead air, so
    // the active-set scheduler (not raw stepping) carries the run.
    let events: Vec<TraceEvent> = (0..48u64)
        .map(|k| TraceEvent {
            at: Cycle::new(k * 400),
            src: NodeId::new((k.wrapping_mul(797) % n) as u32),
            dst: NodeId::new(((k.wrapping_mul(2531) + n / 2 + 1) % n) as u32),
            length: 16,
        })
        .filter(|e| e.src != e.dst)
        .collect();
    net.schedule_trace(&Trace::from_events(events));
    net
}

/// Drains a large-topology scenario under the active-set scheduler;
/// returns the final cycle.
fn run_large(case: LargeCase) -> u64 {
    let mut net = large_net(case);
    net.set_reference_stepper(false);
    let done = net.run_until_quiescent(2_000_000);
    assert!(done, "large-topology scenario must drain");
    net.now().as_u64()
}

fn main() {
    let jobs = pool::effective_jobs(None);
    let mut g = Group::new("sweep");

    g.sample_size(10);
    g.bench_cycles_at("tiny_serial", sim_cycles(Scale::Tiny), 1, || {
        run_sweep(1, Scale::Tiny)
    });
    g.bench_cycles_at(
        &format!("tiny_parallel_j{jobs}"),
        sim_cycles(Scale::Tiny),
        jobs,
        || run_sweep(jobs, Scale::Tiny),
    );
    // A fixed jobs = 2 point exists on every host (even single-core
    // ones, where `jobs` above resolves to 1), so the snapshot always
    // carries a jobs > 1 configuration for the executor to be compared
    // under.
    if jobs != 2 {
        g.bench_cycles_at("tiny_parallel_j2", sim_cycles(Scale::Tiny), 2, || {
            run_sweep(2, Scale::Tiny)
        });
    }

    g.sample_size(5);
    g.bench_cycles_at("quick_serial", sim_cycles(Scale::Quick), 1, || {
        run_sweep(1, Scale::Quick)
    });
    g.bench_cycles_at(
        &format!("quick_parallel_j{jobs}"),
        sim_cycles(Scale::Quick),
        jobs,
        || run_sweep(jobs, Scale::Quick),
    );

    // Idle-heavy active-vs-dense pairs. The simulated-cycle count is
    // taken from a probe run; the twin-run equivalence tests guarantee
    // the dense variant simulates the exact same cycles.
    let idle = [
        ("idle_lowload_drain", IdleCase::LowLoadDrain),
        ("idle_gap_fig11", IdleCase::GapFig11),
        ("idle_dead_fcr", IdleCase::DeadFcr),
    ];
    for (name, case) in idle {
        let cycles = run_idle(case, false);
        g.sample_size(10);
        g.bench_cycles(name, cycles, || run_idle(case, false));
        g.sample_size(5);
        g.bench_cycles(&format!("{name}_dense"), cycles, || run_idle(case, true));
    }

    // Live-churn storm drain: FCR through seeded regional outages
    // (kill-and-revive) with a finite trace. Tracks the cost of the
    // per-cycle churn machinery plus the storm's protocol traffic.
    {
        let cycles = run_churn_storm();
        g.sample_size(10);
        g.bench_cycles("churn_storm_drain", cycles, run_churn_storm);
    }

    // Large-topology family: zoo fabrics at sizes only the active-set
    // scheduler makes affordable (the 64×64 torus is the acceptance
    // point for PR 6's topology work).
    let large = [
        ("large_torus64_drain", LargeCase::Torus64),
        ("large_torus256_drain", LargeCase::Torus256),
        ("large_fattree16_drain", LargeCase::FatTree16),
        ("large_fullmesh128_drain", LargeCase::FullMesh128),
    ];
    for (name, case) in large {
        let cycles = run_large(case);
        // Sample counts scale inversely with per-iteration cost: the
        // second-scale tori stay cheap at 3 samples, while the
        // millisecond-scale fabrics take 15 so their medians are
        // stable enough for the 25% bench_compare gate.
        g.sample_size(match case {
            LargeCase::Torus64 | LargeCase::Torus256 => 3,
            LargeCase::FatTree16 | LargeCase::FullMesh128 => 15,
        });
        g.bench_cycles(name, cycles, || run_large(case));
    }

    g.finish();
}
