//! The sharded stepper must be byte-identical to the serial active-set
//! stepper.
//!
//! `--shards N` partitions the fabric into contiguous node-ID shards
//! and steps them on the work-stealing pool with phase barriers
//! (DESIGN.md §12). Shard count is an execution strategy, never an
//! experiment parameter: these tests twin-run tiny versions of the
//! paper's figure configurations — plus a faulty FCR sweep and one
//! showdown point per topology kind — at `shards ∈ {2, 4, 7}` against
//! the serial stepper and demand:
//!
//! * byte-identical `SimReport` JSON,
//! * an identical drained trace-event stream (order included),
//! * the same final clock,
//!
//! at sweep `jobs = 1` and `jobs = 4`. Each sharded run forces real
//! worker threads via `set_shard_threads(4)` even on a single-core
//! box, so cross-shard handoff ordering is actually exercised. Any
//! unsorted barrier drain, any shard-local RNG draw, or any cross-
//! shard mutation outside a barrier shows up here as a diff.
//!
//! Property tests (cr_sim::check) extend the fixed grid with random
//! topologies and random shard counts, including `shards = 1` and
//! `shards > nodes`.

use cr_core::{NetworkBuilder, ProtocolKind, RetransmitScheme, RoutingKind};
use cr_experiments::{showdown, Scale, SweepRunner};
use cr_faults::FaultModel;
use cr_sim::shard::Plan;
use cr_sim::{check, SimRng};
use cr_topology::{KAryNCube, Topology, TopologyKind};
use cr_traffic::{LengthDistribution, TrafficPattern};

/// The shard counts every fixed-grid test sweeps: even split, more
/// shards than a tiny torus has rows, and a count that does not divide
/// the node count. `shards = 1` goes through the persistent team too,
/// via [`single_shard_through_team_twin_matches`]'s forced-sharded
/// runs.
const SHARD_COUNTS: [usize; 3] = [2, 4, 7];

/// Runs the same configuration serially and at each count in
/// `shard_counts`, asserting report + trace + clock equality. Sharded
/// runs pin 4 worker threads so the parallel path is real even on one
/// core.
fn assert_shard_twin(
    label: &str,
    cycles: u64,
    shard_counts: &[usize],
    mut build: impl FnMut() -> NetworkBuilder,
) {
    let mut serial = build().build();
    assert_eq!(serial.num_shards(), 1, "{label}: serial run got sharded");
    let s = serial.run(cycles).to_json();
    let s_now = serial.now();
    let s_events = serial.take_trace_events();
    assert!(s.contains("counters"), "{label}: empty report");

    for &shards in shard_counts {
        let mut sharded = build().shards(shards).build();
        assert!(
            sharded.num_shards() > 1,
            "{label}: shards={shards} fell back to serial"
        );
        sharded.set_shard_threads(Some(4));
        let p = sharded.run(cycles).to_json();
        assert!(
            s == p,
            "{label}: serial and shards={shards} reports differ\nserial:\n{s}\nsharded:\n{p}"
        );
        assert_eq!(s_now, sharded.now(), "{label}: shards={shards} clock differs");
        assert_eq!(
            s_events,
            sharded.take_trace_events(),
            "{label}: shards={shards} trace event streams differ"
        );
    }
}

/// Fig. 9 shape: plain CR, adaptive routing, uniform traffic.
#[test]
fn fig09_style_shard_twin_matches() {
    for vcs in [1, 2] {
        assert_shard_twin(
            &format!("fig09 vcs={vcs}"),
            Scale::Tiny.cycles(),
            &SHARD_COUNTS,
            || {
                let mut b = Scale::Tiny.builder();
                b.routing(RoutingKind::Adaptive { vcs })
                    .protocol(ProtocolKind::Cr)
                    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.3)
                    .trace(4096)
                    .seed(0x90 + vcs as u64);
                b
            },
        );
    }
}

/// Fig. 11 shape: kill timeout 32, static vs dynamic retransmission
/// gaps — heavy kill/retransmit machinery across shard boundaries.
#[test]
fn fig11_style_shard_twin_matches() {
    let schemes = [
        ("static-4", RetransmitScheme::StaticGap { gap: 4 }),
        (
            "dynamic",
            RetransmitScheme::ExponentialBackoff {
                slot: 16,
                ceiling: 10,
            },
        ),
    ];
    for (name, scheme) in schemes {
        assert_shard_twin(
            &format!("fig11 {name}"),
            Scale::Tiny.cycles(),
            &SHARD_COUNTS,
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

/// Fig. 16 shape: FCR with permanent link faults and misrouting — the
/// arrivals phase takes its serial fallback (fault detection can kill
/// from an arrival), so this pins the fallback's byte-identity too.
#[test]
fn fig16_style_faulty_shard_twin_matches() {
    for dead in [2usize, 4] {
        assert_shard_twin(
            &format!("fig16 dead={dead}"),
            Scale::Tiny.cycles(),
            &SHARD_COUNTS,
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

/// One showdown point per topology kind in the zoo (torus, mesh,
/// fat-tree, full mesh), each under its first legal scheme — the
/// irregular fabrics have non-grid partition hints and asymmetric
/// cross-shard link sets.
#[test]
fn showdown_point_per_topology_shard_twin_matches() {
    for kind in showdown::zoo(Scale::Tiny) {
        let (scheme, routing, protocol) = showdown::schemes(kind.clone())[0];
        assert_shard_twin(
            &format!("showdown {kind:?} {scheme}"),
            Scale::Tiny.cycles(),
            &SHARD_COUNTS,
            || {
                let mut b = NetworkBuilder::from_kind(&kind);
                b.routing(routing)
                    .protocol(protocol)
                    .warmup(Scale::Tiny.warmup())
                    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
                    .trace(4096)
                    .seed(640);
                b
            },
        );
    }
}

/// `shards = 1` through the persistent team: forcing the sharded
/// stepper on a single-shard plan still runs every team fan-out,
/// ownership hand-off, and phase barrier, and must stay byte-identical
/// to the serial stepper — both fault-free (parallel arrivals gate)
/// and with dead links (gated arrivals under FCR).
#[test]
fn single_shard_through_team_twin_matches() {
    for dead in [0usize, 2] {
        let label = format!("forced-team shards=1 dead={dead}");
        let build = || {
            let mut b = Scale::Tiny.builder();
            let mut faults = FaultModel::new();
            if dead > 0 {
                let topo = KAryNCube::torus(Scale::Tiny.radix(), 2);
                faults
                    .kill_random_links_connected(&topo, dead, &mut SimRng::from_seed(0xFA))
                    .expect("fault plan must keep the network connected");
            }
            b.routing(RoutingKind::AdaptiveMisroute {
                vcs: 1,
                extra_hops: 4,
            })
            .protocol(ProtocolKind::Fcr)
            .faults(faults)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
            .trace(4096)
            .seed(0x51);
            b
        };
        let mut serial = build().build();
        let s = serial.run(Scale::Tiny.cycles()).to_json();

        let mut forced = build().build();
        assert_eq!(forced.num_shards(), 1, "{label}: plan must stay single-shard");
        forced.set_force_sharded(true);
        forced.set_shard_threads(Some(4));
        let p = forced.run(Scale::Tiny.cycles()).to_json();
        assert!(
            s == p,
            "{label}: serial and forced-sharded reports differ\nserial:\n{s}\nforced:\n{p}"
        );
        assert_eq!(serial.now(), forced.now(), "{label}: clock differs");
        assert_eq!(
            serial.take_trace_events(),
            forced.take_trace_events(),
            "{label}: trace event streams differ"
        );
    }
}

/// The reference driver composes with a shard plan: FCR with dead
/// links (so both arrivals bodies run — ordered on cycles a dead link
/// has a flit due, the quiet kernel otherwise) stepped by the
/// visit-everything driver over two shards and real worker threads
/// must match the serial active run, report, clock and trace stream.
#[test]
fn reference_driver_on_two_shards_twin_matches() {
    let build = || {
        let mut b = Scale::Tiny.builder();
        let mut faults = FaultModel::new();
        let topo = KAryNCube::torus(Scale::Tiny.radix(), 2);
        faults
            .kill_random_links_connected(&topo, 2, &mut SimRng::from_seed(0xFA))
            .expect("fault plan must keep the network connected");
        b.routing(RoutingKind::AdaptiveMisroute {
            vcs: 1,
            extra_hops: 4,
        })
        .protocol(ProtocolKind::Fcr)
        .faults(faults)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
        .trace(4096)
        .seed(0x52);
        b
    };
    let mut serial = build().build();
    let s = serial.run(Scale::Tiny.cycles()).to_json();
    assert!(s.contains("counters"), "empty report");

    let mut reference = build().shards(2).build();
    assert_eq!(reference.num_shards(), 2);
    reference.set_reference_stepper(true);
    reference.set_shard_threads(Some(2));
    let r = reference.run(Scale::Tiny.cycles()).to_json();
    assert!(
        s == r,
        "serial active and reference-at-shards(2) reports differ\nserial:\n{s}\nreference:\n{r}"
    );
    assert_eq!(serial.now(), reference.now(), "clock differs");
    assert_eq!(
        serial.take_trace_events(),
        reference.take_trace_events(),
        "trace event streams differ"
    );
}

/// Constructing and dropping sharded networks must not leak worker
/// threads: the persistent team is joined in `Network::drop` before
/// the shard state it references is freed. 100 construct/step/drop
/// rounds leave this test's thread count where it started.
#[test]
fn repeated_sharded_drop_leaks_no_threads() {
    // A spawned thread inherits its creator's `comm`, so tagging this
    // thread makes the census count this test's threads only (sibling
    // tests run teams of their own meanwhile). /proc is the only
    // std-visible census; skip quietly where absent (same policy as
    // the pool's own drop test).
    const TAG: &str = "leak-census";
    if std::fs::write("/proc/thread-self/comm", TAG).is_err() {
        return;
    }
    let count_threads = || -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("thread census available above")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == TAG)
            .count()
    };
    let before = count_threads();
    for round in 0..100u64 {
        let mut b = Scale::Tiny.builder();
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
            .seed(round)
            .shards(4);
        let mut net = b.build();
        net.set_shard_threads(Some(4));
        // A handful of cycles is enough to spawn the team lazily.
        net.run(8);
    }
    // A joined thread can outlive its join in /proc by a moment; a
    // leaked one never goes away.
    let mut after = count_threads();
    for _ in 0..200 {
        if after <= before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = count_threads();
    }
    assert!(
        after <= before,
        "sharded network drops leaked threads: {before} -> {after}"
    );
}

/// A faulty FCR sweep through the parallel executor: serial vs sharded
/// at sweep jobs = 1 and jobs = 4 must all agree byte-for-byte
/// (sweep-level and shard-level parallelism compose).
fn faulty_sweep_reports(jobs: usize, shards: usize) -> Vec<String> {
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
                    .seed(0x16)
                    .shards(shards);
                    let mut net = b.build();
                    if shards > 1 {
                        net.set_shard_threads(Some(4));
                    }
                    net.run(scale.cycles()).to_json()
                }
            })
            .collect(),
    )
}

#[test]
fn faulty_sweep_sharded_matches_serial_across_jobs() {
    let serial_1 = faulty_sweep_reports(1, 1);
    let sharded_1 = faulty_sweep_reports(1, 4);
    let serial_n = faulty_sweep_reports(4, 1);
    let sharded_n = faulty_sweep_reports(4, 4);
    assert_eq!(serial_1, sharded_1, "serial vs sharded differ at jobs=1");
    assert_eq!(serial_1, serial_n, "serial differs across job counts");
    assert_eq!(sharded_1, sharded_n, "sharded differs across job counts");
    assert!(serial_1.iter().all(|s| s.contains("counters")));
}

/// A random topology from the zoo shapes, with random small parameters.
fn random_topology(src: &mut check::Source<'_>) -> Box<dyn Topology> {
    match src.usize_in(0..4) {
        0 => TopologyKind::Torus {
            radix: src.usize_in(2..6),
            dims: 2,
        },
        1 => TopologyKind::Mesh {
            radix: src.usize_in(2..6),
            dims: 2,
        },
        2 => TopologyKind::FatTree {
            k: 2 * src.usize_in(1..3),
        },
        _ => TopologyKind::FullMesh {
            nodes: src.usize_in(2..20),
        },
    }
    .build()
}

/// Property: every topology's partition hint yields a plan that is a
/// disjoint exact cover of the node IDs — each node owned by exactly
/// one shard, shard ranges contiguous and ascending — for any
/// requested shard count, including 1 and more shards than nodes.
#[test]
fn prop_partition_is_disjoint_exact_cover() {
    check::check(
        "shard_equiv::prop_partition_is_disjoint_exact_cover",
        check::Config::cases(64),
        |src| {
            let topo = random_topology(src);
            let n = topo.num_nodes();
            let shards = src.usize_in(1..(2 * n + 2));
            let plan = Plan::from_hint(topo.partition_hint(shards), n, shards);
            assert_eq!(plan.num_nodes(), n);
            let owners = plan.owner_table();
            assert_eq!(owners.len(), n);
            let mut covered = 0;
            for s in 0..plan.num_shards() {
                let range = plan.range(s);
                assert!(range.start <= range.end && range.end <= n);
                for node in range.clone() {
                    assert_eq!(owners[node] as usize, s, "node {node} owner mismatch");
                    assert_eq!(plan.shard_of(node as u32) as usize, s);
                }
                covered += range.len();
            }
            assert_eq!(covered, n, "partition is not an exact cover");
        },
    );
}

/// Property: a random topology at a random shard count (1, many, or
/// more than nodes) twin-runs byte-identically against the serial
/// stepper under CR traffic.
#[test]
fn prop_random_shard_count_twin_matches() {
    check::check(
        "shard_equiv::prop_random_shard_count_twin_matches",
        check::Config::cases(12),
        |src| {
            let kind = match src.usize_in(0..3) {
                0 => TopologyKind::Torus {
                    radix: src.usize_in(3..5),
                    dims: 2,
                },
                1 => TopologyKind::FatTree { k: 4 },
                _ => TopologyKind::FullMesh {
                    nodes: src.usize_in(4..12),
                },
            };
            let nodes = kind.build().num_nodes();
            // 1, a small count, or deliberately more shards than nodes.
            let shards = src.usize_in(1..(nodes + 4));
            let seed = src.u64_in(0..1 << 20);
            let load = src.f64_in(0.05, 0.3);
            let build = |shards: usize| {
                let mut b = NetworkBuilder::from_kind(&kind);
                b.routing(RoutingKind::Adaptive { vcs: 1 })
                    .protocol(ProtocolKind::Cr)
                    .warmup(0)
                    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), load)
                    .trace(2048)
                    .seed(seed)
                    .shards(shards);
                b.build()
            };
            let mut serial = build(1);
            let mut sharded = build(shards);
            sharded.set_shard_threads(Some(4));
            let s = serial.run(400).to_json();
            let p = sharded.run(400).to_json();
            assert!(
                s == p,
                "{kind:?} shards={shards} seed={seed}: reports differ\nserial:\n{s}\nsharded:\n{p}"
            );
            assert_eq!(serial.now(), sharded.now());
            assert_eq!(serial.take_trace_events(), sharded.take_trace_events());
        },
    );
}
