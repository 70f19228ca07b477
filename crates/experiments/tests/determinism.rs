//! Parallel sweeps must be bit-identical to serial execution.
//!
//! Each sweep point owns its RNG seed and its whole simulation, so the
//! only way parallelism could change a result is a bug in the executor
//! (wrong result ordering, shared state, work duplication). This test
//! runs the same small sweep through `SweepRunner::new(1)` and
//! `SweepRunner::new(4)` and demands byte-identical `SimReport` JSON
//! for every point.

use cr_core::{ProtocolKind, RoutingKind};
use cr_experiments::{Scale, SweepRunner};
use cr_faults::FaultModel;
use cr_sim::SimRng;
use cr_topology::KAryNCube;
use cr_traffic::{LengthDistribution, TrafficPattern};

fn sweep_reports(jobs: usize) -> Vec<String> {
    let scale = Scale::Quick;
    let mut points: Vec<(usize, f64)> = Vec::new();
    for vcs in [1, 2] {
        for load in [0.1, 0.3] {
            points.push((vcs, load));
        }
    }
    SweepRunner::new(jobs).run(
        points
            .into_iter()
            .map(|(vcs, load)| {
                move || {
                    let mut b = scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs })
                        .protocol(ProtocolKind::Cr)
                        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), load)
                        .seed(0xD5);
                    let mut net = b.build();
                    net.run(scale.cycles()).to_json()
                }
            })
            .collect(),
    )
}

/// The topology-zoo showdown must be byte-identical under any job
/// count too — it is the acceptance gate for the zoo's config axis.
fn showdown_json(jobs: usize) -> String {
    use cr_experiments::showdown;
    use cr_topology::TopologyKind;
    let scale = Scale::Tiny;
    let mut points = Vec::new();
    for kind in showdown::zoo(scale) {
        for (scheme, routing, protocol) in showdown::schemes(kind) {
            points.push((kind, scheme, routing, protocol));
        }
    }
    let rows = SweepRunner::new(jobs).run(
        points
            .into_iter()
            .map(|(kind, scheme, routing, protocol)| {
                move || {
                    let mut b = cr_core::NetworkBuilder::from_kind(&kind);
                    b.routing(routing)
                        .protocol(protocol)
                        .warmup(scale.warmup())
                        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
                        .seed(0xBEE);
                    let mut net = b.build();
                    let report = net.run(scale.cycles()).to_json().to_string();
                    format!("{}/{scheme}: {report}", TopologyKind::label(&kind))
                }
            })
            .collect(),
    );
    rows.join("\n")
}

#[test]
fn showdown_zoo_is_byte_identical_under_parallelism() {
    let serial = showdown_json(1);
    let parallel = showdown_json(4);
    assert!(serial == parallel, "zoo sweep differs across job counts");
    // All four fabrics actually ran.
    for label in ["torus", "mesh", "fat-tree", "full mesh"] {
        assert!(serial.contains(label), "missing {label} rows");
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = sweep_reports(1);
    let parallel = sweep_reports(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert!(
            s == p,
            "point {i}: serial and 4-job reports differ\nserial:\n{s}\nparallel:\n{p}"
        );
    }
    // Sanity: the reports are real, not empty stubs.
    assert!(serial.iter().all(|s| s.contains("counters")));
}

/// A faulty FCR sweep (0, 2 and 4 dead links): fault draws and
/// detection kills stay byte-identical under any job count.
fn faulty_sweep_reports(jobs: usize) -> Vec<String> {
    let scale = Scale::Tiny;
    SweepRunner::new(jobs).run(
        [0usize, 2, 4]
            .into_iter()
            .map(|dead| {
                move || {
                    let mut faults = FaultModel::new();
                    let topo = KAryNCube::torus(scale.radix(), 2);
                    faults
                        .kill_random_links_connected(&topo, dead, &mut SimRng::from_seed(0xFA))
                        .expect("fault plan must keep the network connected");
                    let mut b = scale.builder();
                    b.routing(RoutingKind::AdaptiveMisroute {
                        vcs: 1,
                        extra_hops: 4,
                    })
                    .protocol(ProtocolKind::Fcr)
                    .faults(faults)
                    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
                    .seed(0x16);
                    b.build().run(scale.cycles()).to_json()
                }
            })
            .collect(),
    )
}

#[test]
fn faulty_sweep_is_byte_identical_across_jobs() {
    let serial = faulty_sweep_reports(1);
    assert_eq!(
        serial,
        faulty_sweep_reports(4),
        "faulty sweep differs across job counts"
    );
    assert!(serial.iter().all(|s| s.contains("counters")));
}
