//! **Extension — the topology-zoo showdown**: CR vs its deadlock-free
//! competitors on every generated topology.
//!
//! The paper sells Compressionless Routing on "applicability to a wide
//! variety of network topologies"; this sweep actually runs the claim.
//! Each topology in the zoo carries the schemes that are *legal* on
//! it:
//!
//! * **torus / mesh** — CR over minimal-adaptive routing (zero extra
//!   VCs) against dimension-order routing (Baseline protocol; two
//!   dateline VC classes on the torus, one on the mesh).
//! * **fat-tree** — CR with one VC against CR with two. There is no
//!   dimension order here, and plain minimal-adaptive + Baseline can
//!   deadlock (every switch is also an endpoint, so down-then-up
//!   dependency cycles exist): recovery-based deadlock freedom is
//!   doing real work on this topology.
//! * **full mesh** — CR against the HOTI'25 zero-VC ordered-detour
//!   scheme ("Deadlock-free routing for Full-mesh networks without
//!   using Virtual Channels"), the modern avoidance-based answer to
//!   the same no-VC goal CR pursued by recovery. The head-to-head the
//!   related-work section promises.
//!
//! Results carry the [`TopologyKind`] config axis, so every row's
//! fabric round-trips through JSON ([`Results::to_json`]).

use crate::harness::{MeasuredPoint, Run, Scale};
use crate::table::{fmt_f, Table};
use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
use cr_sim::Json;
use cr_topology::TopologyKind;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the topology-zoo showdown.
#[derive(Debug, Clone)]
pub struct Config {
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            message_len: 16,
            seed: 640,
        }
    }
}

/// The topology zoo at a given scale.
pub fn zoo(scale: Scale) -> Vec<TopologyKind> {
    let radix = scale.radix();
    let (k, nodes) = match scale {
        Scale::Tiny => (4, 16),
        Scale::Quick | Scale::Paper => (8, 64),
    };
    vec![
        TopologyKind::Torus { radix, dims: 2 },
        TopologyKind::Mesh { radix, dims: 2 },
        TopologyKind::FatTree { k },
        TopologyKind::FullMesh { nodes },
    ]
}

/// The (scheme label, routing, protocol) triples legal on `kind`.
pub fn schemes(kind: TopologyKind) -> Vec<(&'static str, RoutingKind, ProtocolKind)> {
    let cr = ("CR", RoutingKind::Adaptive { vcs: 1 }, ProtocolKind::Cr);
    match kind {
        TopologyKind::Torus { .. } | TopologyKind::Mesh { .. } | TopologyKind::Hypercube { .. } => {
            vec![
                cr,
                ("DOR", RoutingKind::Dor { lanes: 1 }, ProtocolKind::Baseline),
            ]
        }
        TopologyKind::FatTree { .. } => vec![
            cr,
            ("CR 2VC", RoutingKind::Adaptive { vcs: 2 }, ProtocolKind::Cr),
        ],
        TopologyKind::FullMesh { .. } => vec![
            cr,
            (
                "0VC detour",
                RoutingKind::FullMeshOrdered,
                ProtocolKind::Baseline,
            ),
        ],
    }
}

/// One (topology, scheme, load) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// The fabric this point ran on.
    pub topology: TopologyKind,
    /// Scheme label.
    pub scheme: &'static str,
    /// Offered load, flits/node/cycle.
    pub load: f64,
    /// The measured point.
    pub point: MeasuredPoint,
}

/// Topology-zoo showdown results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All rows, grouped by topology, then scheme, then load.
    pub rows: Vec<Row>,
}

/// Runs the showdown across the zoo.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points = Vec::new();
    for kind in zoo(run.scale) {
        for (scheme, routing, protocol) in schemes(kind) {
            for load in run.scale.loads() {
                points.push((kind, scheme, routing, protocol, load));
            }
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(kind, scheme, routing, protocol, load)| {
                move || {
                    let mut b = NetworkBuilder::from_kind(&kind);
                    b.routing(routing)
                        .protocol(protocol)
                        .warmup(run.scale.warmup())
                        .traffic(
                            TrafficPattern::Uniform,
                            LengthDistribution::Fixed(cfg.message_len),
                            load,
                        )
                        .seed(cfg.seed);
                    Row {
                        topology: kind,
                        scheme,
                        load,
                        point: run.measure(&mut b),
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Accepted throughput for a (topology, scheme) pair at `load`.
    pub fn accepted(&self, topology: TopologyKind, scheme: &str, load: f64) -> f64 {
        self.rows
            .iter()
            .find(|r| r.topology == topology && r.scheme == scheme && r.load == load)
            .map(|r| r.point.accepted)
            .unwrap_or(0.0)
    }

    /// The rows for one topology.
    pub fn for_topology(&self, topology: TopologyKind) -> Vec<&Row> {
        self.rows.iter().filter(|r| r.topology == topology).collect()
    }

    /// Serializes every row with its [`TopologyKind`] config axis, so a
    /// consumer can rebuild the exact fabric each point ran on.
    pub fn to_json(&self) -> Json {
        Json::arr(self.rows.iter().map(|r| {
            Json::obj([
                ("topology", r.topology.to_json()),
                ("scheme", Json::from(r.scheme)),
                ("load", Json::from(r.load)),
                ("accepted", Json::from(r.point.accepted)),
                ("latency", Json::from(r.point.latency)),
                ("kills", Json::from(r.point.kills)),
                ("deadlocked", Json::from(r.point.deadlocked)),
            ])
        }))
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Topology-zoo showdown — CR vs deadlock-free competitors (uniform traffic)",
            &["topology", "scheme", "load", "accepted", "latency", "kills"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.topology.label(),
                r.scheme.to_string(),
                fmt_f(r.load),
                fmt_f(r.point.accepted),
                fmt_f(r.point.latency),
                r.point.kills.to_string(),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Results {
        run(
            &Run::new(Scale::Tiny),
            &Config {
                message_len: 8,
                seed: 11,
            },
        )
    }

    #[test]
    fn every_topology_carries_two_schemes_and_nobody_deadlocks() {
        let res = tiny();
        // 4 topologies x 2 schemes x 2 tiny loads.
        assert_eq!(res.rows.len(), 16);
        for r in &res.rows {
            assert!(
                !r.point.deadlocked,
                "{} with {} deadlocked",
                r.topology.label(),
                r.scheme
            );
            assert!(
                r.point.delivered > 0,
                "{} with {} delivered nothing",
                r.topology.label(),
                r.scheme
            );
        }
    }

    #[test]
    fn zero_vc_schemes_never_kill() {
        let res = tiny();
        for r in &res.rows {
            if r.scheme == "0VC detour" || r.scheme == "DOR" {
                assert_eq!(r.point.kills, 0, "{} killed", r.scheme);
            }
        }
    }

    #[test]
    fn json_rows_round_trip_their_topology() {
        let res = tiny();
        let json = Json::parse(&res.to_json().to_string()).unwrap();
        let Json::Arr(rows) = &json else {
            panic!("expected array")
        };
        assert_eq!(rows.len(), res.rows.len());
        for (j, r) in rows.iter().zip(&res.rows) {
            let kind = TopologyKind::from_json(j.get("topology").unwrap());
            assert_eq!(kind, Some(r.topology));
        }
    }
}
