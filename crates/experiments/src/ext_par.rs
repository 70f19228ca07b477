//! **Extension — the adaptivity spectrum on a mesh**: dimension-order
//! (deterministic) vs planar-adaptive (partially adaptive, the
//! authors' earlier algorithm, references \[3\]/\[31\]) vs CR over minimal
//! fully-adaptive routing.
//!
//! The paper positions CR as the way to get *full* adaptivity without
//! virtual-channel cost; PAR was the authors' earlier compromise —
//! partial adaptivity bought with a fixed two-VC structure. This
//! experiment lines all three up on the 2-D mesh (PAR's home turf),
//! on uniform and on adversarial transpose traffic.
//!
//! Measured verdict (honest): on the *mesh*, both adaptives crush DOR
//! on transpose, but PAR beats CR — mesh diameters make `I_min` (and
//! so CR's padding) large, and PAR's structural deadlock freedom
//! costs nothing. CR's case is the torus (where DOR needs dateline
//! VCs and PAR does not even apply); the mesh is where its padding tax
//! is steepest. On uniform mesh traffic plain DOR wins outright —
//! consistent with the authors' own PAR evaluation (reference \[31\]),
//! which found adaptivity can lose on uniform loads.

use crate::harness::Run;
use crate::table::{fmt_f, Table};
use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
use cr_topology::KAryNCube;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the adaptivity-spectrum comparison.
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
            seed: 220,
        }
    }
}

/// One (algorithm, pattern) saturation measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Traffic pattern label.
    pub pattern: &'static str,
    /// Peak accepted throughput, payload flits/node/cycle.
    pub peak: f64,
}

/// Adaptivity-spectrum results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All rows.
    pub rows: Vec<Row>,
}

/// Runs the comparison on a mesh of the scale's radix.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let radix = run.scale.radix();
    let algorithms: [(&'static str, RoutingKind, ProtocolKind); 3] = [
        ("DOR", RoutingKind::Dor { lanes: 2 }, ProtocolKind::Baseline),
        (
            "PAR",
            RoutingKind::PlanarAdaptive,
            ProtocolKind::Baseline,
        ),
        (
            "CR adaptive",
            RoutingKind::Adaptive { vcs: 2 },
            ProtocolKind::Cr,
        ),
    ];
    let patterns: [(&'static str, TrafficPattern); 2] = [
        ("uniform", TrafficPattern::Uniform),
        ("transpose", TrafficPattern::Transpose),
    ];
    let mut points = Vec::new();
    for (pname, pattern) in patterns {
        for (aname, routing, protocol) in algorithms {
            points.push((pname, pattern, aname, routing, protocol));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(pname, pattern, aname, routing, protocol)| {
                move || {
                    // saturation_throughput builds a torus by default;
                    // build a mesh network directly instead.
                    let peak = {
                        let mut b = NetworkBuilder::new(KAryNCube::mesh(radix, 2));
                        b.routing(routing)
                            .protocol(protocol)
                            .warmup(run.scale.warmup())
                            .traffic(pattern, LengthDistribution::Fixed(cfg.message_len), 0.95)
                            .seed(cfg.seed);
                        run.report(&mut b).accepted_flits_per_node_cycle
                    };
                    Row {
                        algorithm: aname,
                        pattern: pname,
                        peak,
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Peak for an (algorithm, pattern) pair.
    pub fn peak(&self, algorithm: &str, pattern: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.algorithm == algorithm && r.pattern == pattern)
            .map(|r| r.peak)
            .unwrap_or(0.0)
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Adaptivity spectrum on the mesh — DOR vs PAR vs CR (peak accepted)",
            &["pattern", "algorithm", "peak"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.pattern.to_string(),
                r.algorithm.to_string(),
                fmt_f(r.peak),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn par_is_deadlock_free_and_all_compete_on_uniform() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                message_len: 16,
                seed: 17,
            },
        );
        assert_eq!(res.rows.len(), 6);
        for r in &res.rows {
            assert!(r.peak > 0.05, "{} on {} collapsed: {}", r.algorithm, r.pattern, r.peak);
        }
    }

    #[test]
    fn adaptivity_beats_dor_on_transpose() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                message_len: 16,
                seed: 18,
            },
        );
        let dor = res.peak("DOR", "transpose");
        let par = res.peak("PAR", "transpose");
        let cr = res.peak("CR adaptive", "transpose");
        // Both adaptives must beat deterministic routing on the
        // pattern built to defeat it; their relative order is a
        // padding-vs-structure trade-off documented in the module
        // docs.
        assert!(par > dor, "PAR {par:.3} vs DOR {dor:.3}");
        assert!(cr > dor, "CR {cr:.3} vs DOR {dor:.3}");
    }
}
