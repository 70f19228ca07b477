//! **Fig. 14(c),(d)** — CR versus dimension-order routing across
//! virtual-channel counts.
//!
//! Per the paper's fragments: "the DOR networks are given a fixed
//! amount of total buffer space, so more virtual channels mean a lower
//! buffer depth" (virtual channels beat deep FIFOs, reference \[29\]);
//! "for CR networks, we vary the number of virtual channels while
//! fixing the buffer depth of each virtual channel at two flits"
//! (depth is pure padding overhead for CR).

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 14(c)/(d) run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Virtual-channel counts to sweep (total per port; DOR needs an
    /// even number on a torus).
    pub vc_counts: Vec<usize>,
    /// DOR total buffer budget per port, in flits (split across VCs).
    pub dor_total_buffer: usize,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            vc_counts: vec![2, 4, 8],
            dor_total_buffer: 16,
            message_len: 16,
            seed: 141,
        }
    }
}

/// One (network, vcs, load) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"CR"` or `"DOR"`.
    pub network: &'static str,
    /// Total virtual channels per port.
    pub vcs: usize,
    /// Buffer depth per VC used in this configuration.
    pub depth: usize,
    /// The measurement.
    pub point: MeasuredPoint,
}

/// Fig. 14(c)/(d) results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a VC count is odd (DOR on a torus needs two dateline
/// classes) or does not divide the DOR buffer budget.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points: Vec<(&'static str, usize, usize, f64)> = Vec::new();
    for &vcs in &cfg.vc_counts {
        assert!(vcs >= 2 && vcs % 2 == 0, "DOR on a torus needs even VCs");
        assert_eq!(
            cfg.dor_total_buffer % vcs,
            0,
            "buffer budget must split evenly"
        );
        for load in run.scale.loads() {
            // CR: fixed 2-flit buffers per VC. DOR: fixed total buffer
            // split across the VCs.
            points.push(("CR", vcs, 2, load));
            points.push(("DOR", vcs, cfg.dor_total_buffer / vcs, load));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(network, vcs, depth, load)| {
                move || {
                    let mut b = run.scale.builder();
                    if network == "CR" {
                        b.routing(RoutingKind::Adaptive { vcs })
                            .protocol(ProtocolKind::Cr);
                    } else {
                        b.routing(RoutingKind::Dor { lanes: vcs / 2 })
                            .protocol(ProtocolKind::Baseline);
                    }
                    b.buffer_depth(depth)
                        .traffic(
                            TrafficPattern::Uniform,
                            LengthDistribution::Fixed(cfg.message_len),
                            load,
                        )
                        .seed(cfg.seed);
                    Row {
                        network,
                        vcs,
                        depth,
                        point: run.measure(&mut b),
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Peak accepted throughput of one (network, vcs) curve.
    pub fn peak_accepted(&self, network: &str, vcs: usize) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.network == network && r.vcs == vcs)
            .map(|r| r.point.accepted)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 14(c),(d) — CR vs DOR across virtual channels (DOR: fixed total buffer)",
            &["network", "vcs", "depth", "offered", "accepted", "latency"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.network.to_string(),
                r.vcs.to_string(),
                r.depth.to_string(),
                fmt_f(r.point.offered),
                fmt_f(r.point.accepted),
                fmt_f(r.point.latency),
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
    fn both_networks_gain_from_vcs() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                vc_counts: vec![2, 4],
                dor_total_buffer: 8,
                message_len: 16,
                seed: 6,
            },
        );
        for network in ["CR", "DOR"] {
            let lo = res.peak_accepted(network, 2);
            let hi = res.peak_accepted(network, 4);
            assert!(lo > 0.0 && hi > 0.0);
            // More VCs should not hurt materially.
            assert!(hi >= lo * 0.85, "{network}: {hi:.3} vs {lo:.3}");
        }
        assert!(res.to_string().contains("Fig. 14(c)"));
    }

    #[test]
    #[should_panic]
    fn odd_vcs_rejected() {
        let _ = run(
            &Run::new(Scale::Tiny),
            &Config {
                vc_counts: vec![3],
                dor_total_buffer: 9,
                message_len: 8,
                seed: 0,
            },
        );
    }
}
