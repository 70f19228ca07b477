//! **Fig. 14(a),(b)** — CR versus dimension-order routing across
//! buffer depths, both given two virtual channels.
//!
//! The paper's claim is verbatim in the fragments: "with equally given
//! two virtual channels, a CR network with 2-flit deep buffers matches
//! the performance of a DOR network with 16-flit deep buffers", and
//! increasing CR's buffer depth "only increases padding overhead
//! without performance gain".
//!
//! For CR, `timeout = message length x number of virtual channels`
//! (the Fig. 14 caption's rule, applied automatically by the builder).

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 14(a)/(b) run.
#[derive(Debug, Clone)]
pub struct Config {
    /// DOR buffer depths to sweep (flits per VC).
    pub dor_depths: Vec<usize>,
    /// CR buffer depths to sweep (the paper fixes 2; sweeping shows
    /// depth-insensitivity).
    pub cr_depths: Vec<usize>,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            dor_depths: vec![2, 4, 8, 16],
            cr_depths: vec![2, 4],
            message_len: 16,
            seed: 140,
        }
    }
}

/// One (network, depth, load) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"CR"` or `"DOR"`.
    pub network: &'static str,
    /// Buffer depth in flits per VC.
    pub depth: usize,
    /// The measurement.
    pub point: MeasuredPoint,
}

/// Fig. 14(a)/(b) results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment. Both networks get two virtual channels: CR
/// uses them as adaptive lanes, DOR as its two dateline classes.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points: Vec<(&'static str, usize, f64)> = Vec::new();
    for &depth in &cfg.cr_depths {
        for load in run.scale.loads() {
            points.push(("CR", depth, load));
        }
    }
    for &depth in &cfg.dor_depths {
        for load in run.scale.loads() {
            points.push(("DOR", depth, load));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(network, depth, load)| {
                move || {
                    let mut b = run.scale.builder();
                    if network == "CR" {
                        b.routing(RoutingKind::Adaptive { vcs: 2 })
                            .protocol(ProtocolKind::Cr);
                    } else {
                        b.routing(RoutingKind::Dor { lanes: 1 }) // 2 VCs total on a torus
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
    /// Peak accepted throughput of one (network, depth) curve.
    pub fn peak_accepted(&self, network: &str, depth: usize) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.network == network && r.depth == depth)
            .map(|r| r.point.accepted)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 14(a),(b) — CR vs DOR across buffer depths (2 VCs each)",
            &["network", "depth", "offered", "accepted", "latency", "kills"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.network.to_string(),
                r.depth.to_string(),
                fmt_f(r.point.offered),
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
    use crate::Scale;

    #[test]
    fn cr_with_shallow_buffers_competes_with_deep_dor() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                dor_depths: vec![2, 16],
                cr_depths: vec![2],
                message_len: 16,
                seed: 5,
            },
        );
        let cr2 = res.peak_accepted("CR", 2);
        let dor2 = res.peak_accepted("DOR", 2);
        let dor16 = res.peak_accepted("DOR", 16);
        assert!(cr2 > 0.0 && dor2 > 0.0 && dor16 > 0.0);
        // The paper's headline: CR at depth 2 is at least competitive
        // with shallow DOR, approaching deep DOR.
        assert!(
            cr2 >= dor2 * 0.9,
            "CR depth-2 ({cr2:.3}) should at least match DOR depth-2 ({dor2:.3})"
        );
        assert!(res.to_string().contains("Fig. 14(a)"));
    }
}
