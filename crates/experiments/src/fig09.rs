//! **Fig. 9 (reconstructed)** — CR base performance: average message
//! latency and accepted throughput versus offered load, for several
//! message lengths, on the paper's torus.
//!
//! Expected shape: classic saturating latency curves; longer messages
//! saturate at a similar flit load but with higher base latency.

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, fmt_p, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 9 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Message lengths (flits) to sweep.
    pub message_lengths: Vec<usize>,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            message_lengths: vec![8, 16, 32],
            seed: 90,
        }
    }
}

/// One sweep row: a (message length, load) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Message length in flits.
    pub message_len: usize,
    /// The measurement.
    pub point: MeasuredPoint,
}

/// Fig. 9 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment. Sweep points execute in parallel (see
/// [`Run::sweep`]); results are identical under any job
/// count.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points = Vec::new();
    for &len in &cfg.message_lengths {
        for load in run.scale.loads() {
            points.push((len, load));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(len, load)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Cr)
                        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(len), load)
                        .seed(cfg.seed);
                    Row {
                        message_len: len,
                        point: run.measure(&mut b),
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 9 — CR latency vs offered load (8x8 torus, minimal adaptive, no VCs)",
            &["msg_len", "offered", "accepted", "latency", "p99", "kills", "retx"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.message_len.to_string(),
                fmt_f(r.point.offered),
                fmt_f(r.point.accepted),
                fmt_f(r.point.latency),
                fmt_p(r.point.p99),
                r.point.kills.to_string(),
                r.point.retransmissions.to_string(),
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
    fn latency_grows_with_load_and_length() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                message_lengths: vec![8, 16],
                seed: 1,
            },
        );
        assert_eq!(res.rows.len(), 4);
        assert!(res.rows.iter().all(|r| !r.point.deadlocked));
        // Latency at the higher load exceeds the lower load for each
        // length.
        for len in [8, 16] {
            let pts: Vec<&Row> = res.rows.iter().filter(|r| r.message_len == len).collect();
            assert!(pts[1].point.latency > pts[0].point.latency);
        }
        // Longer messages have higher base latency at low load.
        let l8 = res.rows.iter().find(|r| r.message_len == 8).unwrap();
        let l16 = res.rows.iter().find(|r| r.message_len == 16).unwrap();
        assert!(l16.point.latency > l8.point.latency);
        // The table renders.
        assert!(res.to_string().contains("Fig. 9"));
    }
}
