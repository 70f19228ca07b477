//! **Fig. 10 (reconstructed)** — sensitivity of CR performance to the
//! kill timeout, at a moderate and a high load.
//!
//! Expected shape: very small timeouts cause spurious kills that hurt
//! latency (especially near saturation); very large timeouts slow
//! deadlock recovery; a broad middle range works well — which is why
//! the paper can use the simple `message length x VCs` rule.

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 10 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Timeout values (cycles) to sweep.
    pub timeouts: Vec<u64>,
    /// Offered loads to test each timeout at.
    pub loads: Vec<f64>,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            timeouts: vec![4, 8, 16, 32, 64, 128, 256],
            loads: vec![0.2, 0.4],
            message_len: 16,
            seed: 100,
        }
    }
}

/// One (timeout, load) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Timeout in cycles.
    pub timeout: u64,
    /// The measurement.
    pub point: MeasuredPoint,
}

/// Fig. 10 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment (points in parallel; results identical under
/// any job count).
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points = Vec::new();
    for &timeout in &cfg.timeouts {
        for &load in &cfg.loads {
            points.push((timeout, load));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(timeout, load)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Cr)
                        .timeout(timeout)
                        .traffic(
                            TrafficPattern::Uniform,
                            LengthDistribution::Fixed(cfg.message_len),
                            load,
                        )
                        .seed(cfg.seed);
                    Row {
                        timeout,
                        point: run.measure(&mut b),
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Kills per delivered message for a row.
    pub fn kill_rate(row: &Row) -> f64 {
        if row.point.delivered == 0 {
            0.0
        } else {
            row.point.kills as f64 / row.point.delivered as f64
        }
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 10 — CR sensitivity to kill timeout (16-flit messages)",
            &["timeout", "offered", "latency", "kills/msg", "accepted"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.timeout.to_string(),
                fmt_f(r.point.offered),
                fmt_f(r.point.latency),
                fmt_f(Results::kill_rate(r)),
                fmt_f(r.point.accepted),
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
    fn tiny_timeouts_kill_more() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                timeouts: vec![2, 64],
                loads: vec![0.3],
                message_len: 16,
                seed: 2,
            },
        );
        assert_eq!(res.rows.len(), 2);
        let aggressive = &res.rows[0];
        let relaxed = &res.rows[1];
        assert!(
            Results::kill_rate(aggressive) > Results::kill_rate(relaxed),
            "timeout 2 must kill more than timeout 64"
        );
        assert!(res.to_string().contains("Fig. 10"));
    }
}
