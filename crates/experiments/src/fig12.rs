//! **Fig. 12 (reconstructed)** — source-based versus path-wide kill
//! detection.
//!
//! The paper's Section 7 fragment is explicit about the outcome:
//! "the path-wide schemes produce unnecessary message kills, providing
//! inferior performance". A router watching only local stall cannot
//! tell a deadlocked worm from one that is merely slow (or already
//! committed and draining); the source-based scheme never kills a
//! committed worm.

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_sim::NodeId;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 12 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Stall threshold used by both schemes (cycles).
    pub timeout: u64,
    /// Message length in flits.
    pub message_len: usize,
    /// Extra high loads beyond the scale's default sweep (the effect
    /// lives past saturation).
    pub extra_loads: Vec<f64>,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            timeout: 32,
            message_len: 16,
            extra_loads: vec![0.5, 0.6],
            seed: 120,
        }
    }
}

/// One (scheme, pattern, load) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"uniform"` or `"hotspot"`.
    pub pattern: &'static str,
    /// `"source"` or `"path-wide"`.
    pub scheme: &'static str,
    /// The measurement.
    pub point: MeasuredPoint,
    /// Kills of already-committed worms — unnecessary by
    /// construction; the source scheme can never produce one.
    pub committed_kills: u64,
}

/// Fig. 12 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment: a uniform-traffic sweep, plus a hotspot sweep
/// where ejection queueing makes the path-wide scheme's blindness to
/// commitment really hurt (a worm parked at the hotspot's busy
/// ejection port looks exactly like a deadlocked one to a router).
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut loads = run.scale.loads();
    loads.extend_from_slice(&cfg.extra_loads);
    let patterns: [(&'static str, TrafficPattern); 2] = [
        ("uniform", TrafficPattern::Uniform),
        (
            "hotspot",
            TrafficPattern::Hotspot {
                hotspot: NodeId::new(0),
                fraction: 0.25,
            },
        ),
    ];
    let mut points = Vec::new();
    for (pattern_name, pattern) in patterns {
        for scheme in ["source", "path-wide"] {
            for &load in &loads {
                points.push((pattern_name, pattern, scheme, load));
            }
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(pattern_name, pattern, scheme, load)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Cr)
                        .timeout(cfg.timeout)
                        .traffic(pattern, LengthDistribution::Fixed(cfg.message_len), load)
                        .seed(cfg.seed);
                    if scheme == "path-wide" {
                        b.path_wide(cfg.timeout);
                    }
                    let report = run.report(&mut b);
                    Row {
                        pattern: pattern_name,
                        scheme,
                        point: MeasuredPoint::from_report(&report),
                        committed_kills: report.counters.kills_committed,
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Total kills of a scheme summed over the sweep.
    pub fn total_kills_of(&self, scheme: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.scheme == scheme)
            .map(|r| r.point.kills)
            .sum()
    }

    /// Total unnecessary (committed-worm) kills of a scheme.
    pub fn committed_kills_of(&self, scheme: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.scheme == scheme)
            .map(|r| r.committed_kills)
            .sum()
    }

    /// Total deliveries of a scheme summed over the sweep.
    pub fn total_delivered_of(&self, scheme: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.scheme == scheme)
            .map(|r| r.point.delivered)
            .sum()
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 12 — source-based vs path-wide kill detection",
            &[
                "pattern",
                "scheme",
                "offered",
                "latency",
                "kills",
                "unnecessary",
                "delivered",
                "accepted",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.pattern.to_string(),
                r.scheme.to_string(),
                fmt_f(r.point.offered),
                fmt_f(r.point.latency),
                r.point.kills.to_string(),
                r.committed_kills.to_string(),
                r.point.delivered.to_string(),
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
    fn path_wide_produces_unnecessary_kills_and_source_never_does() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                timeout: 32,
                message_len: 16,
                extra_loads: vec![0.55],
                seed: 4,
            },
        );
        // The source scheme cannot kill a committed worm, by
        // construction (the injector checks commitment first).
        assert_eq!(res.committed_kills_of("source"), 0);
        // The path-wide scheme kills blindly, so under congestion some
        // of its victims were committed and would have drained.
        assert!(
            res.committed_kills_of("path-wide") > 0,
            "path-wide must produce unnecessary kills"
        );
        assert!(res.total_kills_of("path-wide") > 0);
        assert!(res.total_delivered_of("source") > 0);
        assert!(res.to_string().contains("Fig. 12"));
    }
}
