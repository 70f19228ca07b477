//! **Extension** — CR versus DOR on non-uniform traffic.
//!
//! The paper measures uniform traffic and argues the rest: "CR
//! outperforms DOR with equal resources on uniform traffic, and
//! because CR includes adaptive routing, it would likely produce an
//! even larger performance difference for non-uniform traffic
//! patterns." This experiment checks that prediction on the classic
//! adversarial permutations.

use crate::harness::Run;
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_sim::NodeId;
use cr_traffic::TrafficPattern;
use std::fmt;

/// Parameters for the non-uniform comparison.
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
            seed: 190,
        }
    }
}

/// One traffic-pattern comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Pattern name.
    pub pattern: &'static str,
    /// CR peak accepted throughput.
    pub cr_peak: f64,
    /// DOR peak accepted throughput.
    pub dor_peak: f64,
}

impl Row {
    /// CR's advantage over DOR (ratio of peaks).
    pub fn advantage(&self) -> f64 {
        if self.dor_peak == 0.0 {
            f64::INFINITY
        } else {
            self.cr_peak / self.dor_peak
        }
    }
}

/// Non-uniform traffic results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the comparison.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let hotspot = TrafficPattern::Hotspot {
        hotspot: NodeId::new(0),
        fraction: 0.2,
    };
    let patterns: Vec<(&'static str, TrafficPattern)> = vec![
        ("uniform", TrafficPattern::Uniform),
        ("transpose", TrafficPattern::Transpose),
        ("bit-reversal", TrafficPattern::BitReversal),
        ("tornado", TrafficPattern::Tornado),
        ("hotspot-20%", hotspot),
    ];
    let mut points = Vec::new();
    for (name, pattern) in patterns {
        for network in ["CR", "DOR"] {
            points.push((name, pattern, network));
        }
    }
    let peaks = run.sweep(
        points
            .into_iter()
            .map(|(name, pattern, network)| {
                move || {
                    let peak = run.saturation_throughput(
                        |b| {
                            if network == "CR" {
                                b.routing(RoutingKind::Adaptive { vcs: 2 })
                                    .protocol(ProtocolKind::Cr);
                            } else {
                                b.routing(RoutingKind::Dor { lanes: 1 })
                                    .protocol(ProtocolKind::Baseline);
                            }
                        },
                        pattern,
                        cfg.message_len,
                        cfg.seed,
                    );
                    (name, peak)
                }
            })
            .collect(),
    );
    // Each pattern contributed a CR point then a DOR point, in order.
    let rows = peaks
        .chunks(2)
        .map(|pair| Row {
            pattern: pair[0].0,
            cr_peak: pair[0].1,
            dor_peak: pair[1].1,
        })
        .collect();
    Results { rows }
}

impl Results {
    /// The row for a pattern.
    pub fn row(&self, pattern: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.pattern == pattern)
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Extension — CR vs DOR peak throughput by traffic pattern",
            &["pattern", "CR peak", "DOR peak", "CR/DOR"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.pattern.to_string(),
                fmt_f(r.cr_peak),
                fmt_f(r.dor_peak),
                fmt_f(r.advantage()),
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
    fn adaptivity_wins_on_adversarial_patterns() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                message_len: 16,
                seed: 13,
            },
        );
        assert_eq!(res.rows.len(), 5);
        for r in &res.rows {
            assert!(r.cr_peak > 0.0 && r.dor_peak > 0.0, "{}", r.pattern);
        }
        // On at least one adversarial pattern, CR's relative advantage
        // should exceed its uniform-traffic advantage.
        let uniform = res.row("uniform").unwrap().advantage();
        let best_adversarial = res
            .rows
            .iter()
            .filter(|r| r.pattern != "uniform")
            .map(Row::advantage)
            .fold(0.0, f64::max);
        assert!(
            best_adversarial > uniform,
            "adversarial advantage {best_adversarial:.2} vs uniform {uniform:.2}"
        );
    }
}
