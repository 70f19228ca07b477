//! **Fig. 11** — average message latency for static retransmission
//! gaps versus the dynamic (binary-exponential-backoff) scheme, with
//! the kill timeout fixed at 32 cycles — the setup the paper states
//! explicitly ("the timeout for message kills is fixed at 32 cycles;
//! the dashed lines are the static schemes and the solid line is the
//! dynamic scheme").
//!
//! Expected shape: each static gap is good somewhere and poor
//! elsewhere (small gaps thrash under congestion, large gaps waste
//! time at light load); the dynamic scheme tracks the best static
//! choice across the whole load range.

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RetransmitScheme, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 11 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Static gaps (cycles) to compare.
    pub static_gaps: Vec<u64>,
    /// Kill timeout (the paper fixes 32).
    pub timeout: u64,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            static_gaps: vec![4, 16, 64, 256],
            timeout: 32,
            message_len: 16,
            seed: 110,
        }
    }
}

/// One (scheme, load) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scheme label (`"static-4"`, …, `"dynamic"`).
    pub scheme: String,
    /// The measurement.
    pub point: MeasuredPoint,
}

/// Fig. 11 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut schemes: Vec<(String, RetransmitScheme)> = cfg
        .static_gaps
        .iter()
        .map(|&gap| (format!("static-{gap}"), RetransmitScheme::StaticGap { gap }))
        .collect();
    schemes.push((
        "dynamic".to_string(),
        RetransmitScheme::ExponentialBackoff {
            slot: 16,
            ceiling: 10,
        },
    ));

    let mut points = Vec::new();
    for (name, scheme) in &schemes {
        for load in run.scale.loads() {
            points.push((name.clone(), *scheme, load));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(name, scheme, load)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Cr)
                        .timeout(cfg.timeout)
                        .retransmit(scheme)
                        .traffic(
                            TrafficPattern::Uniform,
                            LengthDistribution::Fixed(cfg.message_len),
                            load,
                        )
                        .seed(cfg.seed);
                    Row {
                        scheme: name,
                        point: run.measure(&mut b),
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Mean latency of a scheme averaged over the load sweep.
    pub fn mean_latency_of(&self, scheme: &str) -> f64 {
        let pts: Vec<&Row> = self.rows.iter().filter(|r| r.scheme == scheme).collect();
        if pts.is_empty() {
            return 0.0;
        }
        pts.iter().map(|r| r.point.latency).sum::<f64>() / pts.len() as f64
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 11 — retransmission gap schemes (timeout fixed at 32 cycles)",
            &["scheme", "offered", "latency", "retx", "accepted"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.scheme.clone(),
                fmt_f(r.point.offered),
                fmt_f(r.point.latency),
                r.point.retransmissions.to_string(),
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
    fn dynamic_tracks_reasonable_latency() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                static_gaps: vec![4, 256],
                timeout: 16,
                message_len: 16,
                seed: 3,
            },
        );
        // 3 schemes x 2 loads.
        assert_eq!(res.rows.len(), 6);
        let dynamic = res.mean_latency_of("dynamic");
        let worst_static = res
            .mean_latency_of("static-4")
            .max(res.mean_latency_of("static-256"));
        assert!(dynamic > 0.0);
        // The dynamic scheme must not be the worst of the bunch.
        assert!(
            dynamic <= worst_static * 1.05,
            "dynamic {dynamic} vs worst static {worst_static}"
        );
        assert!(res.to_string().contains("Fig. 11"));
    }
}
