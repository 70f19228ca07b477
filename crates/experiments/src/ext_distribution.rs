//! **Extension (Section 7 discussion)** — latency distribution under
//! CR: "repeated kills can give some messages much larger latencies,
//! increasing the variance of message latency" (the paper points to
//! the authors' bimodal-load study, reference \[32\], for modelling and
//! mitigation).
//!
//! This experiment quantifies the effect: CR's latency *tail*
//! (p95/p99/max relative to the mean) widens with load as kills and
//! retransmissions concentrate delay on unlucky messages, while
//! kill-free DOR keeps a tighter distribution until it saturates. A
//! bimodal-length workload (short messages mixed with long ones) is
//! included, mirroring reference \[32\]'s setting.

use crate::harness::Run;
use crate::table::{fmt_f, fmt_p, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the distribution experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Offered loads.
    pub loads: Vec<f64>,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            loads: vec![0.1, 0.2, 0.3],
            seed: 200,
        }
    }
}

/// One (network, workload, load) distribution measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"CR"` or `"DOR"`.
    pub network: &'static str,
    /// `"fixed-16"` or `"bimodal-4/64"`.
    pub workload: &'static str,
    /// Offered load.
    pub offered: f64,
    /// Mean latency.
    pub mean: f64,
    /// Latency standard deviation.
    pub std_dev: f64,
    /// 50th / 95th / 99th percentiles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observed latency.
    pub max: f64,
    /// Kills during the window.
    pub kills: u64,
}

/// Distribution results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let workloads: [(&'static str, LengthDistribution); 2] = [
        ("fixed-16", LengthDistribution::Fixed(16)),
        (
            "bimodal-4/64",
            LengthDistribution::Bimodal {
                short: 4,
                long: 64,
                long_fraction: 0.2,
            },
        ),
    ];
    let mut points = Vec::new();
    for (wname, lengths) in workloads {
        for &load in &cfg.loads {
            for (network, routing, protocol) in [
                ("CR", RoutingKind::Adaptive { vcs: 2 }, ProtocolKind::Cr),
                (
                    "DOR",
                    RoutingKind::Dor { lanes: 1 },
                    ProtocolKind::Baseline,
                ),
            ] {
                points.push((wname, lengths, load, network, routing, protocol));
            }
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(wname, lengths, load, network, routing, protocol)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(routing)
                        .protocol(protocol)
                        .traffic(TrafficPattern::Uniform, lengths, load)
                        .seed(cfg.seed);
                    let report = run.report(&mut b);
                    Row {
                        network,
                        workload: wname,
                        offered: load,
                        mean: report.mean_latency(),
                        std_dev: report.latency.std_dev(),
                        p50: report.latency_percentiles.0,
                        p95: report.latency_percentiles.1,
                        p99: report.latency_percentiles.2,
                        max: report.latency.max(),
                        kills: report.total_kills(),
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
            "Extension — latency distribution (kill-induced variance)",
            &[
                "network", "workload", "offered", "mean", "stddev", "p50", "p95", "p99", "max",
                "kills",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.network.to_string(),
                r.workload.to_string(),
                fmt_f(r.offered),
                fmt_f(r.mean),
                fmt_f(r.std_dev),
                fmt_p(r.p50),
                fmt_p(r.p95),
                fmt_p(r.p99),
                fmt_f(r.max),
                r.kills.to_string(),
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
    fn kills_widen_the_latency_tail() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                // Past CR's saturation on the tiny torus, so kills occur.
                loads: vec![0.55],
                seed: 14,
            },
        );
        // 2 workloads x 1 load x 2 networks.
        assert_eq!(res.rows.len(), 4);
        let cr = res
            .rows
            .iter()
            .find(|r| r.network == "CR" && r.workload == "fixed-16")
            .unwrap();
        assert!(cr.kills > 0, "tail analysis needs kills to have happened");
        // The tail is heavier than the median once kills kick in.
        assert!(cr.p99 > cr.p50, "p99 {} vs p50 {}", cr.p99, cr.p50);
        assert!(cr.max >= cr.p99 as f64);
        assert!(res.to_string().contains("distribution"));
    }

    #[test]
    fn bimodal_workload_runs_on_both_networks() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                loads: vec![0.15],
                seed: 15,
            },
        );
        for r in res.rows.iter().filter(|r| r.workload == "bimodal-4/64") {
            assert!(r.mean > 0.0, "{} produced no traffic", r.network);
        }
    }
}
