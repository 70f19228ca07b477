//! **Fig. 15 (reconstructed, from Section 6.2)** — Fault-tolerant CR
//! performance across a range of transient fault rates.
//!
//! The section fragment: "we explore the performance of Fault-tolerant
//! Compressionless Routing (FCR) with a range of fault rates. FCR
//! networks tolerate any transient faults." Expected shape: graceful
//! latency/throughput degradation as the rate rises, with **zero**
//! corrupt deliveries at every rate — integrity is the invariant, not
//! a statistic.

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_faults::FaultModel;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 15 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Transient corruption probabilities per flit-hop.
    pub fault_rates: Vec<f64>,
    /// Offered load (flits/node/cycle).
    pub load: f64,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            fault_rates: vec![0.0, 1e-6, 1e-5, 1e-4, 1e-3],
            load: 0.2,
            message_len: 16,
            seed: 150,
        }
    }
}

/// One fault-rate measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Transient fault rate per flit-hop.
    pub fault_rate: f64,
    /// The measurement.
    pub point: MeasuredPoint,
    /// Fault-triggered kills during the window.
    pub fault_kills: u64,
    /// Corrupt payload deliveries (must be zero).
    pub corrupt_deliveries: u64,
}

/// Fig. 15 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let points: Vec<f64> = cfg.fault_rates.clone();
    let rows = run.sweep(
        points
            .into_iter()
            .map(|rate| {
                move || {
                    let mut faults = FaultModel::new();
                    faults.set_transient_rate(rate);
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Fcr)
                        .faults(faults)
                        .traffic(
                            TrafficPattern::Uniform,
                            LengthDistribution::Fixed(cfg.message_len),
                            cfg.load,
                        )
                        .seed(cfg.seed);
                    let report = run.report(&mut b);
                    Row {
                        fault_rate: rate,
                        point: MeasuredPoint::from_report(&report),
                        fault_kills: report.counters.kills_fault,
                        corrupt_deliveries: report.counters.corrupt_payload_delivered,
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
            "Fig. 15 — FCR under transient faults (nonstop fault tolerance)",
            &[
                "fault_rate",
                "latency",
                "accepted",
                "fault_kills",
                "retx",
                "corrupt_deliveries",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                format!("{:.0e}", r.fault_rate),
                fmt_f(r.point.latency),
                fmt_f(r.point.accepted),
                r.fault_kills.to_string(),
                r.point.retransmissions.to_string(),
                r.corrupt_deliveries.to_string(),
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
    fn integrity_holds_and_degradation_is_graceful() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                fault_rates: vec![0.0, 2e-3],
                load: 0.15,
                message_len: 12,
                seed: 8,
            },
        );
        assert_eq!(res.rows.len(), 2);
        for r in &res.rows {
            assert_eq!(r.corrupt_deliveries, 0, "FCR integrity");
            assert!(!r.point.deadlocked);
            assert!(r.point.delivered > 0);
        }
        let clean = &res.rows[0];
        let faulty = &res.rows[1];
        assert_eq!(clean.fault_kills, 0);
        assert!(faulty.fault_kills > 0, "faults must have been recovered");
        assert!(
            faulty.point.latency > clean.point.latency,
            "recovery costs latency"
        );
        assert!(res.to_string().contains("Fig. 15"));
    }
}
