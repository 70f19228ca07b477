//! **Fig. 16 (reconstructed)** — FCR with permanent link faults.
//!
//! The abstract promises "permanent fault tolerance": dead channels are
//! modelled as corrupting every flit (a detectable failure), routers
//! exclude diagnosed-dead ports from adaptive candidates, and retries
//! misroute around fault clusters. Expected shape: every message is
//! still delivered as links die; latency rises modestly.

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_faults::FaultModel;
use cr_sim::SimRng;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the Fig. 16 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Numbers of dead links to sweep (placed randomly, preserving
    /// connectivity).
    pub dead_links: Vec<usize>,
    /// Offered load (flits/node/cycle).
    pub load: f64,
    /// Message length in flits.
    pub message_len: usize,
    /// Misrouting hop budget for routing around faults.
    pub misroute_budget: u16,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            dead_links: vec![0, 2, 4, 8],
            load: 0.15,
            message_len: 16,
            misroute_budget: 8,
            seed: 160,
        }
    }
}

/// One dead-link-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Dead links in the network.
    pub dead_links: usize,
    /// The measurement.
    pub point: MeasuredPoint,
    /// Delivered / generated.
    pub delivery_ratio: f64,
    /// Corrupt payload deliveries (must be zero).
    pub corrupt_deliveries: u64,
}

/// Fig. 16 results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a fault plan cannot be placed without disconnecting the
/// network (raise the topology size or lower the counts).
pub fn run(run: &Run, cfg: &Config) -> Results {
    let points: Vec<usize> = cfg.dead_links.clone();
    let rows = run.sweep(
        points
            .into_iter()
            .map(|count| {
                move || {
                    let mut b = run.scale.builder();
                    let mut faults = FaultModel::new();
                    if count > 0 {
                        let topo = cr_topology::KAryNCube::torus(run.scale.radix(), 2);
                        faults
                            .kill_random_links_connected(
                                &topo,
                                count,
                                &mut SimRng::from_seed(cfg.seed ^ 0xFA),
                            )
                            .expect("fault plan must keep the network connected");
                    }
                    b.routing(RoutingKind::AdaptiveMisroute {
                        vcs: 1,
                        extra_hops: cfg.misroute_budget,
                    })
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
                        dead_links: count,
                        point: MeasuredPoint::from_report(&report),
                        delivery_ratio: report.delivery_ratio(),
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
            "Fig. 16 — FCR with permanent link faults (adaptive + misroute)",
            &[
                "dead_links",
                "latency",
                "accepted",
                "delivery_ratio",
                "kills",
                "corrupt_deliveries",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.dead_links.to_string(),
                fmt_f(r.point.latency),
                fmt_f(r.point.accepted),
                fmt_f(r.delivery_ratio),
                r.point.kills.to_string(),
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
    fn delivery_survives_dead_links() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                dead_links: vec![0, 4],
                load: 0.1,
                message_len: 12,
                misroute_budget: 8,
                seed: 9,
            },
        );
        for r in &res.rows {
            assert!(!r.point.deadlocked);
            assert_eq!(r.corrupt_deliveries, 0);
            assert!(r.point.delivered > 0);
            // Open-loop runs always end with some traffic in flight;
            // the ratio reflects that, not loss.
            assert!(r.delivery_ratio > 0.8, "ratio {}", r.delivery_ratio);
        }
        assert!(res.to_string().contains("Fig. 16"));
    }
}
