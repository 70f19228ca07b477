//! **PDS table** — estimating how often *potential deadlock
//! situations* occur, using the paper's own methodology:
//!
//! "To conservatively estimate the number of PDS, we simulated a
//! deadlock-free routing algorithm (Duato's routing algorithm) which
//! uses two virtual networks — an adaptive one and a deadlock-free
//! deterministic one. During the simulation, we counted the number of
//! times messages needed to use the dimension-order routed virtual
//! channels (to escape deadlock)."
//!
//! Expected shape: PDS frequency is tiny at light load and grows
//! sharply toward saturation — deadlock is rare, which is precisely the
//! argument for CR's *recovery* (pay on the rare event) over
//! *avoidance* (pay on every message).

use crate::harness::Run;
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the PDS estimate.
#[derive(Debug, Clone)]
pub struct Config {
    /// Adaptive virtual channels in front of the escape network.
    pub adaptive_vcs: usize,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            adaptive_vcs: 1,
            message_len: 16,
            seed: 170,
        }
    }
}

/// One load point of the PDS estimate.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Escape-channel allocations during the measured window.
    pub escapes: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Potential deadlock situations per node per kilocycle.
    pub pds_per_node_kcycle: f64,
    /// Escapes per delivered message.
    pub escapes_per_message: f64,
}

/// PDS-table results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the estimate.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut loads = run.scale.loads();
    loads.push(0.5); // push toward saturation where PDS spike
    let rows = run.sweep(
        loads
            .into_iter()
            .map(|load| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Duato {
                        adaptive_vcs: cfg.adaptive_vcs,
                    })
                    .protocol(ProtocolKind::Baseline)
                    .traffic(
                        TrafficPattern::Uniform,
                        LengthDistribution::Fixed(cfg.message_len),
                        load,
                    )
                    .seed(cfg.seed);
                    let report = run.report(&mut b);
                    let delivered = report.counters.messages_delivered;
                    Row {
                        offered: load,
                        escapes: report.counters.escape_allocations,
                        delivered,
                        pds_per_node_kcycle: report.pds_per_node_kilocycle(),
                        escapes_per_message: if delivered == 0 {
                            0.0
                        } else {
                            report.counters.escape_allocations as f64 / delivered as f64
                        },
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
            "PDS estimate — escape-channel use under Duato's protocol",
            &[
                "offered",
                "escapes",
                "delivered",
                "PDS/node/kcycle",
                "escapes/msg",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                fmt_f(r.offered),
                r.escapes.to_string(),
                r.delivered.to_string(),
                fmt_f(r.pds_per_node_kcycle),
                fmt_f(r.escapes_per_message),
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
    fn pds_grow_with_load() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                adaptive_vcs: 1,
                message_len: 16,
                seed: 10,
            },
        );
        assert!(res.rows.len() >= 3);
        let first = res.rows.first().unwrap();
        let last = res.rows.last().unwrap();
        assert!(
            last.pds_per_node_kcycle > first.pds_per_node_kcycle,
            "PDS must grow toward saturation ({} -> {})",
            first.pds_per_node_kcycle,
            last.pds_per_node_kcycle
        );
        // At light load, escapes per message are rare — the motivation
        // for recovery over avoidance.
        assert!(
            first.escapes_per_message < last.escapes_per_message,
            "escapes/msg must grow with congestion"
        );
        assert!(res.to_string().contains("PDS"));
    }
}
