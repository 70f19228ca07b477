//! **Fig. 14(e),(f)** — the effect of network-interface (source/sink)
//! bandwidth on peak throughput.
//!
//! The paper's fragment: "network interface bandwidth is an important
//! factor affecting the achievable peak-throughput of CR networks …
//! when enough source and sink bandwidth is provided" CR's advantage
//! grows — and it name-checks the Intel iWarp's multichannel
//! interface. A single injection/ejection channel caps each node at
//! one flit per cycle in and out, which becomes the bottleneck before
//! the fabric does.

use crate::harness::Run;
use crate::table::{fmt_f, Table};
use cr_core::{ProtocolKind, RoutingKind};
use cr_traffic::TrafficPattern;
use std::fmt;

/// Parameters for the Fig. 14(e)/(f) run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Interface channel counts to sweep (applied to both injection
    /// and ejection).
    pub channels: Vec<usize>,
    /// Message length in flits.
    pub message_len: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            channels: vec![1, 2, 4],
            message_len: 16,
            seed: 142,
        }
    }
}

/// One (network, channels) saturation measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"CR"` or `"DOR"`.
    pub network: &'static str,
    /// Injection/ejection channels per node.
    pub channels: usize,
    /// Peak accepted throughput, payload flits/node/cycle.
    pub peak_accepted: f64,
}

/// Fig. 14(e)/(f) results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points: Vec<(&'static str, usize)> = Vec::new();
    for &channels in &cfg.channels {
        points.push(("CR", channels));
        points.push(("DOR", channels));
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(network, channels)| {
                move || {
                    let peak_accepted = run.saturation_throughput(
                        |b| {
                            if network == "CR" {
                                b.routing(RoutingKind::Adaptive { vcs: 2 })
                                    .protocol(ProtocolKind::Cr);
                            } else {
                                b.routing(RoutingKind::Dor { lanes: 1 })
                                    .protocol(ProtocolKind::Baseline);
                            }
                            b.inject_channels(channels).eject_channels(channels);
                        },
                        TrafficPattern::Uniform,
                        cfg.message_len,
                        cfg.seed,
                    );
                    Row {
                        network,
                        channels,
                        peak_accepted,
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// Peak throughput for a (network, channels) pair.
    pub fn peak(&self, network: &str, channels: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.network == network && r.channels == channels)
            .map(|r| r.peak_accepted)
            .unwrap_or(0.0)
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 14(e),(f) — interface bandwidth vs peak throughput",
            &["network", "channels", "peak accepted (flits/node/cycle)"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.network.to_string(),
                r.channels.to_string(),
                fmt_f(r.peak_accepted),
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
    fn more_interface_channels_raise_cr_peak() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                channels: vec![1, 3],
                message_len: 16,
                seed: 7,
            },
        );
        assert_eq!(res.rows.len(), 4);
        let cr1 = res.peak("CR", 1);
        let cr3 = res.peak("CR", 3);
        assert!(
            cr3 > cr1 * 1.1,
            "CR peak should rise with interface channels ({cr1:.3} -> {cr3:.3})"
        );
        assert!(res.to_string().contains("Fig. 14(e)"));
    }
}
