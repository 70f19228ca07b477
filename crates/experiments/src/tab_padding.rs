//! **Padding-overhead table** — CR's one real cost.
//!
//! CR pads every worm to `I_min = d_inj + D x (B + d_chan)` flits so it
//! spans its path. The paper's Section 7 fragments pin the analysis:
//! padding "depends only on the distance in flits" and "is independent
//! of the number of virtual channels"; deep networks (large channel
//! pipeline delay) make it worse. This table reports the analytic
//! expectation and the measured overhead side by side.

use crate::harness::Run;
use crate::table::{fmt_f, Table};
use cr_core::{NetworkConfig, ProtocolKind, RoutingKind};
use cr_sim::NodeId;
use cr_topology::{KAryNCube, Topology};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the padding table.
#[derive(Debug, Clone)]
pub struct Config {
    /// Message lengths (flits) to sweep.
    pub message_lengths: Vec<usize>,
    /// Channel pipeline depths (network "depth") to sweep.
    pub channel_latencies: Vec<u64>,
    /// Offered load.
    pub load: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            message_lengths: vec![4, 8, 16, 32, 64],
            channel_latencies: vec![1, 2, 4],
            load: 0.1,
            seed: 180,
        }
    }
}

/// One (message length, channel latency) row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Message length in flits.
    pub message_len: usize,
    /// Channel pipeline depth in cycles.
    pub channel_latency: u64,
    /// Analytic expected overhead: `E[max(0, I_min(D) − L)] / L` over
    /// uniform destination pairs.
    pub analytic_overhead: f64,
    /// Measured overhead: pad flits / total flits injected.
    pub measured_overhead: f64,
}

/// Padding-table results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Expected padding overhead for uniform traffic on `topo` with the
/// given network parameters: average over ordered pairs of
/// `max(0, I_min(D) − L) / L`.
pub fn analytic_overhead(topo: &dyn Topology, cfg: &NetworkConfig, message_len: usize) -> f64 {
    let n = topo.num_nodes();
    let mut total = 0.0;
    let mut pairs = 0u64;
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let dist = topo.distance(NodeId::new(s as u32), NodeId::new(d as u32));
            let i_min = cfg.i_min(dist);
            let pad = i_min.saturating_sub(message_len);
            total += pad as f64 / message_len as f64;
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Runs the experiment.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let mut points: Vec<(u64, usize)> = Vec::new();
    for &chan in &cfg.channel_latencies {
        for &len in &cfg.message_lengths {
            points.push((chan, len));
        }
    }
    let rows = run.sweep(
        points
            .into_iter()
            .map(|(chan, len)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Cr)
                        .channel_latency(chan)
                        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(len), cfg.load)
                        .seed(cfg.seed);
                    let mut net = run.build(&mut b);
                    let analytic = {
                        let topo = KAryNCube::torus(run.scale.radix(), 2);
                        analytic_overhead(&topo, net.config(), len)
                    };
                    let report = run.finish(&mut net, run.scale.cycles());
                    // Measured: pads / payload, matching the analytic
                    // definition (overhead relative to useful flits).
                    let measured = if report.counters.payload_flits_injected == 0 {
                        0.0
                    } else {
                        report.counters.pad_flits_injected as f64
                            / report.counters.payload_flits_injected as f64
                    };
                    Row {
                        message_len: len,
                        channel_latency: chan,
                        analytic_overhead: analytic,
                        measured_overhead: measured,
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
            "Padding overhead — pads per payload flit, analytic vs measured",
            &["chan_latency", "msg_len", "analytic", "measured"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.channel_latency.to_string(),
                r.message_len.to_string(),
                fmt_f(r.analytic_overhead),
                fmt_f(r.measured_overhead),
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
    fn analytic_matches_hand_computation() {
        // 2-node torus(2,1): distance always 1. Defaults: inject 2,
        // buffer 2, chan 1 -> i_min = 2 + 1*(2+1) = 5.
        let topo = KAryNCube::torus(2, 1);
        let cfg = NetworkConfig::default();
        // L=4: pad 1 -> overhead 0.25. L=8: 0.
        assert!((analytic_overhead(&topo, &cfg, 4) - 0.25).abs() < 1e-12);
        assert_eq!(analytic_overhead(&topo, &cfg, 8), 0.0);
    }

    #[test]
    fn short_messages_pay_more_and_measured_tracks_analytic() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                message_lengths: vec![4, 32],
                channel_latencies: vec![1],
                load: 0.1,
                seed: 11,
            },
        );
        let short = &res.rows[0];
        let long = &res.rows[1];
        assert!(short.analytic_overhead > long.analytic_overhead);
        assert!(short.measured_overhead > long.measured_overhead);
        // Measured within a loose band of analytic (traffic mixes
        // distances exactly like the analytic average).
        assert!(
            (short.measured_overhead - short.analytic_overhead).abs()
                < 0.3 * short.analytic_overhead.max(0.1),
            "measured {} vs analytic {}",
            short.measured_overhead,
            short.analytic_overhead
        );
        assert!(res.to_string().contains("Padding"));
    }

    #[test]
    fn deeper_channels_pad_more() {
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                message_lengths: vec![8],
                channel_latencies: vec![1, 4],
                load: 0.1,
                seed: 12,
            },
        );
        assert!(res.rows[1].analytic_overhead > res.rows[0].analytic_overhead);
        assert!(res.rows[1].measured_overhead > res.rows[0].measured_overhead);
    }
}
