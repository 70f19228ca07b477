//! **Extension — ablation study** of CR's three mechanisms, as called
//! for in DESIGN.md: what does each piece of the protocol buy?
//!
//! | Variant | What is removed | Expected outcome |
//! |---------|-----------------|------------------|
//! | `full` | nothing | the reference |
//! | `no-padding` | worms not padded to `I_min` | the deadlock-freedom argument breaks: a short worm can be fully injected while uncommitted, so nobody watches it. Wedged rings accumulate and throughput collapses (the global watchdog may stay quiet because *other* rings still move — the failure is partial wedging, which is arguably worse: it looks like congestion) |
//! | `no-commit-check` | sources kill *any* stalled worm | still correct, but committed (draining) worms get killed too: more kills, more retransmissions, lower goodput |
//! | `instant-teardown` | kill tokens walk the whole path in one cycle | an idealized infinitely-fast kill wire: bounds how much the 1-hop-per-cycle teardown latency costs |

use crate::harness::{MeasuredPoint, Run};
use crate::table::{fmt_f, Table};
use cr_core::{Ablations, ProtocolKind, RoutingKind};
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::fmt;

/// Parameters for the ablation study.
#[derive(Debug, Clone)]
pub struct Config {
    /// Offered load — pick something past the knee so the mechanisms
    /// are actually exercised.
    pub load: f64,
    /// Message length in flits. Short relative to `I_min` so padding
    /// matters.
    pub message_len: usize,
    /// Flit-buffer depth per VC (shallow buffers make worms span more
    /// channels, which is where padding earns its keep).
    pub buffer_depth: usize,
    /// Traffic pattern (tornado ring traffic is the classic
    /// deadlock-former on a torus with one virtual channel).
    pub pattern: cr_traffic::TrafficPattern,
    /// Random seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            load: 0.6,
            message_len: 4,
            buffer_depth: 1,
            pattern: TrafficPattern::Tornado,
            seed: 210,
        }
    }
}

/// One ablation variant's measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Variant label.
    pub variant: &'static str,
    /// The measurement.
    pub point: MeasuredPoint,
}

/// Ablation results.
#[derive(Debug, Clone)]
pub struct Results {
    /// All measured rows.
    pub rows: Vec<Row>,
}

/// Runs the study.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let variants: [(&'static str, Ablations); 4] = [
        ("full", Ablations::default()),
        (
            "no-padding",
            Ablations {
                disable_padding: true,
                ..Default::default()
            },
        ),
        (
            "no-commit-check",
            Ablations {
                ignore_commitment: true,
                ..Default::default()
            },
        ),
        (
            "instant-teardown",
            Ablations {
                instant_teardown: true,
                ..Default::default()
            },
        ),
    ];
    let rows = run.sweep(
        variants
            .into_iter()
            .map(|(name, ablations)| {
                move || {
                    let mut b = run.scale.builder();
                    b.routing(RoutingKind::Adaptive { vcs: 1 })
                        .protocol(ProtocolKind::Cr)
                        .buffer_depth(cfg.buffer_depth)
                        .ablations(ablations)
                        .deadlock_threshold((run.scale.cycles() / 5).max(500))
                        .traffic(
                            cfg.pattern,
                            LengthDistribution::Fixed(cfg.message_len),
                            cfg.load,
                        )
                        .seed(cfg.seed);
                    let report = run.report(&mut b);
                    Row {
                        variant: name,
                        point: MeasuredPoint::from_report(&report),
                    }
                }
            })
            .collect(),
    );
    Results { rows }
}

impl Results {
    /// The row for a variant.
    pub fn row(&self, variant: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.variant == variant)
    }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Ablation — what each CR mechanism contributes",
            &[
                "variant",
                "deadlocked",
                "accepted",
                "latency",
                "kills",
                "retx",
                "pad%",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.variant.to_string(),
                r.point.deadlocked.to_string(),
                fmt_f(r.point.accepted),
                fmt_f(r.point.latency),
                r.point.kills.to_string(),
                r.point.retransmissions.to_string(),
                fmt_f(r.point.pad_overhead * 100.0),
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
    fn removing_padding_wedges_rings_and_collapses_throughput() {
        // Tornado ring traffic, 4-flit worms, shallow buffers: every
        // unpadded worm is unwatched once injected, and the rings
        // wedge.
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                load: 0.6,
                message_len: 4,
                buffer_depth: 1,
                pattern: TrafficPattern::Tornado,
                seed: 16,
            },
        );
        let full = res.row("full").unwrap();
        let unpadded = res.row("no-padding").unwrap();
        assert!(!full.point.deadlocked, "the real protocol must survive");
        assert!(
            unpadded.point.accepted < full.point.accepted * 0.85,
            "unpadded throughput should collapse ({:.3} vs {:.3})",
            unpadded.point.accepted,
            full.point.accepted
        );
    }

    #[test]
    fn ignoring_commitment_wastes_work() {
        // Long messages (> I_min) under uniform traffic: the window
        // between commitment and completion is where the blind scheme
        // kills worms that would have drained.
        let res = run(
            &Run::new(Scale::Tiny),
            &Config {
                load: 0.45,
                message_len: 16,
                buffer_depth: 1,
                pattern: TrafficPattern::Uniform,
                seed: 16,
            },
        );
        let full = res.row("full").unwrap();
        let blind = res.row("no-commit-check").unwrap();
        assert!(!blind.point.deadlocked, "still correct, just wasteful");
        assert!(
            blind.point.kills > full.point.kills,
            "killing committed worms means more kills ({} vs {})",
            blind.point.kills,
            full.point.kills
        );
    }

    #[test]
    fn instant_teardown_is_no_worse() {
        let res = run(&Run::new(Scale::Tiny), &Config::default());
        let full = res.row("full").unwrap();
        let instant = res.row("instant-teardown").unwrap();
        assert!(!instant.point.deadlocked);
        // Faster channel release can only help throughput (within
        // noise).
        assert!(instant.point.accepted >= full.point.accepted * 0.9);
    }
}
