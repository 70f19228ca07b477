//! **Extension — live fault churn** (DESIGN.md §13).
//!
//! The paper evaluates FCR against *static* fault plans: links die
//! before cycle zero and stay dead. Real fabrics lose and regain
//! channels while traffic is in flight. This experiment subjects CR,
//! FCR, and oblivious DOR to the same seeded kill-and-revive storm
//! (regional outages: every link touching a region dies for a window,
//! then comes back) and measures what the paper's protocol machinery
//! actually buys:
//!
//! * **exactly-once delivery** — a finite scheduled workload is
//!   offered, the network is drained to quiescence, and the delivered
//!   message set is compared against the offered set (message ids are
//!   dense, so the check is exact);
//! * **time-to-drain per event** — from each churn event's fire cycle
//!   until every message it stranded has been delivered
//!   ([`cr_core::ChurnSummary`]);
//! * **storm survival** — whether the network drains at all, and
//!   whether anything corrupt reached a receiver.
//!
//! Expected shape: FCR delivers everything exactly once (kills,
//! retransmissions, and misrouting absorb the storm); plain CR drains
//! but can hand corrupt payloads to receivers (it does not detect
//! faults); DOR either wedges in the dead region or delivers corrupt
//! flits, depending on where the storm lands.

use crate::harness::{Run, Scale};
use crate::table::{fmt_f, Table};
use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind, SimReport};
use cr_faults::ChurnSchedule;
use cr_sim::{Cycle, SimRng};
use cr_traffic::Trace;
use std::fmt;

/// Parameters for the churn storm run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of regional outages in the storm.
    pub outages: usize,
    /// Maximum outage radius in hops (0 = a single node's links).
    pub max_radius: u32,
    /// Shortest and longest outage durations in cycles.
    pub down_range: (u64, u64),
    /// Number of permutation-traffic waves offered across the storm.
    pub waves: usize,
    /// Message length in flits.
    pub message_len: u32,
    /// Misrouting hop budget for the FCR scheme.
    pub misroute_budget: u16,
    /// Random seed (storm placement and traffic permutations).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            outages: 6,
            max_radius: 1,
            down_range: (300, 600),
            waves: 48,
            message_len: 16,
            misroute_budget: 8,
            seed: 0xC4A2,
        }
    }
}

impl Config {
    /// The storm schedule this configuration generates at `scale` —
    /// deterministic per seed, shared by every scheme so all three face
    /// identical churn. Kills land in the first half of the nominal run
    /// window; every outage revives by `window_end + max_down`, so a
    /// drained run always ends fault-free.
    pub fn storm(&self, scale: Scale) -> ChurnSchedule {
        let topo = cr_topology::KAryNCube::torus(scale.radix(), 2);
        let cycles = scale.cycles();
        let mut schedule = ChurnSchedule::new();
        schedule.random_regional_outages(
            &topo,
            self.outages,
            Cycle::new(cycles / 10),
            Cycle::new(cycles / 2),
            self.max_radius,
            self.down_range.0,
            self.down_range.1,
            &mut SimRng::from_seed(self.seed ^ 0x5708),
        );
        schedule
    }

    /// The finite scheduled workload: `waves` random permutations
    /// spread across the storm window at `scale`, so traffic is alive
    /// before, during, and after every outage.
    pub fn workload(&self, scale: Scale) -> Trace {
        let nodes = scale.radix() * scale.radix();
        let span = scale.cycles() / 2;
        let mut rng = SimRng::from_seed(self.seed ^ 0x7AFF);
        let mut trace = Trace::from_events(Vec::new());
        for w in 0..self.waves {
            let at = span * w as u64 / self.waves.max(1) as u64;
            trace = trace.chain(&Trace::permutation(nodes, Cycle::ZERO, self.message_len, &mut rng), at);
        }
        trace
    }
}

/// One scheme's survival record for the storm.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scheme label (`dor`, `cr`, `fcr`).
    pub scheme: &'static str,
    /// Messages offered (trace events).
    pub offered: u64,
    /// Distinct messages delivered.
    pub delivered: u64,
    /// `true` when the delivered set is exactly the offered set — no
    /// loss and no duplicates.
    pub exactly_once: bool,
    /// Corrupt payloads accepted by receivers (FCR must show 0).
    pub corrupt_deliveries: u64,
    /// `true` when the network reached quiescence inside the drain
    /// budget.
    pub drained: bool,
    /// Churn events fired / churn events fully drained.
    pub events_fired: usize,
    /// Churn events whose stranded messages all delivered.
    pub events_drained: usize,
    /// Worst per-event time-to-drain in cycles.
    pub max_time_to_drain: u64,
    /// Worm kills of any kind.
    pub kills: u64,
    /// Retransmission attempts.
    pub retransmissions: u64,
    /// The full report (for downstream tooling).
    pub report: SimReport,
}

/// Churn storm results.
#[derive(Debug, Clone)]
pub struct Results {
    /// One row per scheme, in sweep order (`dor`, `cr`, `fcr`).
    pub rows: Vec<Row>,
}

/// The compared schemes: oblivious DOR, plain CR, and full FCR with
/// misrouting.
fn schemes(misroute_budget: u16) -> [(&'static str, RoutingKind, ProtocolKind); 3] {
    [
        ("dor", RoutingKind::Dor { lanes: 2 }, ProtocolKind::Baseline),
        ("cr", RoutingKind::Adaptive { vcs: 1 }, ProtocolKind::Cr),
        (
            "fcr",
            RoutingKind::AdaptiveMisroute {
                vcs: 1,
                extra_hops: misroute_budget,
            },
            ProtocolKind::Fcr,
        ),
    ]
}

/// Runs one scheme through the shared storm + workload and distils its
/// row.
fn run_scheme(
    run: &Run,
    cfg: &Config,
    scheme: &'static str,
    routing: RoutingKind,
    protocol: ProtocolKind,
) -> Row {
    let storm = cfg.storm(run.scale);
    let workload = cfg.workload(run.scale);
    let offered = workload.len() as u64;

    let mut b: NetworkBuilder = run.scale.builder();
    b.routing(routing)
        .protocol(protocol)
        .seed(cfg.seed)
        .churn(storm);
    let mut net = run.build(&mut b);
    net.set_record_deliveries(true);
    net.schedule_trace(&workload);

    // Drain budget: generous, so "did not drain" means wedged, not
    // impatient.
    let drained = net.run_until_quiescent(20 * run.scale.cycles());
    let report = run.finish(&mut net, 0);

    let mut delivered: Vec<u64> = net
        .take_delivery_log()
        .iter()
        .map(|d| d.id.as_u64())
        .collect();
    delivered.sort_unstable();
    let distinct = {
        let mut d = delivered.clone();
        d.dedup();
        d.len() as u64
    };
    let exactly_once =
        delivered == (0..offered).collect::<Vec<_>>() && net.counters().messages_generated == offered;

    Row {
        scheme,
        offered,
        delivered: distinct,
        exactly_once,
        corrupt_deliveries: report.counters.corrupt_payload_delivered,
        drained,
        events_fired: report.churn.events.len(),
        events_drained: report.churn.drained_events(),
        max_time_to_drain: report.churn.max_time_to_drain(),
        kills: report.total_kills(),
        retransmissions: report.counters.retransmissions,
        report,
    }
}

/// Runs the experiment: the same storm and workload against each
/// scheme, as independent sweep points.
pub fn run(run: &Run, cfg: &Config) -> Results {
    let rows = run.sweep(
        schemes(cfg.misroute_budget)
            .into_iter()
            .map(|(scheme, routing, protocol)| {
                move || run_scheme(run, cfg, scheme, routing, protocol)
            })
            .collect(),
    );
    Results { rows }
}

impl fmt::Display for Results {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Live churn — CR vs FCR vs DOR through a kill-and-revive storm",
            &[
                "scheme",
                "offered",
                "delivered",
                "exactly_once",
                "corrupt",
                "drained",
                "events",
                "events_drained",
                "max_ttd",
                "kills",
                "retransmissions",
            ],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.scheme.to_string(),
                r.offered.to_string(),
                r.delivered.to_string(),
                r.exactly_once.to_string(),
                r.corrupt_deliveries.to_string(),
                r.drained.to_string(),
                r.events_fired.to_string(),
                r.events_drained.to_string(),
                r.max_time_to_drain.to_string(),
                r.kills.to_string(),
                r.retransmissions.to_string(),
            ]);
        }
        t.fmt(f)?;
        if let Some(fcr) = self.rows.iter().find(|r| r.scheme == "fcr") {
            writeln!(
                f,
                "\nfcr storm survival: exactly_once={} drain_ratio={}",
                fcr.exactly_once,
                fmt_f(if fcr.events_fired == 0 {
                    1.0
                } else {
                    fcr.events_drained as f64 / fcr.events_fired as f64
                }),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            outages: 2,
            max_radius: 0,
            down_range: (150, 250),
            waves: 4,
            message_len: 8,
            misroute_budget: 8,
            seed: 0xC4A2,
        }
    }

    #[test]
    fn storm_and_workload_are_deterministic() {
        let (cfg, scale) = (tiny(), Scale::Tiny);
        assert_eq!(
            cfg.storm(scale).to_json().to_string(),
            cfg.storm(scale).to_json().to_string()
        );
        assert_eq!(cfg.workload(scale).len(), tiny().workload(scale).len());
        assert!(cfg.storm(scale).len() >= 1);
        assert!(cfg.workload(scale).len() > 10);
    }

    #[test]
    fn fcr_survives_the_storm_exactly_once() {
        let res = run(&Run::new(Scale::Tiny), &tiny());
        assert_eq!(res.rows.len(), 3);
        let fcr = res
            .rows
            .iter()
            .find(|r| r.scheme == "fcr")
            .expect("fcr row");
        assert!(fcr.drained, "FCR failed to drain the storm");
        assert!(
            fcr.exactly_once,
            "FCR lost or duplicated messages: delivered {} of {}",
            fcr.delivered, fcr.offered
        );
        assert_eq!(fcr.corrupt_deliveries, 0, "FCR delivered corrupt payload");
        assert!(fcr.events_fired > 0, "storm never fired");
        assert_eq!(
            fcr.events_drained, fcr.events_fired,
            "some churn events never drained"
        );
        assert!(res.to_string().contains("Live churn"));
    }
}
