//! Simulation output: counters and the end-of-run report.

use cr_metrics::{Histogram, OnlineStats};
use cr_sim::Json;
use std::fmt;

/// Network-wide event counters, aggregated across nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Messages generated by the traffic sources.
    pub messages_generated: u64,
    /// Messages delivered to processors (in order, deduplicated).
    pub messages_delivered: u64,
    /// Payload flits delivered (padding excluded).
    pub payload_flits_delivered: u64,
    /// PAD flits that crossed the network — CR's padding overhead.
    pub pad_flits_injected: u64,
    /// Payload flits injected (accepted by injection FIFOs; retries
    /// count again).
    pub payload_flits_injected: u64,
    /// Kills requested by source timeouts (CR's deadlock recovery).
    pub kills_source_timeout: u64,
    /// Kills triggered by in-network fault detection (FCR).
    pub kills_fault: u64,
    /// Kills triggered by the path-wide stall detector (comparison
    /// scheme).
    pub kills_path_wide: u64,
    /// Kills of already-committed worms — unnecessary by construction
    /// (a committed worm always drains). Only the path-wide scheme
    /// produces these.
    pub kills_committed: u64,
    /// Retransmission attempts started.
    pub retransmissions: u64,
    /// Flits flushed from buffers by kill teardown.
    pub flits_flushed: u64,
    /// In-flight flits dropped because their worm was killed.
    pub flits_dropped_killed: u64,
    /// Flits corrupted by the fault model.
    pub flits_corrupted: u64,
    /// Corrupted flits whose detection was missed (only with an
    /// imperfect detection model).
    pub detections_missed: u64,
    /// Messages delivered with corrupted payload — the FCR integrity
    /// violation count; must be zero with perfect detection.
    pub corrupt_payload_delivered: u64,
    /// Completed worms that arrived ahead of order and were held.
    pub out_of_order_arrivals: u64,
    /// Duplicate deliveries suppressed by the receiver.
    pub duplicates_dropped: u64,
    /// Partial messages discarded at receivers.
    pub partials_discarded: u64,
    /// Escape-channel allocations (Duato's protocol): the paper's
    /// potential-deadlock-situation count.
    pub escape_allocations: u64,
    /// Headers that found no routable candidate (fault blocking).
    pub unroutable_headers: u64,
    /// Defensive orphan-flit drops (should stay zero).
    pub orphan_flits_dropped: u64,
}

/// Expands a macro over every `NetCounters` field, keeping
/// serialization and deserialization in lockstep with the struct.
macro_rules! with_counter_fields {
    ($mac:ident!($($extra:tt)*)) => {
        $mac! {
            ($($extra)*)
            messages_generated,
            messages_delivered,
            payload_flits_delivered,
            pad_flits_injected,
            payload_flits_injected,
            kills_source_timeout,
            kills_fault,
            kills_path_wide,
            kills_committed,
            retransmissions,
            flits_flushed,
            flits_dropped_killed,
            flits_corrupted,
            detections_missed,
            corrupt_payload_delivered,
            out_of_order_arrivals,
            duplicates_dropped,
            partials_discarded,
            escape_allocations,
            unroutable_headers,
            orphan_flits_dropped,
        }
    };
}

impl NetCounters {
    /// Serializes every counter as a [`Json`] object keyed by field
    /// name.
    pub fn to_json(&self) -> Json {
        macro_rules! emit {
            (($slf:expr) $($f:ident,)*) => {
                Json::obj([$((stringify!($f), Json::from($slf.$f)),)*])
            };
        }
        with_counter_fields!(emit!(self))
    }

    /// Rebuilds counters from [`NetCounters::to_json`] output; `None`
    /// if any field is missing or not a non-negative integer.
    pub fn from_json(v: &Json) -> Option<NetCounters> {
        macro_rules! build {
            (($val:expr) $($f:ident,)*) => {
                Some(NetCounters {
                    $($f: $val.get(stringify!($f))?.as_u64()?,)*
                })
            };
        }
        with_counter_fields!(build!(v))
    }
}

/// Aggregated trace/observability block: sink statistics plus
/// network-wide roll-ups of the per-link stall-attribution counters
/// (see `cr_sim::trace` and [`cr_router::LinkStats`]).
///
/// The per-link counters are always maintained; only the event
/// buffering behind `enabled` is optional.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Whether the event-trace ring buffer was on for this run.
    pub enabled: bool,
    /// Events emitted into the sink (0 when disabled).
    pub events_emitted: u64,
    /// Events evicted from the ring buffer on overflow.
    pub events_dropped: u64,
    /// Network links the stall counters cover.
    pub links: u64,
    /// Link-cycles blocked on a busy channel (ready flit, output VC
    /// held by another worm or lost to input contention).
    pub stall_busy_cycles: u64,
    /// Link-cycles blocked on a dead output link.
    pub stall_dead_link_cycles: u64,
    /// Link-cycles blocked on exhausted downstream credits.
    pub stall_backpressure_cycles: u64,
    /// Largest total stall count on any single link.
    pub max_link_stall_cycles: u64,
    /// Flits forwarded across all links (a utilization cross-check).
    pub link_flits_forwarded: u64,
}

/// Expands a macro over every numeric `TraceSummary` field (all but
/// `enabled`), keeping serialization in lockstep with the struct.
macro_rules! with_trace_fields {
    ($mac:ident!($($extra:tt)*)) => {
        $mac! {
            ($($extra)*)
            events_emitted,
            events_dropped,
            links,
            stall_busy_cycles,
            stall_dead_link_cycles,
            stall_backpressure_cycles,
            max_link_stall_cycles,
            link_flits_forwarded,
        }
    };
}

impl TraceSummary {
    /// Link-cycles stalled for any cause.
    pub fn stall_total_cycles(&self) -> u64 {
        self.stall_busy_cycles + self.stall_dead_link_cycles + self.stall_backpressure_cycles
    }

    /// Serializes the block as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        macro_rules! emit {
            (($slf:expr) $($f:ident,)*) => {
                Json::obj([
                    ("enabled", Json::from($slf.enabled)),
                    $((stringify!($f), Json::from($slf.$f)),)*
                ])
            };
        }
        with_trace_fields!(emit!(self))
    }

    /// Rebuilds the block from [`TraceSummary::to_json`] output;
    /// `None` if any field is missing or mistyped.
    pub fn from_json(v: &Json) -> Option<TraceSummary> {
        macro_rules! build {
            (($val:expr) $($f:ident,)*) => {
                Some(TraceSummary {
                    enabled: $val.get("enabled")?.as_bool()?,
                    $($f: $val.get(stringify!($f))?.as_u64()?,)*
                })
            };
        }
        with_trace_fields!(build!(v))
    }
}

/// Per-event outcome of one fired churn entry (see DESIGN.md §13):
/// what changed, how many in-flight messages the change touched, and
/// how long the network took to drain them.
///
/// "Drain" is message-scoped: the affected set is every message with
/// flits on the killed channels (or mid-transmission onto them) at the
/// moment the event fired, and the event counts as drained at the
/// first cycle by which all of them were delivered — through
/// retransmission if the protocol provides it. An event whose affected
/// set is empty (revives, kills of idle links) drains at its own
/// cycle, i.e. `time_to_drain == 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEventReport {
    /// Cycle the entry fired.
    pub at: u64,
    /// Event kind tag (`kill_link`, `revive_node`, ...).
    pub kind: String,
    /// Raw id of the event subject (link or node).
    pub subject: u64,
    /// Channels this event transitioned alive → dead.
    pub links_killed: u64,
    /// Channels this event transitioned dead → alive.
    pub links_revived: u64,
    /// In-flight messages caught on the killed channels.
    pub affected_messages: u64,
    /// Whether every affected message was eventually delivered.
    pub drained: bool,
    /// Cycles from the event until the last affected message was
    /// delivered (0 when nothing was affected; meaningless unless
    /// `drained`).
    pub time_to_drain: u64,
}

impl ChurnEventReport {
    /// Serializes one event row as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("at", Json::from(self.at)),
            ("kind", Json::from(self.kind.as_str())),
            ("subject", Json::from(self.subject)),
            ("links_killed", Json::from(self.links_killed)),
            ("links_revived", Json::from(self.links_revived)),
            ("affected_messages", Json::from(self.affected_messages)),
            ("drained", Json::from(self.drained)),
            ("time_to_drain", Json::from(self.time_to_drain)),
        ])
    }

    /// Rebuilds a row from [`ChurnEventReport::to_json`] output.
    pub fn from_json(v: &Json) -> Option<ChurnEventReport> {
        Some(ChurnEventReport {
            at: v.get("at")?.as_u64()?,
            kind: v.get("kind")?.as_str()?.to_string(),
            subject: v.get("subject")?.as_u64()?,
            links_killed: v.get("links_killed")?.as_u64()?,
            links_revived: v.get("links_revived")?.as_u64()?,
            affected_messages: v.get("affected_messages")?.as_u64()?,
            drained: v.get("drained")?.as_bool()?,
            time_to_drain: v.get("time_to_drain")?.as_u64()?,
        })
    }
}

/// Roll-up of every churn entry that fired during the run, in firing
/// order. Empty for runs without a churn schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSummary {
    /// One row per fired entry, in firing order.
    pub events: Vec<ChurnEventReport>,
}

impl ChurnSummary {
    /// Whether any churn entry fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events that completed their drain.
    pub fn drained_events(&self) -> usize {
        self.events.iter().filter(|e| e.drained).count()
    }

    /// Largest time-to-drain over drained events (0 if none).
    pub fn max_time_to_drain(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.drained)
            .map(|e| e.time_to_drain)
            .max()
            .unwrap_or(0)
    }

    /// Serializes the block as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "events",
            Json::arr(self.events.iter().map(ChurnEventReport::to_json)),
        )])
    }

    /// Rebuilds the block from [`ChurnSummary::to_json`] output.
    pub fn from_json(v: &Json) -> Option<ChurnSummary> {
        let events = v
            .get("events")?
            .as_arr()?
            .iter()
            .map(ChurnEventReport::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(ChurnSummary { events })
    }
}

/// End-of-run report: everything the paper's figures plot.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Warmup cycles excluded from measurement.
    pub warmup: u64,
    /// Nodes in the network.
    pub num_nodes: usize,
    /// Offered load (flits/node/cycle) the sources were configured
    /// for.
    pub offered_load: f64,
    /// Measured accepted throughput in payload flits/node/cycle.
    pub accepted_flits_per_node_cycle: f64,
    /// Mean post-warmup channel utilization, flits/cycle/link.
    pub channel_utilization_mean: f64,
    /// Utilization of the busiest channel, flits/cycle.
    pub channel_utilization_max: f64,
    /// Message latency statistics (creation to in-order delivery), in
    /// cycles, post-warmup.
    pub latency: OnlineStats,
    /// Latency percentiles: (p50, p95, p99), in cycles.
    pub latency_percentiles: (u64, u64, u64),
    /// Latency histogram.
    pub latency_histogram: Histogram,
    /// Event counters.
    pub counters: NetCounters,
    /// Trace-sink statistics and link stall-attribution roll-ups.
    pub trace: TraceSummary,
    /// Per-event outcomes of the churn schedule (empty without one).
    pub churn: ChurnSummary,
    /// `true` if the simulation stopped making progress with traffic
    /// still in flight — a real deadlock (only possible without CR).
    pub deadlocked: bool,
    /// Flits still buffered in the network at the end of the run.
    pub flits_in_flight: usize,
}

impl SimReport {
    /// Mean message latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Kills of any kind.
    pub fn total_kills(&self) -> u64 {
        self.counters.kills_source_timeout
            + self.counters.kills_fault
            + self.counters.kills_path_wide
    }

    /// PAD flits as a fraction of all injected flits — the padding
    /// overhead the paper analyses for deep networks.
    pub fn pad_overhead(&self) -> f64 {
        let total = self.counters.pad_flits_injected + self.counters.payload_flits_injected;
        if total == 0 {
            0.0
        } else {
            self.counters.pad_flits_injected as f64 / total as f64
        }
    }

    /// Delivered fraction of generated messages.
    pub fn delivery_ratio(&self) -> f64 {
        if self.counters.messages_generated == 0 {
            return 1.0;
        }
        self.counters.messages_delivered as f64 / self.counters.messages_generated as f64
    }

    /// Ratio of busiest-channel to mean channel utilization — a
    /// load-balance figure of merit (1.0 = perfectly spread; large =
    /// hot channels). Adaptive routing's whole purpose is to keep this
    /// small on skewed traffic.
    pub fn channel_imbalance(&self) -> f64 {
        if self.channel_utilization_mean == 0.0 {
            return 1.0;
        }
        self.channel_utilization_max / self.channel_utilization_mean
    }

    /// Serializes the report as pretty JSON, for dumping experiment
    /// results to disk. Invert with [`SimReport::from_json`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// The report as a [`Json`] value tree, for embedding inside a
    /// larger document (e.g. a bench or experiment dump).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            ("warmup", Json::from(self.warmup)),
            ("num_nodes", Json::from(self.num_nodes)),
            ("offered_load", Json::from(self.offered_load)),
            (
                "accepted_flits_per_node_cycle",
                Json::from(self.accepted_flits_per_node_cycle),
            ),
            (
                "channel_utilization_mean",
                Json::from(self.channel_utilization_mean),
            ),
            (
                "channel_utilization_max",
                Json::from(self.channel_utilization_max),
            ),
            ("latency", self.latency.to_json()),
            (
                "latency_percentiles",
                Json::arr([
                    Json::from(self.latency_percentiles.0),
                    Json::from(self.latency_percentiles.1),
                    Json::from(self.latency_percentiles.2),
                ]),
            ),
            ("latency_histogram", self.latency_histogram.to_json()),
            ("counters", self.counters.to_json()),
            ("trace", self.trace.to_json()),
            ("churn", self.churn.to_json()),
            ("deadlocked", Json::from(self.deadlocked)),
            ("flits_in_flight", Json::from(self.flits_in_flight)),
        ])
    }

    /// Parses a report previously written by [`SimReport::to_json`].
    ///
    /// Returns `None` on malformed JSON or a missing/mistyped field.
    pub fn from_json(text: &str) -> Option<SimReport> {
        let v = Json::parse(text).ok()?;
        let percentiles = v.get("latency_percentiles")?.as_arr()?;
        let [p50, p95, p99] = percentiles else {
            return None;
        };
        Some(SimReport {
            cycles: v.get("cycles")?.as_u64()?,
            warmup: v.get("warmup")?.as_u64()?,
            num_nodes: v.get("num_nodes")?.as_usize()?,
            offered_load: v.get("offered_load")?.as_f64()?,
            accepted_flits_per_node_cycle: v.get("accepted_flits_per_node_cycle")?.as_f64()?,
            channel_utilization_mean: v.get("channel_utilization_mean")?.as_f64()?,
            channel_utilization_max: v.get("channel_utilization_max")?.as_f64()?,
            latency: OnlineStats::from_json(v.get("latency")?)?,
            latency_percentiles: (p50.as_u64()?, p95.as_u64()?, p99.as_u64()?),
            latency_histogram: Histogram::from_json(v.get("latency_histogram")?)?,
            counters: NetCounters::from_json(v.get("counters")?)?,
            // Reports predating the trace block parse to the default
            // (all-zero, disabled) summary.
            trace: v
                .get("trace")
                .and_then(TraceSummary::from_json)
                .unwrap_or_default(),
            // Likewise for reports predating the churn block.
            churn: v
                .get("churn")
                .and_then(ChurnSummary::from_json)
                .unwrap_or_default(),
            deadlocked: v.get("deadlocked")?.as_bool()?,
            flits_in_flight: v.get("flits_in_flight")?.as_usize()?,
        })
    }

    /// Potential deadlock situations per node per kilocycle (Duato
    /// methodology).
    pub fn pds_per_node_kilocycle(&self) -> f64 {
        let window = self.cycles.saturating_sub(self.warmup);
        if window == 0 {
            return 0.0;
        }
        self.counters.escape_allocations as f64 / self.num_nodes as f64 / window as f64 * 1000.0
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} nodes={} offered={:.3} accepted={:.3} flits/node/cycle",
            self.cycles, self.num_nodes, self.offered_load, self.accepted_flits_per_node_cycle
        )?;
        writeln!(
            f,
            "latency: mean={:.1} p50={} p95={} p99={} max={:.0} (n={})",
            self.latency.mean(),
            self.latency_percentiles.0,
            self.latency_percentiles.1,
            self.latency_percentiles.2,
            self.latency.max(),
            self.latency.count()
        )?;
        writeln!(
            f,
            "messages: generated={} delivered={} kills(timeout/fault/pathwide)={}/{}/{} retx={}",
            self.counters.messages_generated,
            self.counters.messages_delivered,
            self.counters.kills_source_timeout,
            self.counters.kills_fault,
            self.counters.kills_path_wide,
            self.counters.retransmissions
        )?;
        write!(
            f,
            "pad overhead={:.1}% corrupt deliveries={} deadlocked={}",
            self.pad_overhead() * 100.0,
            self.counters.corrupt_payload_delivered,
            self.deadlocked
        )?;
        if !self.churn.is_empty() {
            write!(
                f,
                "\nchurn: events={} drained={} max_time_to_drain={}",
                self.churn.events.len(),
                self.churn.drained_events(),
                self.churn.max_time_to_drain()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_metrics::Histogram;

    fn report() -> SimReport {
        let mut latency = OnlineStats::new();
        latency.push(10.0);
        latency.push(20.0);
        SimReport {
            channel_utilization_mean: 0.2,
            channel_utilization_max: 0.5,
            cycles: 1000,
            warmup: 100,
            num_nodes: 64,
            offered_load: 0.2,
            accepted_flits_per_node_cycle: 0.19,
            latency,
            latency_percentiles: (16, 24, 32),
            latency_histogram: Histogram::new(8, 8),
            counters: NetCounters {
                messages_generated: 100,
                messages_delivered: 95,
                pad_flits_injected: 50,
                payload_flits_injected: 950,
                kills_source_timeout: 3,
                kills_fault: 1,
                retransmissions: 4,
                escape_allocations: 288,
                ..NetCounters::default()
            },
            trace: TraceSummary {
                enabled: true,
                events_emitted: 7,
                links: 256,
                stall_busy_cycles: 40,
                stall_backpressure_cycles: 2,
                max_link_stall_cycles: 11,
                link_flits_forwarded: 1000,
                ..TraceSummary::default()
            },
            churn: ChurnSummary {
                events: vec![ChurnEventReport {
                    at: 500,
                    kind: "kill_link".to_string(),
                    subject: 9,
                    links_killed: 1,
                    links_revived: 0,
                    affected_messages: 2,
                    drained: true,
                    time_to_drain: 140,
                }],
            },
            deadlocked: false,
            flits_in_flight: 12,
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert_eq!(r.mean_latency(), 15.0);
        assert_eq!(r.total_kills(), 4);
        assert!((r.pad_overhead() - 0.05).abs() < 1e-12);
        assert!((r.delivery_ratio() - 0.95).abs() < 1e-12);
        // 288 escapes / 64 nodes / 900 cycles * 1000 = 5.0
        assert!((r.pds_per_node_kilocycle() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("generated=100"));
        assert!(s.contains("deadlocked=false"));
        assert!(s.contains("mean=15.0"));
    }

    #[test]
    fn json_roundtrip() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"messages_generated\": 100"));
        let back = SimReport::from_json(&json).unwrap();
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.trace, r.trace);
        assert_eq!(back.churn, r.churn);
        assert_eq!(back.churn.drained_events(), 1);
        assert_eq!(back.churn.max_time_to_drain(), 140);
        assert_eq!(back.trace.stall_total_cycles(), 42);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.latency.mean(), r.latency.mean());
        assert_eq!(back.latency_percentiles, r.latency_percentiles);
        assert_eq!(
            back.latency_histogram.bins(),
            r.latency_histogram.bins()
        );
        assert_eq!(back.offered_load, r.offered_load);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(SimReport::from_json("not json").is_none());
        assert!(SimReport::from_json("{}").is_none());
        // A field with the wrong type is rejected, not coerced.
        let mut json = report().to_json();
        json = json.replace("\"cycles\": 1000", "\"cycles\": \"many\"");
        assert!(SimReport::from_json(&json).is_none());
    }

    #[test]
    fn missing_churn_block_defaults() {
        // Reports written before the churn block existed still parse.
        let json = report().to_json();
        let start = json.find("  \"churn\"").unwrap();
        let end = json[start..].find("},\n").unwrap() + start + 3;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let back = SimReport::from_json(&stripped).unwrap();
        assert!(back.churn.is_empty());
        assert_eq!(back.churn, ChurnSummary::default());
    }

    #[test]
    fn churn_display_line_only_when_present() {
        let mut r = report();
        assert!(r.to_string().contains("churn: events=1 drained=1"));
        r.churn = ChurnSummary::default();
        assert!(!r.to_string().contains("churn:"));
    }

    #[test]
    fn missing_trace_block_defaults() {
        // Reports written before the trace block existed still parse.
        let json = report().to_json();
        let start = json.find("  \"trace\"").unwrap();
        let end = json[start..].find("},\n").unwrap() + start + 3;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let back = SimReport::from_json(&stripped).unwrap();
        assert_eq!(back.trace, TraceSummary::default());
        assert!(!back.trace.enabled);
    }

    #[test]
    fn empty_report_edge_cases() {
        let mut r = report();
        r.counters.messages_generated = 0;
        r.counters.pad_flits_injected = 0;
        r.counters.payload_flits_injected = 0;
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.pad_overhead(), 0.0);
    }
}
