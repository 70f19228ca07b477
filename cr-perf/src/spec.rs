//! What the benchmark declares: every metric by name, with its unit,
//! direction, kind and (for end-to-end metrics) regression bound.
//!
//! This table is the single source of the metric lists: `list` prints
//! it, `measure` must emit exactly these names, `agree` reads the
//! bounds and kinds from it, and a test holds `BENCHMARK.json` to it.

use crate::inputs::{Workload, CLAIM_SEED, DEV_SEED};
use cr_sim::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is obtained, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory of the whole workload: compared against the
    /// metric's bound.
    Host,
    /// A simulated statistic: repeats exactly at a fixed seed.
    Sim,
    /// Read from `SimReport`: repeats exactly at a fixed seed.
    Count,
    /// Isolated timed drive of one layer's public API.
    Probe,
    /// Taken from the traced run's spans.
    Span,
    /// Ratio of two public-API runs on a slice of the workload.
    Diff,
}

impl Kind {
    /// Whether two runs at one seed must agree to the last digit.
    pub fn exact(self) -> bool {
        matches!(self, Kind::Sim | Kind::Count)
    }

    fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
            Kind::Probe => "probe",
            Kind::Span => "span",
            Kind::Diff => "diff",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names start with the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How it is obtained.
    pub kind: Kind,
    /// Relative worsening that counts as a regression (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Diff, Host, Probe, Sim, Span};

/// The end-to-end metrics: what a user of the simulator sees. Host
/// time unless prefixed `sim_`. Definitions are in the README.
///
/// The bounds are sized to the host. On the shared two-processor VM
/// this was built on, interference comes in phases that last minutes
/// and slow everything by 25-60 %: the best-of-run host times of ten
/// runs spread 3-5 % in a quiet hour and 9-17 % in a noisy one, so any
/// bound under 0.25 would reject innocent changes about as often as
/// guilty ones. The `sim_` metrics repeat exactly at one seed (that is
/// what `agree` demands of them); their bounds cover the spread over
/// *different* seeds, which is what the driver holds them against:
/// past saturation a finite-window mean latency is a queueing integral
/// over a few hundred messages that seeds move by 4-9 %.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("wall_s", "s", Lower, Host, 0.25),
    e2e("sim_cycles_per_s", "cycles/s", Higher, Host, 0.25),
    e2e("flit_hops_per_s", "flit-hops/s", Higher, Host, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, Host, 0.10),
    e2e("sim_latency_mean_cycles", "cycles", Lower, Sim, 0.25),
    e2e(
        "sim_accepted_flits_per_node_cycle",
        "flits/node/cycle",
        Higher,
        Sim,
        0.10,
    ),
];

/// The per-layer metrics, layer = module. Which end-to-end metric each
/// should move, and on which workload it should not, is the README's
/// layer table.
pub const PER_LAYER: &[Metric] = &[
    // cr_topology
    layer("topology.build_us", "us", Lower, Span),
    layer("topology.neighbor_ns", "ns", Lower, Probe),
    // cr_router::routing
    layer("routing.candidates_ns", "ns", Lower, Probe),
    layer("routing.candidates_per_call", "count", Higher, Probe),
    // cr_router::Router
    layer("router.accept_ns", "ns", Lower, Probe),
    layer("router.route_allocate_ns", "ns", Lower, Probe),
    layer("router.traverse_ns", "ns", Lower, Probe),
    layer("router.flush_worm_ns", "ns", Lower, Probe),
    layer("router.flit_hops", "count", Higher, Count),
    layer("router.stall_busy_cycles", "cycles", Lower, Count),
    layer("router.stall_backpressure_cycles", "cycles", Lower, Count),
    layer("router.stall_dead_link_cycles", "cycles", Lower, Count),
    layer("router.flits_flushed", "count", Lower, Count),
    layer("router.forward_ratio", "ratio", Higher, Count),
    // cr_core::Injector
    layer("injector.step_ns", "ns", Lower, Probe),
    layer("injector.kills", "count", Lower, Count),
    layer("injector.retransmissions", "count", Lower, Count),
    layer("injector.pad_flit_share", "share", Lower, Count),
    layer("injector.delivered_per_attempt", "ratio", Higher, Count),
    // cr_core::Receiver
    layer("receiver.on_flit_ns", "ns", Lower, Probe),
    layer("receiver.messages_delivered", "count", Higher, Count),
    layer("receiver.partials_discarded", "count", Lower, Count),
    layer("receiver.duplicates_dropped", "count", Lower, Count),
    // cr_core::Network
    layer("network.assemble_us", "us", Lower, Span),
    layer("network.schedule_trace_us", "us", Lower, Span),
    layer("network.report_us", "us", Lower, Span),
    layer("network.step_ns_per_cycle_p50", "ns", Lower, Span),
    layer("network.step_ns_per_cycle_p90", "ns", Lower, Span),
    layer("network.ns_per_flit_hop", "ns", Lower, Span),
    layer("network.fast_forward_speedup", "ratio", Higher, Diff),
    layer("network.vm_peak_mb", "MiB", Lower, Span),
    // cr_core::network_sharded
    layer("network_sharded.forced_sh1_ratio", "ratio", Lower, Diff),
    layer("network_sharded.sh2_speedup", "ratio", Higher, Diff),
    // cr_sim::sched
    layer("sched.insert_drain_ns", "ns", Lower, Probe),
    layer("sched.dense_over_active_ratio", "ratio", Higher, Diff),
    // cr_sim::pool
    layer("pool.run_task_overhead_ns", "ns", Lower, Probe),
    layer("pool.team_batch_ns", "ns", Lower, Probe),
    layer("pool.sweep_speedup_j2", "ratio", Higher, Diff),
    layer("pool.idle_share", "share", Lower, Span),
    // cr_experiments
    layer("experiments.point_s_p50", "s", Lower, Span),
    layer("experiments.point_s_max", "s", Lower, Span),
    // cr_sim::rng
    layer("rng.chacha8_blocks_per_s", "blocks/s", Higher, Probe),
    layer("rng.next_u64_ns", "ns", Lower, Probe),
    // cr_sim::trace
    layer("trace.on_over_off_ratio", "ratio", Lower, Diff),
    layer("trace.events_emitted", "count", Higher, Count),
    layer("trace.events_dropped", "count", Lower, Count),
    // cr_sim::json / SimReport
    layer("json.report_encode_us", "us", Lower, Span),
    layer("json.report_decode_us", "us", Lower, Span),
    layer("json.report_bytes", "bytes", Lower, Count),
    // cr_faults
    layer("faults.plan_build_us", "us", Lower, Span),
    layer("faults.is_dead_ns", "ns", Lower, Probe),
    layer("faults.corrupts_flit_ns", "ns", Lower, Probe),
    layer("faults.flits_corrupted", "count", Lower, Count),
    layer("faults.kills_fault", "count", Lower, Count),
    layer("faults.churn_events", "count", Higher, Count),
    layer("faults.max_time_to_drain_cycles", "cycles", Lower, Count),
    // cr_traffic
    layer("traffic.poll_ns", "ns", Lower, Probe),
    layer("traffic.messages_generated", "count", Higher, Count),
    // the benchmark itself
    layer("bench.trace_overhead_ratio", "ratio", Lower, Diff),
    layer("bench.span_coverage_share", "share", Higher, Span),
];

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Looks a declared metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The `--list` output: workloads with their rationale, then every
/// metric with unit, direction, kind and bound.
pub fn list() -> String {
    let mut out = format!(
        "seeds: {DEV_SEED} for development, {CLAIM_SEED} reserved for claim checks\nworkloads:\n"
    );
    for w in Workload::ALL {
        out.push_str(&format!("  {:<24} {}\n", w.name(), w.why()));
    }
    for (title, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        out.push_str(&format!("{title}:\n"));
        for m in metrics {
            out.push_str(&format!(
                "  {:<36} {:<16} {:<6} {:<5} {}\n",
                m.name,
                m.unit,
                m.better.as_str(),
                m.kind.as_str(),
                m.bound.map_or(String::new(), |b| format!("bound {b}")),
            ));
        }
    }
    out
}

/// The `workloads`, `end_to_end` and `per_layer` members of
/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json_lists() -> [(&'static str, Json); 3] {
    let workloads = Json::arr(
        Workload::ALL
            .map(|w| Json::obj([("name", Json::from(w.name())), ("why", Json::from(w.why()))])),
    );
    let row = |m: &Metric| {
        let mut members = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            members.push(("bound", Json::from(b)));
        }
        Json::obj(members)
    };
    [
        ("workloads", workloads),
        ("end_to_end", Json::arr(END_TO_END.iter().map(row))),
        ("per_layer", Json::arr(PER_LAYER.iter().map(row))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "bad name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                well_formed(m.unit, 16, "_/%.-"),
                "bad unit {} of {}",
                m.unit,
                m.name
            );
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in Workload::ALL {
            assert!(well_formed(w.name(), 64, "_.-"));
            assert!(seen.insert(w.name()), "{} used twice", w.name());
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }
}
