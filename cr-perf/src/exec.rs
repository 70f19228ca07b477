//! Builds and runs the generated inputs through the simulator's public
//! API, timing set-up and stepping from outside and recording spans
//! when asked to.
//!
//! One *op* is one simulated run: a point of a rep. A rep is the
//! workload's points dealt through `SweepRunner::new(jobs)` — for the
//! five single-network workloads that is one point run inline on the
//! calling thread, for the sweep it is the user-visible runner call.

use crate::inputs::{Inputs, Point, Stop, MESSAGE_LEN};
use crate::span::Recorder;
use cr_core::{DeliveredMessage, Network, NetworkBuilder, ProtocolKind, SimReport};
use cr_experiments::SweepRunner;
use cr_faults::{ChurnSchedule, FaultModel};
use cr_sim::{Cycle, NodeId, SimRng};
use cr_topology::Topology;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::time::Instant;

/// Cycle cap for drain workloads; never reached by a healthy run.
const DRAIN_CAP: u64 = 50_000_000;

/// Which stepper drives the run. All three must produce byte-identical
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepper {
    /// The builder's choice: active-set, sharded when `shards > 1`.
    Default,
    /// `set_reference_stepper(true)`: the dense sweep, no fast-forward.
    Dense,
    /// `set_force_sharded(true)`: the team machinery at any shard count.
    ForcedSharded,
    /// A bare `step()` loop to the same stop condition: the active-set
    /// stepper without `run`'s fast-forward.
    BareSteps,
}

/// How to execute a point, apart from its generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct ExecCfg {
    /// `NetworkBuilder::shards`.
    pub shards: usize,
    /// `Network::set_shard_threads`.
    pub shard_threads: usize,
    /// Stepper selection.
    pub stepper: Stepper,
    /// `NetworkBuilder::trace(1 << 16)`: the simulator's event ring.
    pub event_ring: bool,
    /// `set_record_deliveries(true)` and keep the log.
    pub record_deliveries: bool,
    /// Step in pieces of this many cycles, one `network.step[k]` span
    /// each (`None` = a single stepping call, as a user would make).
    pub chunk_cycles: Option<u64>,
}

impl ExecCfg {
    /// The configuration of the timed reps.
    pub fn timed(inputs: &Inputs, threads: usize) -> ExecCfg {
        ExecCfg {
            shards: inputs.shards,
            shard_threads: threads,
            stepper: Stepper::Default,
            event_ring: false,
            record_deliveries: false,
            chunk_cycles: None,
        }
    }
}

/// What one op produced.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Host time of set-up (topology, fault plan, assemble, schedule).
    pub setup_ns: u64,
    /// Host time of stepping + `report()` + `to_json()`.
    pub step_ns: u64,
    /// The end-of-run report.
    pub report: SimReport,
    /// `report.to_json()`.
    pub json: String,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
    /// Delivery log (empty unless `record_deliveries`).
    pub deliveries: Vec<DeliveredMessage>,
}

/// Builds the point's fault plan against `topo`.
pub fn fault_plan(point: &Point, topo: &dyn Topology) -> FaultModel {
    let mut faults = FaultModel::new();
    let Some(spec) = &point.faults else {
        return faults;
    };
    faults.set_transient_rate(spec.transient_rate);
    faults
        .kill_random_links_connected(
            topo,
            spec.dead_links,
            &mut SimRng::from_seed(spec.plan_seed),
        )
        .expect("generated fault plans leave the torus connected");
    let mut churn = ChurnSchedule::new();
    for o in &spec.outages {
        churn.regional_outage(
            Cycle::new(o.at),
            NodeId::new(o.center),
            o.radius,
            o.down_for,
        );
    }
    faults.set_churn(churn);
    faults
}

/// Set-up: topology build, fault/churn plan, `NetworkBuilder::build`,
/// `schedule_trace` — each under its own span below `root`.
pub fn setup(point: &Point, cfg: &ExecCfg, rec: &mut Recorder, root: u32, run: u32) -> Network {
    let s = rec.open("topology.build", Some(root), run);
    let topo = point.topo.build();
    rec.close(s);

    let s = rec.open("faults.plan", Some(root), run);
    let faults = fault_plan(point, topo.as_ref());
    rec.close(s);

    let s = rec.open("network.assemble", Some(root), run);
    let mut b = NetworkBuilder::new_boxed(topo);
    b.routing(point.routing)
        .protocol(point.protocol)
        .warmup(point.warmup)
        .seed(point.builder_seed)
        .faults(faults)
        .shards(cfg.shards);
    if let Some(load) = point.load {
        b.traffic(
            TrafficPattern::Uniform,
            LengthDistribution::Fixed(MESSAGE_LEN as usize),
            load,
        );
    }
    if cfg.event_ring {
        b.trace(1 << 16);
    }
    let mut net = b.build();
    net.set_shard_threads(Some(cfg.shard_threads));
    match cfg.stepper {
        Stepper::Default | Stepper::BareSteps => {}
        Stepper::Dense => net.set_reference_stepper(true),
        Stepper::ForcedSharded => net.set_force_sharded(true),
    }
    net.set_record_deliveries(cfg.record_deliveries);
    rec.close(s);

    let s = rec.open("network.schedule_trace", Some(root), run);
    net.schedule_trace(&point.trace);
    rec.close(s);
    net
}

/// Steps `net` to the point's stop condition, in one call or in
/// `cfg.chunk_cycles` pieces under one `network.step[k]` span each;
/// returns whether it stopped the way it should (drained, for drain
/// workloads).
fn step(
    net: &mut Network,
    point: &Point,
    cfg: &ExecCfg,
    rec: &mut Recorder,
    root: u32,
    run: u32,
) -> bool {
    if cfg.stepper == Stepper::BareSteps {
        match point.stop {
            Stop::Cycles(total) => (0..total).for_each(|_| net.step()),
            // Quiescence as the public API shows it: nothing left to
            // fire, nothing in flight, everything delivered.
            Stop::Drain => {
                while net.scheduled_len() > 0
                    || net.flits_in_flight() > 0
                    || net.counters().messages_delivered < point.trace.len() as u64
                {
                    if net.is_deadlocked() || net.now().as_u64() >= DRAIN_CAP {
                        return false;
                    }
                    net.step();
                }
            }
        }
        return true;
    }
    let end = match point.stop {
        Stop::Cycles(total) => total,
        Stop::Drain => DRAIN_CAP,
    };
    let chunk = cfg.chunk_cycles.unwrap_or(end).max(1);
    let mut k = 0;
    while net.now().as_u64() < end && !net.is_deadlocked() {
        let s = rec.open(&format!("network.step[{k}]"), Some(root), run);
        let from = net.now().as_u64();
        let len = chunk.min(end - from);
        let drained = match point.stop {
            // `run` also builds a report, which is dropped here so that
            // every workload pays the same explicit `report()` below.
            Stop::Cycles(_) => {
                net.run(len);
                false
            }
            Stop::Drain => net.run_until_quiescent(len),
        };
        rec.close_counting(s, net.now().as_u64() - from);
        if drained {
            return true;
        }
        k += 1;
    }
    matches!(point.stop, Stop::Cycles(_))
}

/// Why `report` is not a correct outcome for `point`, if it is not.
fn check(point: &Point, stopped_ok: bool, report: &SimReport) -> Option<String> {
    let c = &report.counters;
    if report.deadlocked {
        Some("deadlocked".into())
    } else if !stopped_ok {
        Some("did not drain".into())
    } else if point.protocol == ProtocolKind::Fcr && c.corrupt_payload_delivered != 0 {
        Some(format!(
            "{} corrupt payloads delivered under FCR",
            c.corrupt_payload_delivered
        ))
    } else if point.stop == Stop::Drain && c.messages_delivered != point.trace.len() as u64 {
        Some(format!(
            "delivered {} of {} messages",
            c.messages_delivered,
            point.trace.len()
        ))
    } else if c.messages_delivered == 0 {
        Some("delivered nothing".into())
    } else {
        None
    }
}

/// Runs one op under a `run` root span.
pub fn run_point(point: &Point, cfg: &ExecCfg, rec: &mut Recorder, run: u32) -> PointOutcome {
    let root = rec.open("run", None, run);
    let t0 = Instant::now();
    let mut net = setup(point, cfg, rec, root, run);
    let t1 = Instant::now();
    let stopped_ok = step(&mut net, point, cfg, rec, root, run);
    let s = rec.open("network.report", Some(root), run);
    let report = net.report();
    rec.close(s);
    let s = rec.open("json.encode", Some(root), run);
    let json = report.to_json();
    rec.close(s);
    let t2 = Instant::now();
    rec.close(root);
    PointOutcome {
        setup_ns: (t1 - t0).as_nanos() as u64,
        step_ns: (t2 - t1).as_nanos() as u64,
        failure: check(point, stopped_ok, &report).map(|why| format!("{}: {why}", point.label)),
        deliveries: net.take_delivery_log(),
        report,
        json,
    }
}

/// What one rep produced.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// One outcome per point, in input order.
    pub points: Vec<PointOutcome>,
    /// Host time of the `SweepRunner::run` call.
    pub runner_ns: u64,
}

impl RepOutcome {
    /// `setup_s`: set-up summed over the rep's networks.
    pub fn setup_ns(&self) -> u64 {
        self.points.iter().map(|p| p.setup_ns).sum()
    }

    /// `wall_s`: the stepping call + `report()` + `to_json()` of the
    /// one network, or the whole runner call for a sweep.
    pub fn wall_ns(&self) -> u64 {
        match self.points.as_slice() {
            [only] => only.step_ns,
            _ => self.runner_ns,
        }
    }

    /// Sum over points of `f(report)`.
    pub fn sum(&self, f: impl Fn(&SimReport) -> u64) -> u64 {
        self.points.iter().map(|p| f(&p.report)).sum()
    }

    /// Simulated cycles, summed over points.
    pub fn cycles(&self) -> u64 {
        self.sum(|r| r.cycles)
    }

    /// Link flit traversals, summed over points.
    pub fn flit_hops(&self) -> u64 {
        self.sum(|r| r.trace.link_flits_forwarded)
    }

    /// Mean over points of `f(report)`.
    pub fn mean(&self, f: impl Fn(&SimReport) -> f64) -> f64 {
        self.points.iter().map(|p| f(&p.report)).sum::<f64>() / self.points.len() as f64
    }
}

/// Runs one rep: every point of `inputs` through `SweepRunner::new(jobs)`.
/// Spans, when `rec` is on, hang under one `pool.run` span per rep.
pub fn run_rep(
    inputs: &Inputs,
    cfg: &ExecCfg,
    jobs: usize,
    rec: &mut Recorder,
    rep: u32,
) -> RepOutcome {
    let pool = rec.open("pool.run", None, rep);
    let base = rep * inputs.points.len() as u32;
    let tasks: Vec<_> = inputs
        .points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let mut local = rec.sibling();
            move || {
                let out = run_point(point, cfg, &mut local, base + i as u32);
                (out, local)
            }
        })
        .collect();
    let t0 = Instant::now();
    let results = SweepRunner::new(jobs).run(tasks);
    let runner_ns = t0.elapsed().as_nanos() as u64;
    rec.close(pool);
    let mut points = Vec::with_capacity(results.len());
    for (out, local) in results {
        rec.adopt(local, Some(pool));
        points.push(out);
    }
    RepOutcome { points, runner_ns }
}
