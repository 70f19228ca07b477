//! Measures one workload: the untraced reps that give the end-to-end
//! metrics, or the traced run that gives the per-layer ones.
//!
//! Load shape: closed batch work, not an arrival process. Every rep
//! simulates the same generated input from a fresh network, so the
//! throughput form is work completed per host second at a stated input
//! size, and every rep's report must equal the first's byte for byte.

use crate::exec::{run_rep, setup, ExecCfg, RepOutcome, Stepper};
use crate::host;
use crate::inputs::{generate, Inputs, Parallelism, Size, Workload};
use crate::probes;
use crate::span::{self_times, total_ns, Recorder, Span};
use crate::spec::{self, Metric};
use crate::stats::{median, percentile, Summary};
use crate::verify::{self, Verified};
use cr_core::SimReport;
use std::time::{Duration, Instant};

/// What to measure and for how long.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time budget of the whole run; reps fill what set-up leaves.
    pub seconds: f64,
    /// Fixed rep count, overriding the time budget.
    pub reps: Option<usize>,
    /// `false`: untraced reps, end-to-end metrics. `true`: the traced
    /// run, per-layer metrics.
    pub trace: bool,
    /// Size of the timed inputs (`Tiny` is the `--smoke` size).
    pub size: Size,
    /// Timed samples each layer probe collects.
    pub probe_budget: Duration,
}

/// What a measurement produced.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Worker threads it ran on.
    pub threads: usize,
    /// `true` when a `_sh2` / `_j2` workload got fewer than two threads
    /// and so measured no parallelism.
    pub degraded: bool,
    /// Simulated runs made, verify slice included.
    pub ops_attempted: u64,
    /// Runs that failed a check.
    pub ops_failed: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
    /// Digest of the verify slice's reports.
    pub verify_digest: u64,
    /// Every metric of the mode, in declared order.
    pub metrics: Vec<(&'static Metric, Summary)>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

/// Ops bookkeeping shared by both modes: the verify slice first, then
/// every rep checked against the first.
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    first: Option<RepOutcome>,
}

impl Ops {
    fn new(v: &Verified) -> Ops {
        Ops {
            attempted: v.ops_attempted,
            failed: v.ops_failed,
            failures: v.failures.clone(),
            first: None,
        }
    }

    /// Counts `rep`'s points as ops; a point fails if its own checks
    /// did or if its report differs from the first rep's.
    fn record(&mut self, rep: RepOutcome) -> &RepOutcome {
        for (i, p) in rep.points.iter().enumerate() {
            self.attempted += 1;
            let differs = self
                .first
                .as_ref()
                .is_some_and(|f| f.points[i].json != p.json);
            let why = p.failure.clone().or_else(|| {
                differs.then(|| format!("point {i}: report differs from the first rep's"))
            });
            if let Some(why) = why {
                self.failed += 1;
                self.failures.push(why);
            }
        }
        self.first.get_or_insert(rep)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The smallest of some times (the best-rep rule).
fn best(samples: &[f64]) -> f64 {
    Summary::best(samples, true).value
}

/// Measures `opts.workload`.
pub fn measure(opts: &Options) -> Measured {
    let start = Instant::now();
    let w = opts.workload;
    let threads = host::threads(w.parallelism());
    let inputs = generate(w, opts.seed, opts.size);
    let verified = verify::verify(w, opts.seed, threads);
    let mut ops = Ops::new(&verified);
    let (metrics, spans) = if opts.trace {
        traced(opts, &inputs, threads, &mut ops)
    } else {
        (
            untraced(opts, &inputs, threads, &mut ops, start),
            Vec::new(),
        )
    };
    Measured {
        workload: w,
        threads,
        degraded: w.parallelism() != Parallelism::Serial && threads < host::MAX_THREADS,
        ops_attempted: ops.attempted,
        ops_failed: ops.failed,
        failures: ops.failures,
        verify_digest: verified.digest,
        metrics,
        spans,
    }
}

/// Pairs the declared metrics of one mode with their values, in
/// declared order.
///
/// # Panics
///
/// Panics if a declared metric has no value or a value no declaration:
/// the output must carry exactly the declared names.
fn declared(
    table: &'static [Metric],
    mut values: Vec<(&'static str, Summary)>,
) -> Vec<(&'static Metric, Summary)> {
    let out = table
        .iter()
        .map(|m| {
            let at = values
                .iter()
                .position(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value measured for declared metric {}", m.name));
            (m, values.swap_remove(at).1)
        })
        .collect();
    assert!(
        values.is_empty(),
        "undeclared metrics measured: {:?}",
        values
    );
    out
}

/// The untraced reps: every end-to-end metric.
fn untraced(
    opts: &Options,
    inputs: &Inputs,
    threads: usize,
    ops: &mut Ops,
    start: Instant,
) -> Vec<(&'static Metric, Summary)> {
    let cfg = ExecCfg::timed(inputs, threads);
    let off = &mut Recorder::off();

    let (mut setup_s, mut wall_s, mut cycles_per_s, mut hops_per_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut peak_rss_mb = None;
    loop {
        let t = Instant::now();
        // Set-up is small next to a rep on most workloads, so besides
        // the one sample each rep gives, set up alone before every rep
        // until 5 ms of samples are in (1 to 20 of them) - before every
        // rep, not once, so that the samples span the whole run.
        let mut spent = Duration::ZERO;
        for _ in 0..20 {
            let t = Instant::now();
            for p in &inputs.points {
                drop(setup(p, &cfg, off, 0, 0));
            }
            spent += t.elapsed();
            setup_s.push(t.elapsed().as_secs_f64());
            if spent >= Duration::from_millis(5) {
                break;
            }
        }
        let rep = run_rep(inputs, &cfg, threads, off, wall_s.len() as u32);
        let rep_time = t.elapsed();
        let wall = secs(rep.wall_ns());

        setup_s.push(secs(rep.setup_ns()));
        wall_s.push(wall);
        cycles_per_s.push(rep.cycles() as f64 / wall);
        hops_per_s.push(rep.flit_hops() as f64 / wall);
        ops.record(rep);
        // High-water mark of one build + run. Read after the first rep
        // only: later reps add allocator hysteresis (73 -> 81 MiB on
        // `sparse_torus128` somewhere past the fifth rep), which would
        // make the number depend on how many reps the time budget held.
        peak_rss_mb.get_or_insert_with(|| host::proc_status_mb("VmHWM").unwrap_or(f64::NAN));
        let done = match opts.reps {
            Some(n) => wall_s.len() >= n,
            None => wall_s.len() >= 3 && start.elapsed() + rep_time > budget,
        };
        if done {
            break;
        }
    }
    let first = ops.first.as_ref().expect("at least one rep ran");
    declared(
        spec::END_TO_END,
        vec![
            ("setup_s", Summary::best(&setup_s, true)),
            ("wall_s", Summary::best(&wall_s, true)),
            ("sim_cycles_per_s", Summary::best(&cycles_per_s, false)),
            ("flit_hops_per_s", Summary::best(&hops_per_s, false)),
            (
                "peak_rss_mb",
                Summary::exact(peak_rss_mb.expect("at least one rep ran")),
            ),
            (
                "sim_latency_mean_cycles",
                Summary::exact(first.mean(SimReport::mean_latency)),
            ),
            (
                "sim_accepted_flits_per_node_cycle",
                Summary::exact(first.mean(|r| r.accepted_flits_per_node_cycle)),
            ),
        ],
    )
}

/// Best host time of `runs` runs of `inputs` under `cfg`: the
/// stepping + report + JSON time summed over points, or the whole
/// runner call when `jobs` says to time the pool.
fn time_runs(
    inputs: &Inputs,
    cfg: &ExecCfg,
    jobs: Option<usize>,
    runs: usize,
) -> (f64, RepOutcome) {
    let mut samples = Vec::new();
    let mut last = None;
    for r in 0..runs {
        let rep = run_rep(
            inputs,
            cfg,
            jobs.unwrap_or(1),
            &mut Recorder::off(),
            r as u32,
        );
        samples.push(match jobs {
            Some(_) => secs(rep.runner_ns),
            None => rep.points.iter().map(|p| secs(p.step_ns)).sum(),
        });
        last = Some(rep);
    }
    (best(&samples), last.expect("runs > 0"))
}

/// The traced run: every per-layer metric, and the spans.
fn traced(
    opts: &Options,
    inputs: &Inputs,
    threads: usize,
    ops: &mut Ops,
) -> (Vec<(&'static Metric, Summary)>, Vec<Span>) {
    // Two pairs of reps and two runs per diff keep the traced run about
    // as long as an untraced one; its metrics carry no bound.
    let pairs = opts.reps.unwrap_or(2).clamp(1, 3);
    let runs = pairs.min(2);
    let plain = ExecCfg::timed(inputs, threads);
    let mut values: Vec<(&'static str, Summary)> = Vec::new();
    let mut put = |name: &'static str, v: f64| values.push((name, Summary::exact(v)));

    // Untraced and traced reps, alternating; the traced ones step in
    // about 128 chunks, sized from the first rep's simulated length.
    let epoch = Instant::now();
    let mut rec = Recorder::on(epoch);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut traced_reps: Vec<(usize, usize)> = Vec::new(); // span index ranges
    for k in 0..pairs {
        let rep = run_rep(inputs, &plain, threads, &mut Recorder::off(), 2 * k as u32);
        plain_wall.push(secs(rep.wall_ns()));
        let longest = ops
            .record(rep)
            .points
            .iter()
            .map(|p| p.report.cycles)
            .max()
            .unwrap_or(1);
        let chunked = ExecCfg {
            chunk_cycles: Some((longest / 128).max(1)),
            ..plain
        };
        let from = rec.spans().len();
        let rep = run_rep(inputs, &chunked, threads, &mut rec, 2 * k as u32 + 1);
        traced_wall.push(secs(rep.wall_ns()));
        ops.record(rep);
        traced_reps.push((from, rec.spans().len()));
    }
    put(
        "bench.trace_overhead_ratio",
        best(&traced_wall) / best(&plain_wall),
    );
    put(
        "network.vm_peak_mb",
        host::proc_status_mb("VmPeak").unwrap_or(f64::NAN),
    );

    // Decode every report of the first rep, outside the timed roots.
    let first = ops.first.as_ref().expect("at least one rep ran");
    for (i, p) in first.points.iter().enumerate() {
        let s = rec.open("json.decode", None, i as u32);
        assert!(
            SimReport::from_json(&p.json).is_some(),
            "report JSON does not parse back"
        );
        rec.close(s);
    }
    put(
        "json.report_decode_us",
        total_ns(rec.spans(), "json.decode") as f64 / 1e3,
    );

    // Span metrics: per traced rep, then the median over those reps.
    let jobs = threads.min(inputs.points.len()) as f64;
    let selfs = self_times(rec.spans());
    let per_rep = |f: &dyn Fn(&[Span], &[u64]) -> f64| -> f64 {
        let v: Vec<f64> = traced_reps
            .iter()
            .map(|&(a, b)| f(&rec.spans()[a..b], &selfs[a..b]))
            .collect();
        median(&v)
    };
    let roots = |spans: &[Span]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == "run")
            .map(|s| secs(s.duration_ns()))
            .collect()
    };
    for (metric, span) in [
        ("topology.build_us", "topology.build"),
        ("faults.plan_build_us", "faults.plan"),
        ("network.assemble_us", "network.assemble"),
        ("network.schedule_trace_us", "network.schedule_trace"),
        ("network.report_us", "network.report"),
        ("json.report_encode_us", "json.encode"),
    ] {
        put(
            metric,
            per_rep(&|spans, _| total_ns(spans, span) as f64 / 1e3),
        );
    }
    put(
        "network.ns_per_flit_hop",
        per_rep(&|spans, _| total_ns(spans, "network.step") as f64)
            / first.flit_hops().max(1) as f64,
    );
    put(
        "experiments.point_s_p50",
        per_rep(&|spans, _| median(&roots(spans))),
    );
    put(
        "experiments.point_s_max",
        per_rep(&|spans, _| roots(spans).into_iter().fold(0.0, f64::max)),
    );
    put(
        "pool.idle_share",
        per_rep(&|spans, _| {
            let pool = secs(total_ns(spans, "pool.run")) * jobs;
            (pool - roots(spans).iter().sum::<f64>()) / pool
        }),
    );
    put(
        "bench.span_coverage_share",
        per_rep(&|spans, selfs| {
            let (mut own, mut all) = (0u64, 0u64);
            for (s, &self_ns) in spans.iter().zip(selfs).filter(|(s, _)| s.name == "run") {
                own += self_ns;
                all += s.duration_ns();
            }
            1.0 - own as f64 / all as f64
        }),
    );
    // Host nanoseconds per simulated cycle, one sample per chunk that
    // advanced the clock, pooled over the traced reps. The highest
    // percentile with ten samples beyond it is p90 at 128 chunks.
    let per_cycle: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.base_name() == "network.step" && s.count > 0)
        .map(|s| s.duration_ns() as f64 / s.count as f64)
        .collect();
    put("network.step_ns_per_cycle_p50", median(&per_cycle));
    put(
        "network.step_ns_per_cycle_p90",
        percentile(&per_cycle, 90.0)
            .unwrap_or_else(|| per_cycle.iter().copied().fold(0.0, f64::max)),
    );

    // Counts, read from the first rep's reports and summed over points.
    let sum = |f: &dyn Fn(&SimReport) -> u64| first.sum(f) as f64;
    let hops = first.flit_hops() as f64;
    let stalls = sum(&|r| r.trace.stall_total_cycles());
    let delivered = sum(&|r| r.counters.messages_delivered);
    let retx = sum(&|r| r.counters.retransmissions);
    let pad = sum(&|r| r.counters.pad_flits_injected);
    put("router.flit_hops", hops);
    put(
        "router.stall_busy_cycles",
        sum(&|r| r.trace.stall_busy_cycles),
    );
    put(
        "router.stall_backpressure_cycles",
        sum(&|r| r.trace.stall_backpressure_cycles),
    );
    put(
        "router.stall_dead_link_cycles",
        sum(&|r| r.trace.stall_dead_link_cycles),
    );
    put("router.flits_flushed", sum(&|r| r.counters.flits_flushed));
    put("router.forward_ratio", hops / (hops + stalls));
    put("injector.kills", sum(&|r| r.total_kills()));
    put("injector.retransmissions", retx);
    put(
        "injector.pad_flit_share",
        pad / (pad + sum(&|r| r.counters.payload_flits_injected)),
    );
    put(
        "injector.delivered_per_attempt",
        delivered / (delivered + retx),
    );
    put("receiver.messages_delivered", delivered);
    put(
        "receiver.partials_discarded",
        sum(&|r| r.counters.partials_discarded),
    );
    put(
        "receiver.duplicates_dropped",
        sum(&|r| r.counters.duplicates_dropped),
    );
    put(
        "json.report_bytes",
        first.points.iter().map(|p| p.json.len()).sum::<usize>() as f64,
    );
    put(
        "faults.flits_corrupted",
        sum(&|r| r.counters.flits_corrupted),
    );
    put("faults.kills_fault", sum(&|r| r.counters.kills_fault));
    put("faults.churn_events", sum(&|r| r.churn.events.len() as u64));
    put(
        "faults.max_time_to_drain_cycles",
        sum(&|r| r.churn.max_time_to_drain()),
    );
    put(
        "traffic.messages_generated",
        sum(&|r| r.counters.messages_generated),
    );

    // Diffs: ratios of two public-API runs on a slice of the workload,
    // always against the serial active-set stepper. The sharding and
    // pool diffs (and probes) get min(2, nproc) threads on every
    // workload: they price those layers, whether or not the timed reps
    // use them (or dare to: see `host::threads`).
    let par = host::threads(Parallelism::SweepJobs);
    let slice = generate(
        opts.workload,
        opts.seed,
        if opts.size == Size::Full {
            Size::Slice
        } else {
            Size::Tiny
        },
    );
    let tiny = generate(opts.workload, opts.seed, Size::Tiny);
    let serial = ExecCfg {
        shards: 1,
        shard_threads: 1,
        ..plain
    };
    let (base, _) = time_runs(&slice, &serial, None, runs);
    let ratio_to_base = |cfg: ExecCfg| time_runs(&slice, &cfg, None, runs).0 / base;
    put(
        "network.fast_forward_speedup",
        ratio_to_base(ExecCfg {
            stepper: Stepper::BareSteps,
            ..serial
        }),
    );
    put(
        "network_sharded.forced_sh1_ratio",
        ratio_to_base(ExecCfg {
            stepper: Stepper::ForcedSharded,
            shard_threads: par,
            ..serial
        }),
    );
    put(
        "network_sharded.sh2_speedup",
        1.0 / ratio_to_base(ExecCfg {
            shards: 2,
            shard_threads: par,
            ..serial
        }),
    );
    let (ring_time, ring_rep) = time_runs(
        &slice,
        &ExecCfg {
            event_ring: true,
            ..serial
        },
        None,
        runs,
    );
    put("trace.on_over_off_ratio", ring_time / base);
    put(
        "trace.events_emitted",
        ring_rep.sum(|r| r.trace.events_emitted) as f64,
    );
    put(
        "trace.events_dropped",
        ring_rep.sum(|r| r.trace.events_dropped) as f64,
    );
    // The dense stepper visits every router every cycle: affordable
    // only on the tiny slice (128x128 above all).
    put(
        "sched.dense_over_active_ratio",
        time_runs(
            &tiny,
            &ExecCfg {
                stepper: Stepper::Dense,
                ..serial
            },
            None,
            runs,
        )
        .0 / time_runs(&tiny, &serial, None, runs).0,
    );
    // A batch of at least two tasks, so one job and two differ.
    let mut batch = slice.clone();
    if batch.points.len() < 2 {
        batch.points.push(batch.points[0].clone());
    }
    put(
        "pool.sweep_speedup_j2",
        time_runs(&batch, &serial, Some(1), runs).0 / time_runs(&batch, &serial, Some(par), runs).0,
    );

    for (name, v) in probes::run_all(inputs, opts.seed, par, opts.probe_budget) {
        put(name, v);
    }

    (declared(spec::PER_LAYER, values), rec.spans().to_vec())
}
