//! Shared experiment plumbing: scales, measurement points, presets,
//! and the parallel sweep executor every figure/table module routes
//! its point-sweeps through.

use cr_core::{NetworkBuilder, SimReport};
use cr_topology::KAryNCube;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Session-wide job-count override set by `--jobs N` (0 = unset, fall
/// back to `CR_JOBS` / available parallelism at sweep time).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Session-wide reference-driver override set by `--dense`: every
/// network built through [`run_report`] / [`measure`] steps on the
/// reference driver (no active sets, no fast-forward, no worm trains)
/// instead of the default one. Results must be byte-identical either
/// way — the flag exists so `verify.sh` can twin-run and diff.
static DENSE: AtomicBool = AtomicBool::new(false);

/// Session-wide event-trace dump path set by `--trace <path>` (`None`
/// = tracing off, the default). Guarded by a mutex because sweeps run
/// [`measure`] points on worker threads.
static TRACE_PATH: Mutex<Option<std::path::PathBuf>> = Mutex::new(None);

/// Ring capacity [`measure`] uses per traced run: large enough to hold
/// a full tiny/quick run's events without drops.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// Session-wide churn plan set by `--churn <plan.json>` (`None` = no
/// live churn, the default). Every network built through
/// [`build_traced`] gets a clone of the schedule. Guarded by a mutex
/// because sweeps build networks on worker threads.
static CHURN_PLAN: Mutex<Option<cr_faults::ChurnSchedule>> = Mutex::new(None);

/// Installs a churn schedule on every network subsequently built
/// through [`run_report`] / [`measure`] (the `--churn <plan.json>`
/// flag). `None` turns live churn back off.
pub fn set_churn_plan(plan: Option<cr_faults::ChurnSchedule>) {
    *CHURN_PLAN.lock().unwrap_or_else(PoisonError::into_inner) = plan;
}

/// The active session-wide churn schedule, if any.
pub fn churn_plan() -> Option<cr_faults::ChurnSchedule> {
    CHURN_PLAN
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Applies a `--churn` argument: reads and parses the plan file,
/// exiting with a diagnostic on failure — flag parsing has no caller
/// to hand the error to.
fn apply_churn_arg(p: &str) {
    let text = match std::fs::read_to_string(p) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read --churn plan {p}: {e}");
            std::process::exit(2);
        }
    };
    match cr_faults::ChurnSchedule::from_json_str(&text) {
        Ok(plan) => set_churn_plan(Some(plan)),
        Err(e) => {
            eprintln!("error: invalid --churn plan {p}: {e}");
            std::process::exit(2);
        }
    }
}

/// Points every subsequent [`measure`] at a JSON-lines trace dump (the
/// `--trace <path>` flag). The file is created (truncated) here; each
/// traced run appends its events as one JSON object per line. `None`
/// turns tracing back off.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created; tracing stays
/// in its previous state.
pub fn set_trace_path(path: Option<std::path::PathBuf>) -> std::io::Result<()> {
    if let Some(p) = &path {
        std::fs::File::create(p)?;
    }
    *TRACE_PATH.lock().unwrap_or_else(PoisonError::into_inner) = path;
    Ok(())
}

/// Applies a `--trace` argument, exiting with a diagnostic if the dump
/// file cannot be created — flag parsing has no caller to hand the
/// error to.
fn apply_trace_arg(p: &str) {
    if let Err(e) = set_trace_path(Some(p.into())) {
        eprintln!("error: cannot create --trace file {p}: {e}");
        std::process::exit(2);
    }
}

/// Whether a `--trace` dump path is active.
pub fn trace_active() -> bool {
    TRACE_PATH
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_some()
}

/// Appends one run's drained events to the active trace file, one
/// JSON object per line (no-op when tracing is off). Runs append
/// atomically under the lock, so concurrent sweep points never
/// interleave mid-run.
fn dump_trace(net: &mut cr_core::Network) {
    let events = net.take_trace_events();
    let guard = TRACE_PATH.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(path) = guard.as_ref() else {
        return;
    };
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        // cr-lint: allow(panic-discipline, reason = "mid-sweep trace-file loss is unrecoverable: --trace was an explicit operator request and a silently truncated dump would be worse than aborting")
        .expect("trace file vanished mid-run");
    let mut buf = String::new();
    for ev in &events {
        buf.push_str(&ev.to_json().to_string());
        buf.push('\n');
    }
    f.write_all(buf.as_bytes())
        // cr-lint: allow(panic-discipline, reason = "mid-sweep trace-file loss is unrecoverable: --trace was an explicit operator request and a silently truncated dump would be worse than aborting")
        .expect("trace write failed");
}

/// Pins the job count for every subsequent [`sweep`] in this process
/// (the `--jobs N` flag). `set_jobs(1)` restores the serial path.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The job count sweeps currently run with: the [`set_jobs`] override
/// if present, else `CR_JOBS`, else the machine's available
/// parallelism.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => cr_sim::pool::effective_jobs(None),
        n => n,
    }
}

/// Forces (or releases) the reference driver for every network
/// subsequently built through [`run_report`] / [`measure`] (the
/// `--dense` flag).
pub fn set_dense(on: bool) {
    DENSE.store(on, Ordering::Relaxed);
}

/// Runs a batch of independent sweep points across worker threads.
///
/// Every experiment module builds its full parameter grid as a vector
/// of closures (each closure owns its point's seed and configuration)
/// and hands them here. Results come back in submission order, so a
/// sweep is **bit-identical under any job count** — parallelism is
/// pure wall-clock, never a result change. See `DESIGN.md`,
/// "Parallel sweeps & determinism".
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with an explicit job count (tests pin this; `1` is the
    /// exact serial path, a plain loop on the calling thread).
    pub fn new(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A runner honouring the session setting ([`set_jobs`] /
    /// `CR_JOBS` / available parallelism).
    pub fn current() -> Self {
        SweepRunner { jobs: jobs() }
    }

    /// The job count this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes the points, returning results in submission order.
    ///
    /// # Panics
    ///
    /// Re-panics (after all workers finish) if a point panicked, with
    /// its index and message — same observable outcome as the panic a
    /// serial loop would have raised.
    pub fn run<T, F>(&self, points: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        cr_sim::pool::run(self.jobs, points)
    }
}

/// Shorthand: [`SweepRunner::current`]`.run(points)`.
pub fn sweep<T, F>(points: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    SweepRunner::current().run(points)
}

/// How big an experiment run should be.
///
/// `Paper` matches the paper's 8×8 torus with long measurement
/// windows; `Quick` is for interactive runs and benches;
/// `Tiny` keeps unit tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 4×4 torus, very short windows (unit tests).
    Tiny,
    /// 8×8 torus, short windows (benches, smoke runs).
    Quick,
    /// 8×8 torus, paper-length windows.
    Paper,
}

impl Scale {
    /// Torus radix (networks are `radix x radix`).
    pub fn radix(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Quick | Scale::Paper => 8,
        }
    }

    /// Warmup cycles.
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Tiny => 300,
            Scale::Quick => 1_000,
            Scale::Paper => 3_000,
        }
    }

    /// Total cycles (warmup included).
    pub fn cycles(self) -> u64 {
        match self {
            Scale::Tiny => 2_000,
            Scale::Quick => 6_000,
            Scale::Paper => 23_000,
        }
    }

    /// The offered-load sweep (flits/node/cycle) for latency curves.
    pub fn loads(self) -> Vec<f64> {
        match self {
            Scale::Tiny => vec![0.1, 0.3],
            Scale::Quick => vec![0.1, 0.2, 0.3, 0.4],
            Scale::Paper => vec![0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45],
        }
    }

    /// A builder over this scale's torus with its warmup configured.
    pub fn builder(self) -> NetworkBuilder {
        let mut b = NetworkBuilder::new(KAryNCube::torus(self.radix(), 2));
        b.warmup(self.warmup());
        b
    }

    /// Parses `--quick` / `--tiny` command-line flags (default:
    /// `Paper`).
    ///
    /// Also applies a `--jobs N` / `--jobs=N` flag (via [`set_jobs`])
    /// so every experiment binary accepts the sweep-parallelism knob
    /// without its own flag plumbing; without the flag, sweeps use
    /// `CR_JOBS` or all available cores. Results are identical either
    /// way — only wall clock changes. A `--churn <plan.json>` flag
    /// (via [`set_churn_plan`]) installs a live kill/revive schedule on
    /// every network built; the plan's JSON schema is documented in
    /// `EXPERIMENTS.md`. And
    /// `--dense` (via [`set_dense`]) steps every network on the
    /// reference driver, for twin-run diffs.
    ///
    /// A missing or unparsable value for any of these flags, or the
    /// removed `--shards`, exits with status 2 and a diagnostic rather
    /// than running with defaults. Flags the harness does not know are
    /// left to the binary.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let parsed = match parse_common_args(&args) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        if let Some(n) = parsed.jobs {
            set_jobs(n);
        }
        if parsed.dense {
            set_dense(true);
        }
        if let Some(p) = &parsed.trace {
            apply_trace_arg(p);
        }
        if let Some(p) = &parsed.churn {
            apply_churn_arg(p);
        }
        parsed.scale
    }
}

/// The flags every experiment binary shares, parsed but not applied.
#[derive(Debug, PartialEq)]
struct CommonArgs {
    scale: Scale,
    jobs: Option<usize>,
    dense: bool,
    trace: Option<String>,
    churn: Option<String>,
}

/// Parses the shared harness flags out of `args` (the process
/// arguments without the program name). `--flag value` and
/// `--flag=value` are both accepted and the last occurrence wins;
/// arguments that are not harness flags are skipped, since binaries
/// add their own.
///
/// # Errors
///
/// A harness flag with no value, a `--jobs` value that is not a
/// non-negative integer, or `--shards` in either spelling: the sharded
/// stepper it selected was removed, and a run that silently ignored
/// it would not be the run that was asked for.
fn parse_common_args(args: &[String]) -> Result<CommonArgs, String> {
    let mut out = CommonArgs {
        scale: Scale::Paper,
        jobs: None,
        dense: false,
        trace: None,
        churn: None,
    };
    let count = |flag: &str, v: &str| {
        v.parse::<usize>()
            .map_err(|_| format!("invalid {flag} value '{v}': expected a non-negative integer"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, v)) => (flag, Some(v)),
            None => (arg.as_str(), None),
        };
        if flag == "--shards" {
            return Err(
                "--shards is no longer supported: the sharded stepper was removed and \
                 every network steps serially"
                    .to_string(),
            );
        }
        if !matches!(flag, "--jobs" | "--trace" | "--churn") {
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str(),
        };
        match flag {
            "--jobs" => out.jobs = Some(count(flag, value)?),
            "--trace" => out.trace = Some(value.to_string()),
            _ => out.churn = Some(value.to_string()),
        }
    }
    out.dense = args.iter().any(|a| a == "--dense");
    if args.iter().any(|a| a == "--tiny") {
        out.scale = Scale::Tiny;
    } else if args.iter().any(|a| a == "--quick") {
        out.scale = Scale::Quick;
    }
    Ok(out)
}

/// One measured point of a sweep, distilled from a [`SimReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Accepted throughput, payload flits/node/cycle.
    pub accepted: f64,
    /// Mean message latency in cycles.
    pub latency: f64,
    /// 99th-percentile latency in cycles.
    pub p99: u64,
    /// Kills of any kind during the window.
    pub kills: u64,
    /// Retransmissions.
    pub retransmissions: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Fraction of injected flits that were padding.
    pub pad_overhead: f64,
    /// `true` if the run deadlocked.
    pub deadlocked: bool,
}

impl MeasuredPoint {
    /// Distils a report into a point at the given offered load.
    pub fn from_report(report: &SimReport) -> Self {
        MeasuredPoint {
            offered: report.offered_load,
            accepted: report.accepted_flits_per_node_cycle,
            latency: report.mean_latency(),
            p99: report.latency_percentiles.2,
            kills: report.total_kills(),
            retransmissions: report.counters.retransmissions,
            delivered: report.counters.messages_delivered,
            pad_overhead: report.pad_overhead(),
            deadlocked: report.deadlocked,
        }
    }
}

/// Runs a configured builder at one offered load and distils the
/// result.
///
/// Under an active `--trace <path>` ([`set_trace_path`]) the run is
/// built with event tracing on and its events are appended to the
/// dump file. Tracing is record-only, so the measured point is
/// identical either way.
pub fn measure(builder: &mut NetworkBuilder, scale: Scale) -> MeasuredPoint {
    MeasuredPoint::from_report(&run_report(builder, scale))
}

/// Builds the network, honouring the process-wide `--trace` sink (when
/// tracing is active the network gets a bounded event ring sized
/// [`TRACE_RING_CAPACITY`]) and the process-wide `--dense` setting.
/// Pair with [`finish_run`].
pub(crate) fn build_traced(builder: &mut NetworkBuilder) -> cr_core::Network {
    if trace_active() {
        builder.trace(TRACE_RING_CAPACITY);
    }
    if let Some(plan) = churn_plan() {
        builder.churn(plan);
    }
    let mut net = builder.build();
    net.set_reference_stepper(DENSE.load(Ordering::Relaxed));
    net
}

/// Runs a [`build_traced`] network for `cycles` and, when tracing is
/// active, appends its event ring to the trace file.
pub(crate) fn finish_run(net: &mut cr_core::Network, cycles: u64) -> cr_core::SimReport {
    let report = net.run(cycles);
    if trace_active() {
        dump_trace(net);
    }
    report
}

/// Builds and runs a network at `scale`, returning the full report.
/// Every experiment module routes its simulations through here (or
/// through [`measure`], which wraps it) so that a runner's `--trace`
/// flag captures every sweep point it executes.
pub fn run_report(builder: &mut NetworkBuilder, scale: Scale) -> cr_core::SimReport {
    let mut net = build_traced(builder);
    finish_run(&mut net, scale.cycles())
}

/// Measures peak accepted throughput: offer a saturating load and
/// report the accepted flits/node/cycle.
pub fn saturation_throughput(
    configure: impl Fn(&mut NetworkBuilder),
    scale: Scale,
    pattern: cr_traffic::TrafficPattern,
    message_len: usize,
    seed: u64,
) -> f64 {
    let mut b = scale.builder();
    configure(&mut b);
    b.traffic(
        pattern,
        cr_traffic::LengthDistribution::Fixed(message_len),
        0.95,
    )
    .seed(seed);
    run_report(&mut b, scale).accepted_flits_per_node_cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ProtocolKind, RoutingKind};
    use cr_traffic::{LengthDistribution, TrafficPattern};

    #[test]
    fn sweep_preserves_submission_order() {
        let points: Vec<_> = (0..17u64).map(|i| move || i * 7).collect();
        let out = SweepRunner::new(4).run(points);
        assert_eq!(out, (0..17u64).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_runner_jobs_floor_is_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
        assert_eq!(SweepRunner::new(6).jobs(), 6);
        assert!(SweepRunner::current().jobs() >= 1);
    }

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_common_args(&args)
    }

    #[test]
    fn common_args_parse_both_spellings_and_skip_unknown_flags() {
        let got = parse(&[
            "--quick",
            "--jobs",
            "3",
            "--emit-plan",
            "plan.json",
            "--dense",
            "--trace=t.jsonl",
            "--churn",
            "c.json",
        ])
        .expect("well-formed flags");
        assert_eq!(
            got,
            CommonArgs {
                scale: Scale::Quick,
                jobs: Some(3),
                dense: true,
                trace: Some("t.jsonl".into()),
                churn: Some("c.json".into()),
            }
        );
        let bare = parse(&[]).expect("no flags");
        assert_eq!(
            (bare.scale, bare.jobs, bare.dense),
            (Scale::Paper, None, false)
        );
        assert_eq!(
            parse(&["--tiny", "--quick"]).map(|a| a.scale),
            Ok(Scale::Tiny)
        );
    }

    #[test]
    fn common_args_reject_bad_and_missing_values() {
        for (args, needle) in [
            (&["--jobs", "abc"][..], "invalid --jobs value 'abc'"),
            (&["--jobs=-1"][..], "invalid --jobs value '-1'"),
            (&["--shards", "4"][..], "--shards is no longer supported"),
            (&["--shards=2"][..], "--shards is no longer supported"),
            (&["--shards="][..], "--shards is no longer supported"),
            (&["--tiny", "--jobs"][..], "--jobs needs a value"),
            (&["--trace"][..], "--trace needs a value"),
            (&["--jobs", "2", "--churn"][..], "--churn needs a value"),
        ] {
            let err = parse(args).expect_err("malformed flags must not parse");
            assert!(err.contains(needle), "{args:?}: got '{err}'");
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.cycles() < Scale::Quick.cycles());
        assert!(Scale::Quick.cycles() < Scale::Paper.cycles());
        assert!(Scale::Tiny.loads().len() <= Scale::Paper.loads().len());
    }

    #[test]
    fn measure_produces_sane_point() {
        let scale = Scale::Tiny;
        let mut b = scale.builder();
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
            .seed(1);
        let p = measure(&mut b, scale);
        assert!(!p.deadlocked);
        assert!(p.delivered > 50);
        assert!(p.latency > 5.0);
        assert!(p.accepted > 0.05);
        assert_eq!(p.offered, 0.2);
    }

    #[test]
    fn saturation_is_below_offered() {
        let sat = saturation_throughput(
            |b| {
                b.routing(RoutingKind::Adaptive { vcs: 1 })
                    .protocol(ProtocolKind::Cr);
            },
            Scale::Tiny,
            TrafficPattern::Uniform,
            8,
            2,
        );
        assert!(sat > 0.05 && sat < 0.95, "sat = {sat}");
    }
}
