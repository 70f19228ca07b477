//! Shared experiment plumbing: the run context, scales, measurement
//! points, and the parallel sweep executor every figure/table module
//! routes its point-sweeps through.

use cr_core::{Network, NetworkBuilder, SimReport};
use cr_faults::ChurnSchedule;
use cr_topology::KAryNCube;
use std::fs::File;
use std::io::Write;
use std::sync::{Mutex, PoisonError};

/// Ring capacity [`Run::build`] gives each traced network: large
/// enough to hold a full tiny/quick run's events without drops.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// The harness flags that take no value.
const SWITCHES: [&str; 3] = ["--tiny", "--quick", "--dense"];

/// The harness flags that take a value (`--flag value` or
/// `--flag=value`).
const VALUED: [&str; 3] = ["--jobs", "--trace", "--churn"];

/// One runner invocation's context: everything its flags decide, read
/// by every sweep point it executes. A runner builds one with
/// [`Run::from_args`] and passes it by reference to each experiment's
/// `run`; tests build one with [`Run::new`]. Nothing about a run is
/// process-wide, so two runs with different settings can execute side
/// by side in one process.
///
/// Only [`scale`](Run::scale) and [`churn`](Run::churn) change
/// results: they are byte-identical at any `jobs`, on either driver,
/// and with or without a trace.
#[derive(Debug)]
pub struct Run {
    /// Run size (`--tiny`, `--quick`; paper scale by default).
    pub scale: Scale,
    /// Sweep job count (`--jobs N`; all available cores by default).
    pub jobs: usize,
    /// Step every network on the reference driver (`--dense`): no
    /// active sets, no fast-forward, no worm trains. The flag exists so
    /// `verify.sh` can twin-run and diff.
    pub dense: bool,
    /// The `--trace <path>` dump, opened (truncated) once. Every run
    /// [`finish`](Run::finish)ed under it appends its events as JSON
    /// lines; the mutex keeps concurrent sweep points from
    /// interleaving mid-run.
    pub trace: Option<Mutex<File>>,
    /// The `--churn <plan.json>` schedule: every network
    /// [`build`](Run::build) makes gets a clone of it.
    pub churn: Option<ChurnSchedule>,
}

impl Run {
    /// A run at `scale` on every available core, on the default
    /// driver, untraced and churn-free.
    pub fn new(scale: Scale) -> Run {
        Run {
            scale,
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            dense: false,
            trace: None,
            churn: None,
        }
    }

    /// The run the process arguments ask for. See
    /// [`from_args_with`](Run::from_args_with).
    pub fn from_args() -> Run {
        Run::from_args_with([], &[]).0
    }

    /// The run the process arguments ask for, plus the values of the
    /// runner's own valued `flags`, in order (`None` when absent).
    ///
    /// The harness flags are `--tiny` / `--quick` (default: paper
    /// scale), `--jobs N`, `--dense`, `--trace <path>` and
    /// `--churn <plan.json>` (schema in `EXPERIMENTS.md`). A valued
    /// flag is spelled `--flag value` or `--flag=value`, and the last
    /// occurrence wins. An unknown argument, a flag without its value,
    /// `--jobs 0`, the removed `--shards`, an unreadable plan or an
    /// uncreatable trace file exits with status 2 and an `error:` line
    /// before anything is simulated. So does any harness flag in
    /// `refused`, each given with the reason the runner cannot honour
    /// it.
    pub fn from_args_with<const N: usize>(
        flags: [&str; N],
        refused: &[(&str, &str)],
    ) -> (Run, [Option<String>; N]) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let run = parse_args(&argv, &flags, refused).and_then(|mut args| {
            let own = std::array::from_fn(|i| args.own[i].take());
            Ok((args.open()?, own))
        });
        run.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Executes sweep points on [`jobs`](Run::jobs) workers, returning
    /// results in submission order (see [`SweepRunner::run`]).
    pub fn sweep<T, F>(&self, points: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        SweepRunner::new(self.jobs).run(points)
    }

    /// Builds the network under this run's settings: an event ring of
    /// `TRACE_RING_CAPACITY` when tracing, the churn plan, and the
    /// reference driver under `dense`. Pair with [`finish`](Run::finish).
    ///
    /// A churn plan naming a link, node or outage centre this fabric
    /// lacks exits the process with status 2 and an `error:` line, as
    /// [`from_args_with`](Run::from_args_with) does for a bad flag.
    pub fn build(&self, builder: &mut NetworkBuilder) -> Network {
        if self.trace.is_some() {
            builder.trace(TRACE_RING_CAPACITY);
        }
        if let Some(plan) = &self.churn {
            if let Err(e) = plan.check(builder.topology()) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            builder.churn(plan.clone());
        }
        let mut net = builder.build();
        net.set_reference_stepper(self.dense);
        net
    }

    /// Runs a [`build`](Run::build) network for `cycles` and, when
    /// tracing, appends its drained events to the dump, one JSON object
    /// per line.
    ///
    /// # Panics
    ///
    /// If the trace file cannot be written.
    pub fn finish(&self, net: &mut Network, cycles: u64) -> SimReport {
        let report = net.run(cycles);
        if let Some(trace) = &self.trace {
            let mut buf = String::new();
            for ev in net.take_trace_events() {
                buf.push_str(&ev.to_json().to_string());
                buf.push('\n');
            }
            trace
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .write_all(buf.as_bytes())
                // cr-lint: allow(panic-discipline, reason = "a failed trace write is unrecoverable: --trace was an explicit operator request and a silently truncated dump would be worse than aborting")
                .expect("trace write failed");
        }
        report
    }

    /// Builds and runs a network for the run's scale, returning the
    /// full report. Every experiment routes its simulations through
    /// here, [`measure`](Run::measure) or `build` / `finish`, so the
    /// run's flags reach every sweep point.
    pub fn report(&self, builder: &mut NetworkBuilder) -> SimReport {
        let mut net = self.build(builder);
        self.finish(&mut net, self.scale.cycles())
    }

    /// Runs a configured builder at one offered load and distils the
    /// result.
    pub fn measure(&self, builder: &mut NetworkBuilder) -> MeasuredPoint {
        MeasuredPoint::from_report(&self.report(builder))
    }

    /// Measures peak accepted throughput: offer a saturating load and
    /// report the accepted flits/node/cycle.
    pub fn saturation_throughput(
        &self,
        configure: impl Fn(&mut NetworkBuilder),
        pattern: cr_traffic::TrafficPattern,
        message_len: usize,
        seed: u64,
    ) -> f64 {
        let mut b = self.scale.builder();
        configure(&mut b);
        b.traffic(
            pattern,
            cr_traffic::LengthDistribution::Fixed(message_len),
            0.95,
        )
        .seed(seed);
        self.report(&mut b).accepted_flits_per_node_cycle
    }
}

/// The process arguments, parsed but not yet opened: file paths are
/// still paths.
#[derive(Debug, PartialEq)]
struct Args {
    scale: Scale,
    jobs: Option<usize>,
    dense: bool,
    trace: Option<String>,
    churn: Option<String>,
    /// The runner's own flags' values, in registration order.
    own: Vec<Option<String>>,
}

impl Args {
    /// Reads the churn plan and creates the trace file.
    fn open(self) -> Result<Run, String> {
        let churn = self
            .churn
            .map(|p| {
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("cannot read --churn plan {p}: {e}"))?;
                ChurnSchedule::from_json_str(&text)
                    .map_err(|e| format!("invalid --churn plan {p}: {e}"))
            })
            .transpose()?;
        let trace = self
            .trace
            .map(|p| {
                File::create(&p)
                    .map(Mutex::new)
                    .map_err(|e| format!("cannot create --trace file {p}: {e}"))
            })
            .transpose()?;
        let mut run = Run::new(self.scale);
        run.jobs = self.jobs.unwrap_or(run.jobs);
        run.dense = self.dense;
        run.trace = trace;
        run.churn = churn;
        Ok(run)
    }
}

/// Parses `args` (the process arguments without the program name) in
/// one pass. `own` lists the runner's valued flags, `refused` the
/// harness flags it rejects, each with its reason; an argument read as
/// a flag's value is never also read as a flag. `--tiny` beats
/// `--quick` wherever each appears.
///
/// # Errors
///
/// An argument that is neither a harness flag nor one of `own`; a
/// flag in `refused`; a switch given a value; a valued flag without
/// one; a `--jobs` value that is not a positive integer; or `--shards`
/// in either spelling: the sharded stepper it selected was removed, and
/// a run that silently ignored it would not be the run that was asked
/// for.
fn parse_args(args: &[String], own: &[&str], refused: &[(&str, &str)]) -> Result<Args, String> {
    let mut out = Args {
        scale: Scale::Paper,
        jobs: None,
        dense: false,
        trace: None,
        churn: None,
        own: vec![None; own.len()],
    };
    let (mut tiny, mut quick) = (false, false);
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
        if let Some((_, why)) = refused.iter().find(|(f, _)| *f == flag) {
            return Err(format!("{flag} is not accepted by this runner: {why}"));
        }
        if SWITCHES.contains(&flag) {
            if inline.is_some() {
                return Err(format!("{flag} takes no value, got '{arg}'"));
            }
            match flag {
                "--tiny" => tiny = true,
                "--quick" => quick = true,
                _ => out.dense = true,
            }
            continue;
        }
        let slot = own.iter().position(|f| *f == flag);
        if slot.is_none() && !VALUED.contains(&flag) {
            let accepted: Vec<&str> = SWITCHES.iter().chain(&VALUED).chain(own).copied().collect();
            return Err(format!(
                "unknown argument '{arg}' (accepted: {})",
                accepted.join(" ")
            ));
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str(),
        };
        match (slot, flag) {
            (Some(i), _) => out.own[i] = Some(value.to_string()),
            (None, "--jobs") => {
                out.jobs = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("invalid --jobs value '{value}': expected a positive integer")
                })?)
            }
            (None, "--trace") => out.trace = Some(value.to_string()),
            (None, _) => out.churn = Some(value.to_string()),
        }
    }
    out.scale = if tiny {
        Scale::Tiny
    } else if quick {
        Scale::Quick
    } else {
        Scale::Paper
    };
    Ok(out)
}

/// Runs a batch of independent sweep points across worker threads.
///
/// Every experiment module builds its full parameter grid as a vector
/// of closures (each closure owns its point's seed and configuration)
/// and hands them here, through [`Run::sweep`]. Results come back in
/// submission order, so a sweep is **bit-identical under any job
/// count** — parallelism is pure wall-clock, never a result change.
/// See `DESIGN.md`, "Parallel sweeps & determinism".
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
        assert!(Run::new(Scale::Tiny).jobs >= 1);
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args, &["--emit-plan"], &[])
    }

    #[test]
    fn common_args_parse_both_spellings_and_reject_unknown_flags() {
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
            Args {
                scale: Scale::Quick,
                jobs: Some(3),
                dense: true,
                trace: Some("t.jsonl".into()),
                churn: Some("c.json".into()),
                own: vec![Some("plan.json".into())],
            }
        );
        let bare = parse(&[]).expect("no flags");
        assert_eq!(
            (bare.scale, bare.jobs, bare.dense, bare.own),
            (Scale::Paper, None, false, vec![None])
        );
        assert_eq!(
            parse(&["--tiny", "--quick"]).map(|a| a.scale),
            Ok(Scale::Tiny)
        );
        // A runner's own flag is unknown to a runner that did not
        // register it.
        let err = parse_args(&["--emit-plan".into(), "p.json".into()], &[], &[])
            .expect_err("unregistered flag");
        assert!(
            err.contains("unknown argument '--emit-plan'"),
            "got '{err}'"
        );
        // A refused harness flag is an error in either spelling, with
        // its reason.
        for args in [
            &["--churn", "c.json"][..],
            &["--tiny", "--churn=c.json"][..],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err =
                parse_args(&args, &[], &[("--churn", "it has its own")]).expect_err("refused flag");
            assert_eq!(
                err,
                "--churn is not accepted by this runner: it has its own"
            );
        }
    }

    #[test]
    fn common_args_reject_bad_and_missing_values() {
        for (args, needle) in [
            (&["--jobs", "abc"][..], "invalid --jobs value 'abc'"),
            (&["--jobs=-1"][..], "invalid --jobs value '-1'"),
            (&["--jobs", "0"][..], "invalid --jobs value '0'"),
            (&["--jobs="][..], "invalid --jobs value ''"),
            (&["--shards", "4"][..], "--shards is no longer supported"),
            (&["--shards=2"][..], "--shards is no longer supported"),
            (&["--shards="][..], "--shards is no longer supported"),
            (&["--tiny", "--jobs"][..], "--jobs needs a value"),
            (&["--trace"][..], "--trace needs a value"),
            (&["--jobs", "2", "--churn"][..], "--churn needs a value"),
            (&["--tiny", "--emit-plan"][..], "--emit-plan needs a value"),
            (&["--quik"][..], "unknown argument '--quik'"),
            (&["--tiny", "--bogus=3"][..], "unknown argument '--bogus=3'"),
            (&["fig09"][..], "unknown argument 'fig09'"),
            (&["--dense=1"][..], "--dense takes no value"),
        ] {
            let err = parse(args).expect_err("malformed flags must not parse");
            assert!(err.contains(needle), "{args:?}: got '{err}'");
        }
        // A value that looks like a flag is still only a value.
        let got = parse(&["--churn", "--tiny"]).expect("--tiny is the plan path");
        assert_eq!(
            (got.scale, got.churn.as_deref()),
            (Scale::Paper, Some("--tiny"))
        );
        let got = parse(&["--trace", "--dense", "--emit-plan", "--quick"]).expect("values");
        assert_eq!(
            (got.scale, got.dense, got.own),
            (Scale::Paper, false, vec![Some("--quick".into())])
        );
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.cycles() < Scale::Quick.cycles());
        assert!(Scale::Quick.cycles() < Scale::Paper.cycles());
        assert!(Scale::Tiny.loads().len() <= Scale::Paper.loads().len());
    }

    #[test]
    fn measure_produces_sane_point() {
        let run = Run::new(Scale::Tiny);
        let mut b = run.scale.builder();
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
            .seed(1);
        let p = run.measure(&mut b);
        assert!(!p.deadlocked);
        assert!(p.delivered > 50);
        assert!(p.latency > 5.0);
        assert!(p.accepted > 0.05);
        assert_eq!(p.offered, 0.2);
    }

    #[test]
    fn saturation_is_below_offered() {
        let sat = Run::new(Scale::Tiny).saturation_throughput(
            |b| {
                b.routing(RoutingKind::Adaptive { vcs: 1 })
                    .protocol(ProtocolKind::Cr);
            },
            TrafficPattern::Uniform,
            8,
            2,
        );
        assert!(sat > 0.05 && sat < 0.95, "sat = {sat}");
    }
}
