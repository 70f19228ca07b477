//! `cr-perf`: the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! cr-perf measure --workload W --seed S --seconds T --trace 0|1   one workload, one process (what BENCHMARK.json runs)
//! cr-perf run [--workload W] [--seed S] [--reps N] [--out DIR]     verify, then every workload in its own child process
//! cr-perf verify [--seed S]                                        the three steppers agree on a slice of every workload
//! cr-perf agree A.json B.json                                      do two result files agree within the bounds
//! cr-perf list [--benchmark-json]                                  workloads, metrics, units, bounds
//! ```
//!
//! See `README.md` beside this package for the metric definitions and
//! how to read the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agree;
mod exec;
mod host;
mod inputs;
mod measure;
mod probes;
mod run;
mod span;
mod spec;
mod stats;
mod verify;

use inputs::{Size, Workload, DEV_SEED};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// `--key value` flags after the subcommand, plus bare arguments.
struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 2] = ["--smoke", "--benchmark-json"];

    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut flags, mut bare) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if Args::SWITCHES.contains(&a.as_str()) {
                flags.push((a.clone(), String::new()));
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.push((a.clone(), v.clone()));
            } else {
                bare.push(a.clone());
            }
        }
        Ok(Args { flags, bare })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key` parsed as `T`, if the flag was given.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot read `{v}`")))
            .transpose()
    }

    /// [`Args::opt`] with a default.
    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("--workload")
            .map(|name| {
                Workload::parse(name)
                    .ok_or_else(|| format!("unknown workload `{name}` (see `cr-perf list`)"))
            })
            .transpose()
    }

    /// Rejects flags the subcommand does not know.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }
}

fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.get("--out").unwrap_or("target/cr-perf"))
}

fn measure_options(args: &Args) -> Result<measure::Options, String> {
    args.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--reps",
        "--trace",
        "--smoke",
        "--out",
    ])?;
    let smoke = args.has("--smoke");
    Ok(measure::Options {
        workload: args.workload()?.ok_or("measure needs --workload")?,
        seed: args.value("--seed", DEV_SEED)?,
        seconds: args.value("--seconds", spec::RUN_SECONDS as f64)?,
        reps: args.opt("--reps")?,
        trace: match args.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        size: if smoke { Size::Tiny } else { Size::Full },
        probe_budget: Duration::from_millis(if smoke { 2 } else { 50 }),
    })
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("no subcommand: measure | run | verify | agree | list")?;
    let args = Args::parse(rest)?;
    match command.as_str() {
        "measure" => {
            let opts = measure_options(&args)?;
            let m = measure::measure(&opts);
            if opts.trace {
                let dir = out_dir(&args);
                run::write_spans(&dir, &m)
                    .map_err(|e| format!("writing spans under {}: {e}", dir.display()))?;
            }
            print!("{}", run::render_measured(&m));
            // Correctness is in the result line; the process succeeded
            // at measuring either way.
            Ok(true)
        }
        "run" => {
            args.only(&["--workload", "--seed", "--reps", "--out"])?;
            run::run(
                args.workload()?,
                args.value("--seed", DEV_SEED)?,
                args.value("--reps", 10)?,
                &out_dir(&args),
            )
        }
        "verify" => {
            args.only(&["--workload", "--seed"])?;
            let (ok, text, _) = run::verify_pass(args.workload()?, args.value("--seed", DEV_SEED)?);
            print!("{text}");
            Ok(ok)
        }
        "agree" => match args.bare.as_slice() {
            [a, b] => agree::agree(a.as_ref(), b.as_ref()),
            _ => Err("agree takes two result files".into()),
        },
        "list" | "--list" => {
            args.only(&["--benchmark-json"])?;
            if args.has("--benchmark-json") {
                println!("{}", run::benchmark_json().to_pretty());
            } else {
                print!("{}", spec::list());
            }
            Ok(true)
        }
        other => Err(format!(
            "unknown subcommand `{other}`: measure | run | verify | agree | list"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("cr-perf: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sim::Json;

    fn smoke(workload: Workload, trace: bool) -> measure::Measured {
        measure::measure(&measure::Options {
            workload,
            seed: DEV_SEED,
            seconds: 0.0,
            reps: Some(1),
            trace,
            size: Size::Tiny,
            probe_budget: Duration::ZERO,
        })
    }

    /// The contract's result line: parses with `cr_sim::Json`, has
    /// exactly the four keys, and carries exactly the declared metrics
    /// of its mode, each a finite number with its declared unit.
    fn check_result_line(m: &measure::Measured, declared: &[spec::Metric]) {
        let text = run::render_measured(m);
        let line = Json::parse(text.lines().last().unwrap()).expect("the last line is JSON");
        let Json::Obj(members) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("correct"),
            Some(&Json::Bool(true)),
            "{:?}",
            m.failures
        );
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, declared.iter().map(|d| d.name).collect::<Vec<_>>());
        for (d, (name, v)) in declared.iter().zip(metrics) {
            let value = v.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{} {name} = {value:?}",
                m.workload.name()
            );
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(d.unit));
        }
    }

    /// Both modes of one workload at `--smoke` size: every declared
    /// metric comes out, end-to-end ones never 0, and the traced rep's
    /// spans cover their roots.
    fn emits_every_declared_metric(w: Workload) {
        let plain = smoke(w, false);
        check_result_line(&plain, spec::END_TO_END);
        let value = |m: &measure::Measured, name: &str| {
            m.metrics
                .iter()
                .find(|(d, _)| d.name == name)
                .unwrap()
                .1
                .value
        };
        for m in spec::END_TO_END {
            assert!(
                value(&plain, m.name) > 0.0,
                "{} {} must never be 0",
                w.name(),
                m.name
            );
        }

        let traced = smoke(w, true);
        check_result_line(&traced, spec::PER_LAYER);
        assert_eq!(
            plain.verify_digest, traced.verify_digest,
            "verify digests repeat at one seed"
        );
        // One root span per simulated run, its children covering it.
        let roots = traced.spans.iter().filter(|s| s.name == "run").count();
        assert_eq!(
            roots,
            inputs::generate(w, DEV_SEED, Size::Tiny).points.len(),
            "one traced rep"
        );
        let coverage = value(&traced, "bench.span_coverage_share");
        assert!(
            coverage >= 0.95,
            "{} spans cover only {coverage} of their roots",
            w.name()
        );
    }

    // One test per workload, so that they run side by side.
    macro_rules! smoke_tests {
        ($($name:ident: $workload:ident,)*) => {$(
            #[test]
            fn $name() {
                emits_every_declared_metric(Workload::$workload);
            }
        )*};
    }
    smoke_tests! {
        smoke_sat_torus8: SatTorus8,
        smoke_sparse_torus128: SparseTorus128,
        smoke_fcr_storm_torus32: FcrStormTorus32,
        smoke_fcr_storm_torus32_sh2: FcrStormTorus32Sh2,
        smoke_dense_torus64_sh2: DenseTorus64Sh2,
        smoke_showdown_sweep_j2: ShowdownSweepJ2,
    }

    #[test]
    fn simulated_statistics_repeat_exactly_and_follow_the_seed() {
        let sim = |seed| {
            let m = measure::measure(&measure::Options {
                workload: Workload::SatTorus8,
                seed,
                seconds: 0.0,
                reps: Some(1),
                trace: false,
                size: Size::Tiny,
                probe_budget: Duration::ZERO,
            });
            let exact: Vec<u64> = m
                .metrics
                .iter()
                .filter(|(d, _)| d.kind.exact())
                .map(|(_, s)| s.value.to_bits())
                .collect();
            (exact, m.verify_digest)
        };
        assert_eq!(sim(DEV_SEED), sim(DEV_SEED));
        assert_ne!(sim(DEV_SEED), sim(inputs::CLAIM_SEED));
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        for bad in [
            "",
            "frobnicate",
            "measure",
            "measure --workload nope",
            "measure --workload sat_torus8 --trace 2",
            "measure --workload sat_torus8 --seed x",
            "measure --workload sat_torus8 --seconds",
            "run --jobs 3",
            "agree only-one.json",
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "`{bad}` should be refused");
        }
    }

    #[test]
    fn benchmark_json_is_what_list_generates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            file,
            run::benchmark_json(),
            "regenerate with `cr-perf list --benchmark-json > BENCHMARK.json`"
        );
    }
}
