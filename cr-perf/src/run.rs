//! Output of one measurement, and the `run` command that measures
//! every workload in a child process of its own and writes
//! `result.json`.

use crate::host;
use crate::inputs::{Parallelism, Workload};
use crate::measure::Measured;
use crate::probes::rng_costs;
use crate::span::to_jsonl;
use crate::spec;
use crate::stats::Summary;
use crate::verify;
use cr_sim::Json;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Prefix of the line carrying a measurement's full detail (quartiles,
/// sample counts, failures) for `run` to collect. The driver reads
/// only the last line.
const DETAIL: &str = "cr-perf-detail ";

fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("value", Json::from(s.value)),
        ("unit", Json::from(unit)),
        ("median", Json::from(s.median)),
        ("q1", Json::from(s.q1)),
        ("q3", Json::from(s.q3)),
        ("n", Json::from(s.n)),
    ])
}

/// Everything one measurement found, as `run` stores it.
fn detail_json(m: &Measured) -> Json {
    Json::obj([
        ("workload", Json::from(m.workload.name())),
        ("threads", Json::from(m.threads)),
        ("degraded", Json::from(m.degraded)),
        ("ops_attempted", Json::from(m.ops_attempted)),
        ("ops_failed", Json::from(m.ops_failed)),
        (
            "failures",
            Json::arr(m.failures.iter().map(|f| Json::from(f.as_str()))),
        ),
        (
            "verify_digest",
            Json::from(format!("{:016x}", m.verify_digest)),
        ),
        (
            "metrics",
            Json::obj(
                m.metrics
                    .iter()
                    .map(|(d, s)| (d.name, summary_json(d.unit, s))),
            ),
        ),
    ])
}

/// The text `measure` prints: one line per metric by name with its
/// unit, failures if any, the detail line, and last the one-line JSON
/// object the driver's contract asks for.
pub fn render_measured(m: &Measured) -> String {
    let mut out = format!(
        "workload {} threads {}{} ops {}/{} failed verify-digest {:016x}\n",
        m.workload.name(),
        m.threads,
        if m.degraded {
            " (degraded: fewer than 2 threads)"
        } else {
            ""
        },
        m.ops_failed,
        m.ops_attempted,
        m.verify_digest,
    );
    for (d, s) in &m.metrics {
        out.push_str(&format!(
            "  {:<36} {:>16.6} {:<16}",
            d.name, s.value, d.unit
        ));
        if s.n > 1 {
            out.push_str(&format!(
                " best of {}: median {:.6} q1 {:.6} q3 {:.6} spread {:.1}%",
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0
            ));
        }
        out.push('\n');
    }
    for f in &m.failures {
        out.push_str(&format!("  FAILED {f}\n"));
    }
    out.push_str(&format!("{DETAIL}{}\n", detail_json(m)));
    let metrics = m.metrics.iter().map(|(d, s)| {
        (
            d.name,
            Json::obj([("value", Json::from(s.value)), ("unit", Json::from(d.unit))]),
        )
    });
    let line = Json::obj([
        ("correct", Json::from(m.ops_failed == 0)),
        ("attempted", Json::from(m.ops_attempted)),
        ("failed", Json::from(m.ops_failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    out.push_str(&format!("{line}\n"));
    out
}

/// Writes the traced run's spans to `dir/trace_<workload>.jsonl`.
pub fn write_spans(dir: &Path, m: &Measured) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace_{}.jsonl", m.workload.name())),
        to_jsonl(&m.spans),
    )
}

/// The whole `BENCHMARK.json`, generated from the declared tables.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "cr-perf/Cargo.toml",
        "--",
        "measure",
    ];
    let mut members = vec![
        ("command", Json::arr(command.map(Json::from))),
        ("paths", Json::arr([Json::from("cr-perf")])),
        ("run_seconds", Json::from(spec::RUN_SECONDS)),
    ];
    members.extend(spec::benchmark_json_lists());
    Json::obj(members)
}

/// Runs the verify pass over `only` (or every workload). Returns
/// whether it passed, the text to print, and per-workload JSON.
pub fn verify_pass(only: Option<Workload>, seed: u64) -> (bool, String, Json) {
    let start = Instant::now();
    let mut text = String::new();
    let mut rows = Vec::new();
    let mut ok = true;
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let v = verify::verify(w, seed, host::threads(Parallelism::SweepJobs));
        ok &= v.ops_failed == 0;
        text.push_str(&format!(
            "verify {:<24} ops {}/{} failed digest {:016x}\n",
            w.name(),
            v.ops_failed,
            v.ops_attempted,
            v.digest
        ));
        for f in &v.failures {
            text.push_str(&format!("  FAILED {f}\n"));
        }
        rows.push(Json::obj([
            ("workload", Json::from(w.name())),
            ("ops_attempted", Json::from(v.ops_attempted)),
            ("ops_failed", Json::from(v.ops_failed)),
            ("digest", Json::from(format!("{:016x}", v.digest))),
        ]));
    }
    text.push_str(&format!(
        "verify pass {} in {:.1} s\n",
        if ok { "ok" } else { "FAILED" },
        start.elapsed().as_secs_f64()
    ));
    (ok, text, Json::arr(rows))
}

/// Runs `measure` for `workload` in a child process (so its peak
/// memory is its own), passes on what it printed for people — every
/// metric by name with its unit — and returns its detail.
fn child(
    workload: Workload,
    seed: u64,
    reps: usize,
    trace: bool,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .arg("measure")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--reps", &reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "measuring {} failed ({}):\n{stdout}{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let (text, rest) = stdout
        .split_once(DETAIL)
        .ok_or_else(|| format!("measuring {} printed no detail line", workload.name()))?;
    print!("{text}");
    Json::parse(rest.lines().next().unwrap_or(""))
        .map_err(|e| format!("unreadable detail line for {}: {e}", workload.name()))
}

/// `cr-perf run`: the verify pass, then each workload in its own child
/// process — first untraced for the end-to-end metrics, then traced
/// for the per-layer ones — printing every metric and writing
/// `out/result.json` and `out/trace_<workload>.jsonl`. Returns whether
/// everything verified and no op failed.
pub fn run(only: Option<Workload>, seed: u64, reps: usize, out: &Path) -> Result<bool, String> {
    let start = Instant::now();
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let (mut ok, text, verify_rows) = verify_pass(only, seed);
    print!("{text}");
    let calibration = rng_costs(Duration::from_millis(200)).1;

    let mut rows = Vec::new();
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let (plain, traced) = (
            child(w, seed, reps, false, out)?,
            child(w, seed, reps, true, out)?,
        );
        let field = |j: &Json, key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        let count = |key: &str| {
            [&plain, &traced]
                .iter()
                .filter_map(|j| j.get(key)?.as_u64())
                .sum::<u64>()
        };
        let failures: Vec<Json> = [&plain, &traced]
            .iter()
            .flat_map(|j| {
                j.get("failures")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec()
            })
            .collect();
        ok &= count("ops_failed") == 0;
        rows.push(Json::obj([
            ("name", Json::from(w.name())),
            ("threads", field(&plain, "threads")),
            ("degraded", field(&plain, "degraded")),
            ("ops_attempted", Json::from(count("ops_attempted"))),
            ("ops_failed", Json::from(count("ops_failed"))),
            ("failures", Json::arr(failures)),
            ("end_to_end", field(&plain, "metrics")),
            ("per_layer", field(&traced, "metrics")),
        ]));
    }

    let result = Json::obj([
        ("schema", Json::from("cr-perf/1")),
        ("seed", Json::from(seed)),
        ("reps", Json::from(reps)),
        ("host", host::block(calibration)),
        ("verify", verify_rows),
        ("workloads", Json::arr(rows)),
        ("elapsed_s", Json::from(start.elapsed().as_secs_f64())),
    ]);
    let path = out.join("result.json");
    std::fs::write(&path, result.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\n{} in {:.0} s; wrote {}",
        if ok {
            "all ops correct"
        } else {
            "FAILED: some op or the verify pass failed"
        },
        start.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(ok)
}
