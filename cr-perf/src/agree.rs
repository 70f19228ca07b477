//! `cr-perf agree A.json B.json`: do two result files agree?
//!
//! Host-time end-to-end metrics must lie within their declared bound
//! of each other; simulated statistics, counts, ops and verify digests
//! must be equal to the last digit (the files must come from one seed).
//! Probe, span and diff metrics carry no bound: they are printed with
//! their difference and judged by nobody. This is the tool the
//! benchmark's own repeatability is checked with, and the comparison a
//! later claim makes after its alternating parent/change pairs.

use crate::spec::{self, Kind};
use cr_sim::Json;
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match json.get("schema").and_then(Json::as_str) {
        Some("cr-perf/1") => Ok(json),
        other => Err(format!(
            "{}: not a cr-perf/1 result file (schema {other:?})",
            path.display()
        )),
    }
}

/// One compared value.
struct Row {
    workload: String,
    what: String,
    a: f64,
    b: f64,
    /// `None`: informational. `Some(ok)`: judged.
    verdict: Option<bool>,
}

/// Compares metric `name` of one workload. `None` when either side
/// lacks it.
fn compare_metric(workload: &str, name: &str, a: &Json, b: &Json) -> Option<Row> {
    let value = |j: &Json| j.get(name)?.get("value")?.as_f64();
    let (a, b) = (value(a)?, value(b)?);
    let m = spec::metric(name)?;
    let verdict = match (m.kind, m.bound) {
        (kind, _) if kind.exact() => Some(a == b),
        (Kind::Host, Some(bound)) => Some(((b - a) / a).abs() <= bound),
        _ => None,
    };
    Some(Row {
        workload: workload.to_string(),
        what: name.to_string(),
        a,
        b,
        verdict,
    })
}

fn exact(workload: &str, what: &str, a: Option<&Json>, b: Option<&Json>) -> Row {
    let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(f64::NAN);
    Row {
        workload: workload.to_string(),
        what: what.to_string(),
        a: num(a),
        b: num(b),
        verdict: Some(a.is_some() && a == b),
    }
}

/// Compares two parsed result files; returns the rows and any
/// structural complaints (a workload or metric present on one side
/// only).
fn compare(a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let (mut rows, mut complaints) = (Vec::new(), Vec::new());
    if a.get("seed") != b.get("seed") {
        complaints.push("the files were measured at different seeds".to_string());
    }
    if a.get("verify") != b.get("verify") {
        complaints.push("verify-pass digests or op counts differ".to_string());
    }
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let named = |list: &[Json], name: &str| {
        list.iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    if wa.len() != wb.len() {
        complaints.push(format!("{} workloads against {}", wa.len(), wb.len()));
    }
    for w in &wa {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(other) = named(&wb, name) else {
            complaints.push(format!("{name}: only in the first file"));
            continue;
        };
        for key in ["ops_attempted", "ops_failed"] {
            rows.push(exact(name, key, w.get(key), other.get(key)));
        }
        for (section, table) in [
            ("end_to_end", spec::END_TO_END),
            ("per_layer", spec::PER_LAYER),
        ] {
            let (Some(ma), Some(mb)) = (w.get(section), other.get(section)) else {
                complaints.push(format!("{name}: no {section} section in one file"));
                continue;
            };
            for m in table {
                match compare_metric(name, m.name, ma, mb) {
                    Some(row) => rows.push(row),
                    None => complaints.push(format!("{name}: {} missing from one file", m.name)),
                }
            }
        }
    }
    (rows, complaints)
}

/// Prints one row per (workload, metric) with both medians and the
/// relative difference; returns whether the files agree.
pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (rows, complaints) = compare(&load(a)?, &load(b)?);
    println!(
        "{:<24} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A-1"
    );
    for r in &rows {
        println!(
            "{:<24} {:<36} {:>16.6} {:>16.6} {:>+8.2}%  {}",
            r.workload,
            r.what,
            r.a,
            r.b,
            if r.a == r.b {
                0.0
            } else {
                (r.b - r.a) / r.a * 100.0
            },
            match r.verdict {
                Some(true) => "ok",
                Some(false) => "DISAGREE",
                None => "-",
            }
        );
    }
    for c in &complaints {
        println!("DISAGREE {c}");
    }
    let bad = rows.iter().filter(|r| r.verdict == Some(false)).count() + complaints.len();
    println!(
        "{} rows, {} judged, {bad} disagreements",
        rows.len(),
        rows.iter().filter(|r| r.verdict.is_some()).count()
    );
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(wall: f64, latency: f64, hops: f64, digest: &str) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::from(v)), ("unit", Json::from("x"))]);
        let end_to_end = Json::obj(spec::END_TO_END.iter().map(|m| {
            (
                m.name,
                metric(match m.name {
                    "wall_s" => wall,
                    "sim_latency_mean_cycles" => latency,
                    _ => 1.0,
                }),
            )
        }));
        // Counts follow `hops`, timings follow `wall`.
        let per_layer = Json::obj(
            spec::PER_LAYER
                .iter()
                .map(|m| (m.name, metric(if m.kind.exact() { hops } else { wall }))),
        );
        Json::obj([
            ("schema", Json::from("cr-perf/1")),
            ("seed", Json::from(1u64)),
            (
                "verify",
                Json::arr([Json::obj([("digest", Json::from(digest))])]),
            ),
            (
                "workloads",
                Json::arr([Json::obj([
                    ("name", Json::from("sat_torus8")),
                    ("ops_attempted", Json::from(10u64)),
                    ("ops_failed", Json::from(0u64)),
                    ("end_to_end", end_to_end),
                    ("per_layer", per_layer),
                ])]),
            ),
        ])
    }

    fn disagreements(a: &Json, b: &Json) -> usize {
        let (rows, complaints) = compare(a, b);
        rows.iter().filter(|r| r.verdict == Some(false)).count() + complaints.len()
    }

    #[test]
    fn host_times_agree_within_their_bound_and_not_beyond() {
        let base = result(1.0, 50.0, 1000.0, "ab");
        assert_eq!(disagreements(&base, &base), 0);
        // Probe/span/diff rows move with wall_s here but are not judged.
        let bound = spec::metric("wall_s").unwrap().bound.unwrap();
        assert_eq!(
            disagreements(&base, &result(1.0 + bound - 0.01, 50.0, 1000.0, "ab")),
            0
        );
        assert_eq!(
            disagreements(&base, &result(1.0 + bound + 0.01, 50.0, 1000.0, "ab")),
            1
        );
        assert_eq!(
            disagreements(&base, &result(1.0 - bound - 0.01, 50.0, 1000.0, "ab")),
            1
        );
    }

    #[test]
    fn simulated_statistics_counts_and_digests_must_be_equal() {
        let base = result(1.0, 50.0, 1000.0, "ab");
        assert_eq!(
            disagreements(&base, &result(1.0, 50.000001, 1000.0, "ab")),
            1
        );
        let counts = spec::PER_LAYER.iter().filter(|m| m.kind.exact()).count();
        assert_eq!(
            disagreements(&base, &result(1.0, 50.0, 1001.0, "ab")),
            counts
        );
        assert_eq!(disagreements(&base, &result(1.0, 50.0, 1000.0, "cd")), 1);
    }

    #[test]
    fn every_row_is_judged_or_explicitly_informational() {
        let base = result(1.0, 50.0, 1000.0, "ab");
        let (rows, complaints) = compare(&base, &base);
        assert!(complaints.is_empty());
        assert_eq!(
            rows.len(),
            2 + spec::END_TO_END.len() + spec::PER_LAYER.len()
        );
        let judged = rows.iter().filter(|r| r.verdict.is_some()).count();
        let exact = spec::PER_LAYER.iter().filter(|m| m.kind.exact()).count();
        assert_eq!(judged, 2 + spec::END_TO_END.len() + exact);
    }
}
