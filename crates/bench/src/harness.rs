//! A std-only benchmark harness.
//!
//! The workspace builds hermetically with zero external dependencies,
//! so instead of Criterion the benches use this ~150-line harness: each
//! [`Group`] runs its benchmarks with a fixed warmup, takes `samples`
//! timed samples over [`std::time::Instant`], prints a short table, and
//! dumps machine-readable results to `target/bench/BENCH_<group>.json`
//! (schema documented in EXPERIMENTS.md).
//!
//! Sample counts can be overridden globally with the
//! `CR_BENCH_SAMPLES` environment variable, which keeps CI smoke runs
//! cheap without touching the bench sources.

use cr_sim::Json;
use std::time::Instant;

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, unique within its group.
    pub name: String,
    /// Number of timed samples taken.
    pub samples: u32,
    /// Fastest sample.
    pub min_ns: u64,
    /// Median sample — the headline number.
    pub median_ns: u64,
    /// 95th-percentile sample.
    pub p95_ns: u64,
    /// Arithmetic mean of all samples.
    pub mean_ns: u64,
    /// Simulated cycles per iteration (0 when the benchmark is not a
    /// simulation and throughput is meaningless).
    pub sim_cycles: u64,
    /// Worker-job count the routine ran under (sweep-level
    /// parallelism); 1 unless recorded via [`Group::bench_cycles_at`].
    pub jobs: usize,
}

/// A named collection of benchmarks that report together.
///
/// # Examples
///
/// ```no_run
/// let mut g = cr_bench::harness::Group::new("example");
/// g.sample_size(10);
/// g.bench("sum", || (0..1000u64).sum::<u64>());
/// g.finish();
/// ```
pub struct Group {
    name: String,
    samples: u32,
    warmup: u32,
    results: Vec<BenchResult>,
    started: Instant,
    jobs: usize,
}

impl Group {
    /// Creates a group with the default 20 samples (3 warmup runs),
    /// honouring the `CR_BENCH_SAMPLES` override.
    pub fn new(name: &str) -> Group {
        let samples = std::env::var("CR_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20);
        Group {
            name: name.to_string(),
            samples,
            warmup: 3,
            results: Vec::new(),
            started: Instant::now(),
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// Sets the number of timed samples per benchmark (unless the
    /// `CR_BENCH_SAMPLES` environment override is active).
    pub fn sample_size(&mut self, samples: u32) -> &mut Group {
        if std::env::var("CR_BENCH_SAMPLES").is_err() {
            self.samples = samples.max(1);
        }
        self
    }

    /// Benchmarks `routine`, timing each call.
    pub fn bench<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) {
        self.bench_with_setup(name, || (), |()| routine());
    }

    /// Benchmarks a simulation `routine` that advances `sim_cycles`
    /// simulated cycles per call; the JSON gains a derived
    /// `cycles_per_sec` throughput figure.
    pub fn bench_cycles<T>(&mut self, name: &str, sim_cycles: u64, mut routine: impl FnMut() -> T) {
        self.bench_with_setup(name, || (), |()| routine());
        if let Some(last) = self.results.last_mut() {
            last.sim_cycles = sim_cycles;
        }
    }

    /// Benchmarks a simulation `routine` measured under an explicit
    /// `jobs` count, recorded per benchmark in the JSON. Comparisons
    /// key benchmarks by `(name, jobs)` (scripts/bench_compare.sh), so
    /// the same scenario measured at a different worker count is a
    /// distinct data point rather than a regression of the old one.
    pub fn bench_cycles_at<T>(
        &mut self,
        name: &str,
        sim_cycles: u64,
        jobs: usize,
        routine: impl FnMut() -> T,
    ) {
        self.bench_cycles(name, sim_cycles, routine);
        if let Some(last) = self.results.last_mut() {
            last.jobs = jobs;
        }
    }

    /// Benchmarks `routine` with a fresh untimed `setup` product per
    /// sample — the `iter_batched` pattern, for routines that consume
    /// or mutate their input.
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        for _ in 0..self.warmup {
            std::hint::black_box(routine(setup()));
        }
        let mut samples_ns: Vec<u64> = (0..self.samples)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                let out = routine(input);
                let elapsed = start.elapsed();
                std::hint::black_box(out);
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        samples_ns.sort_unstable();
        let n = samples_ns.len();
        let result = BenchResult {
            name: name.to_string(),
            samples: self.samples,
            min_ns: samples_ns[0],
            median_ns: samples_ns[n / 2],
            p95_ns: samples_ns[(n * 95 / 100).min(n - 1)],
            mean_ns: samples_ns.iter().sum::<u64>() / n as u64,
            sim_cycles: 0,
            jobs: 1,
        };
        println!(
            "{:<28} {:>14} median  {:>14} p95  ({} samples)",
            format!("{}/{}", self.name, result.name),
            format_ns(result.median_ns),
            format_ns(result.p95_ns),
            result.samples,
        );
        self.results.push(result);
    }

    /// The group's results as the `BENCH_<group>.json` document.
    ///
    /// The `meta` block records the wall clock elapsed since the group
    /// was created and the host's parallelism
    /// ([`std::thread::available_parallelism`] at group creation), so a
    /// recorded baseline states the conditions it was measured under.
    /// Each benchmark object additionally carries its own `jobs` field
    /// (1 unless set via [`Group::bench_cycles_at`]) so comparisons can
    /// key on `(name, jobs)`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("group", Json::from(self.name.as_str())),
            (
                "meta",
                Json::obj([
                    (
                        "elapsed_ns",
                        Json::from(
                            u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        ),
                    ),
                    ("jobs", Json::from(self.jobs as u64)),
                ]),
            ),
            (
                "benchmarks",
                Json::arr(self.results.iter().map(|r| {
                    let mut fields = vec![
                        ("name", Json::from(r.name.as_str())),
                        ("jobs", Json::from(r.jobs as u64)),
                        ("samples", Json::from(r.samples)),
                        ("min_ns", Json::from(r.min_ns)),
                        ("median_ns", Json::from(r.median_ns)),
                        ("p95_ns", Json::from(r.p95_ns)),
                        ("mean_ns", Json::from(r.mean_ns)),
                    ];
                    if r.sim_cycles > 0 {
                        fields.push(("sim_cycles", Json::from(r.sim_cycles)));
                        let cps = r.sim_cycles as f64 * 1e9 / r.median_ns.max(1) as f64;
                        fields.push(("cycles_per_sec", Json::from(cps.round() as u64)));
                    }
                    Json::obj(fields)
                })),
            ),
        ])
    }

    /// Writes `<target>/bench/BENCH_<group>.json` and returns the
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if the output directory or file cannot be written.
    pub fn finish(self) -> Vec<BenchResult> {
        let dir = target_dir().join("bench");
        std::fs::create_dir_all(&dir).expect("create target/bench");
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json().to_pretty() + "\n").expect("write bench JSON");
        println!("wrote {}", path.display());
        self.results
    }
}

/// The cargo target directory the running bench was built into.
///
/// Cargo runs bench binaries with the *package* directory as cwd, so a
/// relative `target/` would scatter output under `crates/*/target/`
/// for workspace members. `CARGO_TARGET_DIR` wins when set; otherwise
/// walk up from the executable (`<target>/<profile>/deps/bin`) to the
/// directory that holds the profile dir.
fn target_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return std::path::PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.as_path();
        while let Some(parent) = dir.parent() {
            if dir.file_name().is_some_and(|n| n == "deps") {
                if let Some(target) = parent.parent() {
                    return target.to_path_buf();
                }
            }
            dir = parent;
        }
    }
    std::path::PathBuf::from("target")
}

/// Renders nanoseconds with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_ordered_summary() {
        let mut g = Group::new("harness_selftest");
        g.sample_size(5);
        g.bench("busy_loop", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let json = g.to_json();
        let benches = json.get("benchmarks").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        let b = &benches[0];
        assert_eq!(b.get("name").and_then(Json::as_str), Some("busy_loop"));
        let min = b.get("min_ns").and_then(Json::as_u64).unwrap();
        let median = b.get("median_ns").and_then(Json::as_u64).unwrap();
        let p95 = b.get("p95_ns").and_then(Json::as_u64).unwrap();
        assert!(min <= median && median <= p95, "{min} {median} {p95}");
    }

    #[test]
    fn setup_is_not_timed() {
        // A slow setup with a trivial routine must not dominate the
        // measurement: the routine is ~instant, so even p95 stays far
        // below the setup's busy-work time.
        let mut g = Group::new("harness_selftest_setup");
        g.sample_size(5);
        let mut slow_setup_ns = 0u64;
        g.bench_with_setup(
            "trivial_after_slow_setup",
            || {
                let start = Instant::now();
                let mut acc = 0u64;
                for i in 0..2_000_000u64 {
                    acc = acc.wrapping_add(i ^ (i << 7));
                }
                slow_setup_ns = slow_setup_ns.max(start.elapsed().as_nanos() as u64);
                acc
            },
            |v| v + 1,
        );
        let json = g.to_json();
        let p95 = json.get("benchmarks").unwrap().as_arr().unwrap()[0]
            .get("p95_ns")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            p95 < slow_setup_ns / 10,
            "routine p95 {p95}ns suspiciously close to setup {slow_setup_ns}ns"
        );
    }

    #[test]
    fn meta_block_records_elapsed_and_jobs() {
        let mut g = Group::new("harness_selftest_meta");
        g.sample_size(2);
        g.bench("noop", || 1u64 + 1);
        let json = g.to_json();
        let meta = json.get("meta").expect("meta block");
        let elapsed = meta.get("elapsed_ns").and_then(Json::as_u64).unwrap();
        let jobs = meta.get("jobs").and_then(Json::as_u64).unwrap();
        assert!(elapsed > 0, "wall clock must have advanced");
        assert!(jobs >= 1, "effective parallelism is at least one");
    }

    #[test]
    fn bench_cycles_at_records_configuration() {
        let mut g = Group::new("harness_selftest_at");
        g.sample_size(2);
        g.bench_cycles("plain", 100, || 1u64 + 1);
        g.bench_cycles_at("configured", 100, 4, || 2u64 + 2);
        let json = g.to_json();
        let benches = json.get("benchmarks").unwrap().as_arr().unwrap();
        let field = |b: &Json, k: &str| b.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(field(&benches[0], "jobs"), 1);
        assert_eq!(field(&benches[1], "jobs"), 4);
        assert!(field(&benches[1], "cycles_per_sec") > 0);
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(1_500), "1.500 µs");
        assert_eq!(format_ns(2_000_000), "2.000 ms");
        assert_eq!(format_ns(3_500_000_000), "3.500 s");
    }
}
