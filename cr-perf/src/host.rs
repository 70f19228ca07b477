//! The host block: what the numbers were measured on.

use crate::inputs::Parallelism;
use cr_sim::Json;
use std::process::Command;

/// Worker threads the `_sh2` / `_j2` workloads ask for.
pub const MAX_THREADS: usize = 2;

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Effective thread count of a workload, from the processor count.
///
/// Sweep jobs are independent simulations: `min(2, nproc)`; a job that
/// loses its processor for a while just finishes later. Shard threads
/// meet at four barriers per simulated cycle, so one that shares its
/// processor with *anything* stalls every barrier: they get
/// `min(2, nproc - 1)`, leaving a processor to the OS and the driver.
/// Measured on the two-processor VM this was built on, two shard
/// threads gave best-of-run `wall_s` anywhere from 0.95 to 2.0 s on
/// `dense_torus64_sh2` over ten runs (spread 51 %, 34 % on the sharded
/// storm) against 9-17 % for every serial workload in the same hour; so
/// there the `_sh2` rows run both shards on one thread and are marked
/// `degraded`.
pub fn threads(parallelism: Parallelism) -> usize {
    match parallelism {
        Parallelism::Serial => 1,
        Parallelism::SweepJobs => nproc().min(MAX_THREADS),
        Parallelism::ShardThreads => nproc().saturating_sub(1).clamp(1, MAX_THREADS),
    }
}

/// A `kB` line of `/proc/self/status` (`VmHWM`, `VmPeak`) in MiB;
/// `None` off Linux.
pub fn proc_status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"` (the
/// driver's checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block of a result file. `calibration` is
/// `rng.chacha8_blocks_per_s`, the fixed in-repo kernel ROADMAP 1a
/// asks host speed to be scored with.
pub fn block(calibration: f64) -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("max_threads", Json::from(MAX_THREADS)),
        ("rustc", Json::from(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("rng.chacha8_blocks_per_s", Json::from(calibration)),
    ])
}
