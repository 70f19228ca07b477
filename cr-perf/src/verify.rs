//! The verify pass: on a tiny slice of every workload, the three
//! steppers must agree byte for byte and the protocol must keep its
//! promises.
//!
//! Per point it runs the active-set stepper (serial), the dense
//! reference stepper (`set_reference_stepper(true)`) and the sharded
//! stepper (`shards(2)`), and requires identical `SimReport::to_json()`
//! from all three. Drain workloads also record deliveries and require
//! every scheduled message delivered exactly once; every run must end
//! without deadlock, and FCR without a corrupt payload delivered (both
//! checked by `exec::run_point`). The dense stepper is the repo's
//! reference implementation, so this is the one check here against
//! something other than the stepper being timed.

use crate::exec::{run_point, ExecCfg, PointOutcome, Stepper};
use crate::inputs::{generate, Point, Size, Stop, Workload};
use crate::span::Recorder;
use std::collections::BTreeSet;

/// Outcome of verifying one workload.
#[derive(Debug, Clone)]
pub struct Verified {
    /// Simulated runs made (three per point).
    pub ops_attempted: u64,
    /// Runs that failed a check.
    pub ops_failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// FNV-1a of the active-set stepper's reports: equal across runs
    /// at one seed, different across seeds.
    pub digest: u64,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Why the delivery log of a drain run is not "every scheduled message
/// exactly once", if it is not.
fn exactly_once(point: &Point, out: &PointOutcome) -> Option<String> {
    let mut want: BTreeSet<(u32, u32, u64)> = BTreeSet::new();
    // Per-flow sequence numbers are handed out in firing order.
    let mut next_seq = std::collections::BTreeMap::new();
    for e in point.trace.events() {
        let seq = next_seq.entry((e.src, e.dst)).or_insert(0u64);
        want.insert((e.src.as_u32(), e.dst.as_u32(), *seq));
        *seq += 1;
    }
    for d in &out.deliveries {
        if !want.remove(&(d.src.as_u32(), d.dst.as_u32(), d.msg_seq)) {
            return Some(format!(
                "{} -> {} #{} delivered twice or never sent",
                d.src, d.dst, d.msg_seq
            ));
        }
    }
    (!want.is_empty()).then(|| format!("{} messages never delivered", want.len()))
}

/// Verifies one workload's tiny slice.
pub fn verify(workload: Workload, seed: u64, threads: usize) -> Verified {
    let inputs = generate(workload, seed, Size::Tiny);
    let mut v = Verified {
        ops_attempted: 0,
        ops_failed: 0,
        failures: Vec::new(),
        digest: FNV_BASIS,
    };
    let steppers = [
        ("active", Stepper::Default, 1),
        ("dense", Stepper::Dense, 1),
        ("shards2", Stepper::Default, 2),
    ];
    for (i, point) in inputs.points.iter().enumerate() {
        let mut reference: Option<String> = None;
        for (tag, stepper, shards) in steppers {
            let cfg = ExecCfg {
                shards,
                shard_threads: threads,
                stepper,
                event_ring: false,
                record_deliveries: point.stop == Stop::Drain,
                chunk_cycles: None,
            };
            let out = run_point(point, &cfg, &mut Recorder::off(), i as u32);
            let failure = out
                .failure
                .clone()
                .or_else(|| {
                    (point.stop == Stop::Drain)
                        .then(|| exactly_once(point, &out))
                        .flatten()
                })
                .or_else(|| match &reference {
                    Some(json) if *json != out.json => {
                        Some("report differs from the active-set stepper's".into())
                    }
                    _ => None,
                });
            v.ops_attempted += 1;
            if let Some(why) = failure {
                v.ops_failed += 1;
                v.failures.push(format!(
                    "verify {} [{tag}] {}: {why}",
                    workload.name(),
                    point.label
                ));
            }
            if reference.is_none() {
                v.digest = fnv1a(out.json.as_bytes(), v.digest);
                reference = Some(out.json);
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b"", FNV_BASIS), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_BASIS), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar", FNV_BASIS), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn every_workload_verifies_and_digests_follow_the_seed() {
        // That a digest repeats at one seed is checked where two are at
        // hand anyway: main.rs holds the untraced run's to the traced.
        for w in Workload::ALL {
            let a = verify(w, 1, 2);
            assert_eq!(a.ops_failed, 0, "{:?}", a.failures);
            assert_eq!(
                a.ops_attempted,
                3 * generate(w, 1, Size::Tiny).points.len() as u64
            );
            assert_ne!(
                a.digest,
                verify(w, 2, 2).digest,
                "{} digest ignores the seed",
                w.name()
            );
        }
    }
}
