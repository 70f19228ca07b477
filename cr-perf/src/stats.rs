//! Median, quartiles and guarded percentiles over timing samples.

/// One metric's reported value with the median, quartiles and count of
/// the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the best sample of a host timing, or the
    /// one exact value of a simulated statistic, count, probe or ratio.
    pub value: f64,
    /// The median.
    pub median: f64,
    /// First quartile (the median itself with fewer than two samples).
    pub q1: f64,
    /// Third quartile (the median itself with fewer than two samples).
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes host-time `samples`, reporting the **best** one: the
    /// smallest when `lower_is_better`, else the largest.
    ///
    /// Why not the median: the reps are deterministic, CPU-bound work,
    /// and on the two-core VM this was built on interference is
    /// one-sided and arrives in phases of 5-30 s that slow a rep by
    /// 25-60 %. The median flips with whichever phase fills more of the
    /// run (measured: 1.51 / 1.61 / 1.21 s over three back-to-back
    /// `sat_torus8` runs) while the best rep barely moves (1.23 / 1.21 /
    /// 1.16 s). `scripts/bench_compare.sh` compares best-case
    /// throughput for the same reason. Median and quartiles are kept
    /// beside it.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn best(samples: &[f64], lower_is_better: bool) -> Summary {
        let median = median(samples);
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        let pick = if lower_is_better { f64::min } else { f64::max };
        Summary {
            value: samples
                .iter()
                .copied()
                .reduce(pick)
                .expect("median checked non-empty"),
            median,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A summary of one exact value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Distance between the quartiles as a share of the median: the
    /// rep-to-rep spread inside one run.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the "exclusive"
/// method), which is what the benchmark's driver uses; `None` with
/// fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let v = sorted(samples);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `p`-th percentile (`0 < p < 100`, nearest rank), or `None` when
/// fewer than ten samples lie beyond it: a tail read off a handful of
/// samples is noise, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_reports_the_best_sample_beside_median_and_quartiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::best(&ten, true);
        assert_eq!((s.value, s.median, s.n), (1.0, 5.5, 10));
        assert_eq!(Summary::best(&ten, false).value, 10.0);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::best(&[2.0], true).spread(), 0.0);
        assert_eq!(Summary::exact(3.0).q3, 3.0);
    }

    #[test]
    fn percentile_refuses_a_tail_of_fewer_than_ten_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(
            percentile(&hundred, 95.0),
            None,
            "only 5 samples beyond p95"
        );
        assert_eq!(
            percentile(&hundred[..19], 50.0),
            None,
            "9 beyond the median"
        );
        assert_eq!(percentile(&hundred[..20], 50.0), Some(10.0));
    }
}
