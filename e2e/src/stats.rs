//! Order statistics and the regression bound.
//!
//! Percentiles are nearest-rank over whole-percent ranks, computed in
//! integers so that `p99` of 1000 samples is exactly the 990th value. A
//! tail percentile is reported only when at least [`TAIL_SAMPLES`]
//! samples lie beyond it: `p99` needs 1000 samples, `p95` needs 200.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of percentile `p` in `n` samples:
/// `ceil(p * n / 100)`, at least 1.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples:
/// the smallest sample with at least `p`% of all samples at or below it.
/// `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    debug_assert!(p <= 100, "percentile out of range");
    debug_assert!(sorted.is_sorted(), "samples must be sorted");
    let n = sorted.len();
    (n > 0).then(|| sorted[rank(n, p).min(n) - 1])
}

/// [`percentile`], but only when at least [`TAIL_SAMPLES`] samples lie
/// beyond the rank; a tail read from fewer is noise.
pub fn tail_percentile(sorted: &[f64], p: u32) -> Option<f64> {
    let n = sorted.len();
    (n >= min_samples(p))
        .then(|| percentile(sorted, p))
        .flatten()
}

/// The fewest samples from which [`tail_percentile`] reports `p`.
pub fn min_samples(p: u32) -> usize {
    assert!(p < 100, "no sample count leaves anything beyond p100");
    let mut n = TAIL_SAMPLES;
    while n - rank(n, p) < TAIL_SAMPLES {
        n += 1;
    }
    n
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50)
}

/// Sorts a sample set in place (total order; measurements are finite).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// An end-to-end metric's name, unit, direction and regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// How far it may worsen before counting as a regression.
    pub bound: Bound,
}

/// How far a metric may move the wrong way before it counts as a
/// regression: a share of the reference value, or an absolute allowance
/// when that is larger (set-up time is short enough that a fixed slack
/// matters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the reference (0.10 = 10%).
    pub share: f64,
    /// Allowed worsening in the metric's own unit.
    pub absolute: f64,
}

impl Bound {
    /// A purely relative bound.
    pub const fn share(share: f64) -> Self {
        Bound {
            share,
            absolute: 0.0,
        }
    }

    /// The allowance around `reference`.
    fn allowance(&self, reference: f64) -> f64 {
        (self.share * reference.abs()).max(self.absolute)
    }

    /// Whether `candidate` is no worse than `reference` by more than the
    /// bound.
    pub fn allows(&self, better: Better, reference: f64, candidate: f64) -> bool {
        let slack = self.allowance(reference);
        match better {
            Better::Lower => candidate <= reference + slack,
            Better::Higher => candidate >= reference - slack,
        }
    }

    /// Two-set agreement: the medians of two sets of runs of the same
    /// code differ by no more than the bound, in either direction.
    pub fn agree(&self, better: Better, a: &[f64], b: &[f64]) -> bool {
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        sort(&mut a);
        sort(&mut b);
        match (median(&a), median(&b)) {
            (Some(ma), Some(mb)) => self.allows(better, ma, mb) && self.allows(better, mb, ma),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&s, 10), Some(1.0));
        assert_eq!(percentile(&s, 11), Some(2.0));
        assert_eq!(percentile(&s, 50), Some(5.0));
        assert_eq!(percentile(&s, 90), Some(9.0));
        assert_eq!(percentile(&s, 100), Some(10.0));
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
        // Exact integer ranks: p99 of 1000 is the 990th value.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(200), 95), Some(190.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(95), 200);
        assert_eq!(min_samples(50), 20);
        assert_eq!(tail_percentile(&ramp(999), 99), None);
        assert_eq!(tail_percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(tail_percentile(&ramp(199), 95), None);
        assert_eq!(tail_percentile(&ramp(200), 95), Some(190.0));
        // Every admitted sample count leaves at least ten beyond.
        for n in [200, 201, 257, 999, 1000, 4321] {
            for p in [95, 99] {
                if tail_percentile(&ramp(n), p).is_some() {
                    assert!(n - rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn bound_check_is_directional() {
        let ten = Bound::share(0.10);
        assert!(ten.allows(Better::Lower, 100.0, 110.0));
        assert!(!ten.allows(Better::Lower, 100.0, 110.5));
        assert!(ten.allows(Better::Lower, 100.0, 50.0));
        assert!(ten.allows(Better::Higher, 100.0, 90.0));
        assert!(!ten.allows(Better::Higher, 100.0, 89.5));
        assert!(ten.allows(Better::Higher, 100.0, 150.0));
    }

    #[test]
    fn absolute_allowance_covers_small_references() {
        // setup_s: +25% or +0.05 s, whichever is larger.
        let setup = Bound {
            share: 0.25,
            absolute: 0.05,
        };
        assert!(setup.allows(Better::Lower, 0.1, 0.15));
        assert!(!setup.allows(Better::Lower, 0.1, 0.16));
        assert!(setup.allows(Better::Lower, 1.0, 1.25));
        assert!(!setup.allows(Better::Lower, 1.0, 1.26));
    }

    #[test]
    fn two_sets_agree_by_median_in_both_directions() {
        let p50 = Bound::share(0.10);
        let a = [4.0, 4.1, 9.9, 4.2];
        let b = [4.3, 4.4, 4.2];
        assert!(p50.agree(Better::Lower, &a, &b));
        // A faster second set disagrees just as a slower one does.
        assert!(!p50.agree(Better::Lower, &[5.0, 5.0, 5.0], &[4.0, 4.0, 4.0]));
        assert!(!p50.agree(Better::Lower, &[4.0, 4.0, 4.0], &[5.0, 5.0, 5.0]));
        assert!(!p50.agree(Better::Lower, &[], &b));
        // Exact metrics only agree when identical.
        let exact = Bound::share(0.0);
        assert!(exact.agree(Better::Lower, &[4321.0; 3], &[4321.0; 3]));
        assert!(!exact.agree(Better::Lower, &[4321.0; 3], &[4322.0; 3]));
    }
}
