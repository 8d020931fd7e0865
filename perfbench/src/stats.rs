//! Order statistics and the witness digest.
//!
//! Percentiles follow one rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it, so a tail figure always
//! rests on a handful of observations rather than on the single largest.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `samples`, nearest-rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it; the samples strictly beyond it are the rest.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank > 0 && n - rank >= MIN_BEYOND).then(|| nearest_rank(samples, p))
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) whatever the
/// sample count; `NaN` when empty.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// The smallest sample count for which [`percentile`] reports `p`.
#[must_use]
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("a finite count exists")
}

/// Median (mean of the two middle values for even counts); `NaN` when
/// empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// FNV-1a over everything a round must reproduce exactly: placements,
/// counters, each search's best partition and sample count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a value's `Debug` rendering (exact for the integers, enums
    /// and vectors the witnesses are made of) plus a separator.
    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(b"\x1f");
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples leaves 9 beyond the 90th; of 100, exactly 10.
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&shuffled, 90.0);
        shuffled.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&shuffled, 90.0));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.debug(&12u32);
        a.debug(&3u32);
        let mut b = Digest::default();
        b.debug(&1u32);
        b.debug(&23u32);
        assert_ne!(a, b);
    }
}
