//! Order statistics for the benchmark's reported values.

use std::fmt;

/// How many samples must lie beyond a percentile for it to be reported
/// (choosing-metrics guide §1: "the highest percentile that has at least
/// ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// A percentile was asked of too few samples to support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported {
    /// Samples offered.
    pub samples: usize,
    /// Samples lying beyond the requested rank.
    pub beyond: usize,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile; {MIN_BEYOND} are needed",
            self.samples, self.beyond
        )
    }
}

/// The nearest-rank index of percentile `p` (0 < p < 1) in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending `sorted`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (on the sparser side for the median).
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, Unsupported> {
    if sorted.is_empty() {
        return Err(Unsupported { samples: 0, beyond: 0 });
    }
    let at = rank(sorted.len(), p);
    let beyond = (sorted.len() - 1 - at).min(if p <= 0.5 { at } else { usize::MAX });
    if beyond < MIN_BEYOND {
        return Err(Unsupported { samples: sorted.len(), beyond });
    }
    Ok(sorted[at])
}

/// As [`percentile`] without the support check — smoke runs are too short
/// to support any percentile and only prove the plumbing.
pub fn percentile_unchecked(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Sorts in place and returns the median (mean of the middle pair for an
/// even count); 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// `(max − min) / median` of a few repeated readings of one statistic —
/// the recorded spread of a value across the three thirds of a phase.
pub fn spread(readings: &[f64]) -> f64 {
    let mut sorted = readings.to_vec();
    let mid = median(&mut sorted);
    match (sorted.first(), sorted.last()) {
        (Some(lo), Some(hi)) if mid != 0.0 => (hi - lo) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank: p90 of 1..=100 is the 90th sample, ten lie beyond.
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
        // One sample fewer leaves only nine beyond the p90 rank.
        let err = percentile(&hundred[..99], 0.9).unwrap_err();
        assert_eq!(err, Unsupported { samples: 99, beyond: 9 });
        assert_eq!(percentile(&hundred, 0.99).unwrap_err().beyond, 1);
        // The median needs ten on each side.
        assert_eq!(percentile(&hundred[..21], 0.5), Ok(11.0));
        assert!(percentile(&hundred[..20], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile_unchecked(&hundred[..5], 0.9), 5.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(spread(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
