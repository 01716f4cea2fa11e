//! Feature extraction from representations (§5.2).
//!
//! "Find the peaks in the sequences... by examining the slopes of the
//! representing functions." A peak is a rising segment immediately followed
//! by a descending segment (pattern `1+ (-1)+` over slope signs, taking the
//! segments adjacent to the apex). [`PeakTable`] is Table 1: per peak, the
//! rising and descending functions with the start/end points of their
//! subsequences; the peak's location is the endpoint with the larger
//! amplitude ("the one with the larger amplitude is where the peak actually
//! occurred").

use crate::alphabet::{series_symbols, SlopeSymbol};
use crate::repr::{FunctionSeries, Segment};
use saq_curves::Curve;
use saq_sequence::Point;

/// One detected peak: the rising/descending segments flanking the apex
/// (Table 1 row).
#[derive(Debug, Clone, PartialEq)]
pub struct Peak<C> {
    /// Index (within the series) of the rising segment adjacent to the apex.
    pub rising_segment: usize,
    /// Index of the descending segment adjacent to the apex.
    pub descending_segment: usize,
    /// The rising function.
    pub rising: C,
    /// Start point of the rising subsequence (Table 1's `RStart`).
    pub r_start: Point,
    /// End point of the rising subsequence (`REnd`).
    pub r_end: Point,
    /// The descending function.
    pub descending: C,
    /// Start point of the descending subsequence (`DStart`).
    pub d_start: Point,
    /// End point of the descending subsequence (`DEnd`).
    pub d_end: Point,
}

impl<C: Curve> Peak<C> {
    /// The apex: whichever of `REnd` / `DStart` has the larger amplitude
    /// (they differ when the breakpoint was assigned to one side).
    pub fn apex(&self) -> Point {
        if self.r_end.v >= self.d_start.v {
            self.r_end
        } else {
            self.d_start
        }
    }

    /// Time of the apex.
    pub fn time(&self) -> f64 {
        self.apex().t
    }

    /// Amplitude of the apex.
    pub fn amplitude(&self) -> f64 {
        self.apex().v
    }

    /// Steepness: the smaller of |rising slope| and |descending slope| —
    /// one of the query dimensions §2.2 mentions ("the steepness of the
    /// slopes").
    pub fn steepness(&self) -> f64 {
        let up = self.rising.derivative(0.5 * (self.r_start.t + self.r_end.t)).abs();
        let down = self.descending.derivative(0.5 * (self.d_start.t + self.d_end.t)).abs();
        up.min(down)
    }
}

/// All peaks of a representation — Table 1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakTable<C> {
    /// Detected peaks in time order.
    pub peaks: Vec<Peak<C>>,
}

impl<C: Curve + Clone> PeakTable<C> {
    /// Extracts peaks from a representation: scans the θ-quantized slope
    /// symbols for `Up+ Down+` runs and takes the segments adjacent to each
    /// apex.
    pub fn extract(series: &FunctionSeries<C>, theta: f64) -> PeakTable<C> {
        let symbols = series_symbols(series, theta);
        let segs = series.segments();
        let mut peaks = Vec::new();
        let mut i = 0;
        while i < symbols.len() {
            if symbols[i] == SlopeSymbol::Up {
                // Extend the rising run.
                let mut j = i;
                while j + 1 < symbols.len() && symbols[j + 1] == SlopeSymbol::Up {
                    j += 1;
                }
                // The apex may be isolated in a single-sample Flat segment
                // (its slope is undefined); look past at most one such
                // singleton for the Down run.
                let mut after = j + 1;
                if after < symbols.len()
                    && symbols[after] == SlopeSymbol::Flat
                    && segs[after].len() == 1
                {
                    after += 1;
                }
                if after < symbols.len() && symbols[after] == SlopeSymbol::Down {
                    let mut k = after;
                    while k + 1 < symbols.len() && symbols[k + 1] == SlopeSymbol::Down {
                        k += 1;
                    }
                    peaks.push(make_peak(segs, j, after));
                    i = k + 1;
                    continue;
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
        PeakTable { peaks }
    }

    /// Number of peaks.
    pub fn len(&self) -> usize {
        self.peaks.len()
    }

    /// Whether no peaks were found.
    pub fn is_empty(&self) -> bool {
        self.peaks.is_empty()
    }

    /// Apex times, in order.
    pub fn times(&self) -> Vec<f64> {
        self.peaks.iter().map(Peak::time).collect()
    }

    /// "For each pair of successive peaks, find the difference in time
    /// between them. The result is a sequence of distances between peaks."
    /// (§5.2, step 4 — the R–R intervals for ECGs.)
    pub fn intervals(&self) -> Vec<f64> {
        self.times().windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Intervals rounded to integer buckets for the inverted-file index.
    pub fn interval_buckets(&self) -> Vec<i64> {
        self.intervals().iter().map(|&d| d.round() as i64).collect()
    }

    /// `(min, max)` steepness over the peaks, folded from `+∞` with
    /// `f64::min` and from `−∞` with `f64::max` in peak order; `None`
    /// when there are no peaks. The steepness predicates read only these.
    pub fn steepness_range(&self) -> Option<(f64, f64)> {
        if self.peaks.is_empty() {
            return None;
        }
        let steepness = || self.peaks.iter().map(Peak::steepness);
        Some((
            steepness().fold(f64::INFINITY, f64::min),
            steepness().fold(f64::NEG_INFINITY, f64::max),
        ))
    }
}

fn make_peak<C: Curve + Clone>(segs: &[Segment<C>], up: usize, down: usize) -> Peak<C> {
    Peak {
        rising_segment: up,
        descending_segment: down,
        rising: segs[up].curve.clone(),
        r_start: segs[up].start,
        r_end: segs[up].end,
        descending: segs[down].curve.clone(),
        d_start: segs[down].start,
        d_end: segs[down].end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::DEFAULT_THETA;
    use crate::brk::{Breaker, LinearInterpolationBreaker};
    use saq_curves::RegressionFitter;
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
    use saq_sequence::Sequence;

    fn linear_series(seq: &Sequence, eps: f64) -> FunctionSeries<saq_curves::Line> {
        let ranges = LinearInterpolationBreaker::new(eps).break_ranges(seq);
        FunctionSeries::build(seq, &ranges, &RegressionFitter).unwrap()
    }

    #[test]
    fn goalpost_has_two_peaks() {
        let log = goalpost(GoalpostSpec::default());
        let series = linear_series(&log, 1.0);
        let table = PeakTable::extract(&series, DEFAULT_THETA);
        assert_eq!(table.len(), 2, "times {:?}", table.times());
        // Apexes near t=8 and t=18.
        let times = table.times();
        assert!((times[0] - 8.0).abs() < 2.0, "{times:?}");
        assert!((times[1] - 18.0).abs() < 2.0, "{times:?}");
        // Interval ~10 hours.
        let ivs = table.intervals();
        assert_eq!(ivs.len(), 1);
        assert!((ivs[0] - 10.0).abs() < 3.0, "{ivs:?}");
    }

    #[test]
    fn three_peak_series() {
        let log = peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() });
        let series = linear_series(&log, 1.0);
        let table = PeakTable::extract(&series, DEFAULT_THETA);
        assert_eq!(table.len(), 3);
        let buckets = table.interval_buckets();
        assert_eq!(buckets.len(), 2);
        for b in buckets {
            assert!((b - 8).abs() <= 2, "bucket {b}");
        }
    }

    #[test]
    fn flat_sequence_has_no_peaks() {
        let s = Sequence::from_samples(&[1.0; 30]).unwrap();
        let series = linear_series(&s, 0.5);
        let table = PeakTable::extract(&series, DEFAULT_THETA);
        assert!(table.is_empty());
        assert!(table.intervals().is_empty());
    }

    #[test]
    fn rising_only_is_not_a_peak() {
        let s = Sequence::from_samples(&(0..30).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        let series = linear_series(&s, 0.5);
        assert!(PeakTable::extract(&series, DEFAULT_THETA).is_empty());
    }

    #[test]
    fn valley_is_not_a_peak() {
        // V shape: down then up.
        let vals: Vec<f64> =
            (0..=20).map(|i| if i <= 10 { 10.0 - i as f64 } else { i as f64 - 10.0 }).collect();
        let s = Sequence::from_samples(&vals).unwrap();
        let series = linear_series(&s, 0.5);
        assert!(PeakTable::extract(&series, DEFAULT_THETA).is_empty());
    }

    #[test]
    fn apex_picks_larger_amplitude_endpoint() {
        let log = goalpost(GoalpostSpec::default());
        let series = linear_series(&log, 1.0);
        let table = PeakTable::extract(&series, DEFAULT_THETA);
        for p in &table.peaks {
            assert!(p.apex().v >= p.r_end.v.min(p.d_start.v));
            assert!(p.amplitude() >= 100.0, "fever peaks are high");
            assert!(p.steepness() > DEFAULT_THETA);
            // Rising segment is immediately before the descending one.
            assert_eq!(p.rising_segment + 1, p.descending_segment);
        }
    }

    #[test]
    fn flats_between_peaks_are_tolerated() {
        // Peaks separated by long flat stretches.
        let log =
            peaks(PeaksSpec { duration: 48.0, centers: vec![8.0, 40.0], ..PeaksSpec::default() });
        let series = linear_series(&log, 1.0);
        let table = PeakTable::extract(&series, DEFAULT_THETA);
        assert_eq!(table.len(), 2, "times {:?}", table.times());
        assert!((table.intervals()[0] - 32.0).abs() < 4.0);
    }
}
