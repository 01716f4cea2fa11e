//! Deviation metrics between a fitted curve and the raw subsequence.
//!
//! The breaking template (Fig. 8) needs exactly one query: *the point of
//! maximum deviation* and whether it exceeds the tolerance ε. The paper's
//! deviation is vertical distance at the sample's abscissa; RMSE and SSE are
//! provided for the DP breaker's cost function and for reporting.

use crate::curve::Curve;
use saq_sequence::Point;

/// The worst-deviating sample of a run, relative to a fitted curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deviation {
    /// Index (within the examined slice) of the worst point.
    pub index: usize,
    /// Absolute vertical deviation at that point.
    pub value: f64,
}

/// Finds the sample with maximum absolute vertical deviation from `curve`.
///
/// Returns `None` for an empty slice.
pub fn max_deviation<C: Curve + ?Sized>(curve: &C, points: &[Point]) -> Option<Deviation> {
    let mut best: Option<Deviation> = None;
    for (i, p) in points.iter().enumerate() {
        let d = (curve.eval(p.t) - p.v).abs();
        if best.is_none_or(|b| d > b.value) {
            best = Some(Deviation { index: i, value: d });
        }
    }
    best
}

/// Sum of squared vertical deviations.
pub fn sse_deviation<C: Curve + ?Sized>(curve: &C, points: &[Point]) -> f64 {
    points
        .iter()
        .map(|p| {
            let d = curve.eval(p.t) - p.v;
            d * d
        })
        .sum()
}

/// Root-mean-square vertical deviation; 0 for an empty slice.
pub fn rmse_deviation<C: Curve + ?Sized>(curve: &C, points: &[Point]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    (sse_deviation(curve, points) / points.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Line;

    fn pts(vals: &[f64]) -> Vec<Point> {
        vals.iter().enumerate().map(|(i, &v)| Point::new(i as f64, v)).collect()
    }

    #[test]
    fn max_deviation_picks_worst() {
        let line = Line::new(0.0, 0.0); // y = 0
        let p = pts(&[0.1, -0.5, 0.3]);
        let d = max_deviation(&line, &p).unwrap();
        assert_eq!(d.index, 1);
        assert!((d.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_deviation_empty_is_none() {
        let line = Line::new(1.0, 2.0);
        assert_eq!(max_deviation(&line, &[]), None);
    }

    #[test]
    fn max_deviation_first_among_ties() {
        let line = Line::new(0.0, 0.0);
        let p = pts(&[1.0, -1.0, 1.0]);
        assert_eq!(max_deviation(&line, &p).unwrap().index, 0);
    }

    #[test]
    fn sse_and_rmse() {
        let line = Line::new(0.0, 0.0);
        let p = pts(&[3.0, 4.0]);
        assert!((sse_deviation(&line, &p) - 25.0).abs() < 1e-12);
        assert!((rmse_deviation(&line, &p) - (12.5_f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmse_deviation(&line, &[]), 0.0);
    }

    #[test]
    fn zero_deviation_on_exact_fit() {
        let line = Line::new(2.0, 1.0); // y = 2t + 1
        let p: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 2.0 * i as f64 + 1.0)).collect();
        let d = max_deviation(&line, &p).unwrap();
        assert!(d.value < 1e-12);
    }
}
