use crate::error::{Error, Result};
use crate::point::Point;
use crate::stats::SummaryStats;
use serde::{Deserialize, Serialize};
use std::ops::Index;

/// An ordered sequence of timestamped samples.
///
/// Invariants (enforced on construction):
/// * timestamps are strictly increasing,
/// * every coordinate is finite.
///
/// `Sequence` is the raw-data side of the paper's world: what gets archived
/// on slow media and what the breaking algorithms of `saq-core` consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequence {
    points: Vec<Point>,
}

impl Sequence {
    /// Builds a sequence from points, validating the invariants.
    pub fn new(points: Vec<Point>) -> Result<Self> {
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(Error::NonFinite { index: i });
            }
            if i > 0 && points[i - 1].t >= p.t {
                return Err(Error::NonMonotonicTime { index: i });
            }
        }
        Ok(Sequence { points })
    }

    /// Builds a uniformly sampled sequence from raw values: point `i` gets
    /// timestamp `t0 + i * dt`.
    ///
    /// # Panics
    /// Panics if `dt <= 0`, which is a programming error rather than data
    /// dependent.
    pub fn from_values(t0: f64, dt: f64, values: &[f64]) -> Result<Self> {
        assert!(dt > 0.0, "sampling interval must be positive");
        let points =
            values.iter().enumerate().map(|(i, &v)| Point::new(t0 + i as f64 * dt, v)).collect();
        Sequence::new(points)
    }

    /// Builds a sequence sampled at integer times `0, 1, 2, ...`.
    pub fn from_samples(values: &[f64]) -> Result<Self> {
        Sequence::from_values(0.0, 1.0, values)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sequence holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow the underlying points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The raw values (ignoring timestamps), as a fresh vector.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.v).collect()
    }

    /// The timestamps, as a fresh vector.
    pub fn times(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.t).collect()
    }

    /// First point, if any.
    #[inline]
    pub fn first(&self) -> Option<&Point> {
        self.points.first()
    }

    /// Last point, if any.
    #[inline]
    pub fn last(&self) -> Option<&Point> {
        self.points.last()
    }

    /// Point at index `i`, if present.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Point> {
        self.points.get(i)
    }

    /// Time span `(start, end)`.
    pub fn span(&self) -> Result<(f64, f64)> {
        match (self.first(), self.last()) {
            (Some(a), Some(b)) => Ok((a.t, b.t)),
            _ => Err(Error::Empty),
        }
    }

    /// Duration covered (`end - start`), zero for singletons.
    pub fn duration(&self) -> Result<f64> {
        self.span().map(|(a, b)| b - a)
    }

    /// Iterate over points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Maximum pointwise (L∞) distance of the values of two equally long
    /// sequences; `None` when the lengths differ. This is the one
    /// definition of the value-band distance (the paper's Fig. 1) shared
    /// by the baseline comparators and the query algebra's `ValueBand`
    /// leaf, so the two can never drift apart.
    pub fn linf_distance(&self, other: &Sequence) -> Option<f64> {
        if self.len() != other.len() {
            return None;
        }
        Some(
            self.points
                .iter()
                .zip(&other.points)
                .map(|(p, q)| (p.v - q.v).abs())
                .fold(0.0, f64::max),
        )
    }

    /// A sub-sequence view over point indices `[lo, hi)` copied into a new
    /// sequence. Index slicing (not time slicing); see [`Sequence::window_by_time`].
    pub fn slice(&self, lo: usize, hi: usize) -> Result<Sequence> {
        if lo >= hi || hi > self.points.len() {
            return Err(Error::TooShort {
                required: hi.saturating_sub(lo).max(1),
                actual: self.points.len(),
            });
        }
        // Invariants hold on any contiguous sub-range.
        Ok(Sequence { points: self.points[lo..hi].to_vec() })
    }

    /// Points whose timestamps fall in `[t_lo, t_hi]`.
    pub fn window_by_time(&self, t_lo: f64, t_hi: f64) -> Sequence {
        let points = self.points.iter().filter(|p| p.t >= t_lo && p.t <= t_hi).copied().collect();
        Sequence { points }
    }

    /// Applies `f` to every value, keeping timestamps.
    ///
    /// Returns an error if `f` produces a non-finite value.
    pub fn map_values<F: FnMut(f64) -> f64>(&self, mut f: F) -> Result<Sequence> {
        let points: Vec<Point> = self.points.iter().map(|p| Point::new(p.t, f(p.v))).collect();
        Sequence::new(points)
    }

    /// Applies `f` to every timestamp, keeping values. The mapping must be
    /// strictly increasing; this is re-validated.
    pub fn map_times<F: FnMut(f64) -> f64>(&self, mut f: F) -> Result<Sequence> {
        let points: Vec<Point> = self.points.iter().map(|p| Point::new(f(p.t), p.v)).collect();
        Sequence::new(points)
    }

    /// Descriptive statistics over the values.
    pub fn stats(&self) -> SummaryStats {
        SummaryStats::of(&self.points)
    }

    /// Index of the point with the maximal value (first such index).
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, p) in self.points.iter().enumerate() {
            if best.is_none_or(|b| p.v > self.points[b].v) {
                best = Some(i);
            }
        }
        best
    }

    /// Index of the point with the minimal value (first such index).
    pub fn argmin(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, p) in self.points.iter().enumerate() {
            if best.is_none_or(|b| p.v < self.points[b].v) {
                best = Some(i);
            }
        }
        best
    }

    /// Inserts a point, keeping timestamps strictly increasing.
    ///
    /// Used by the robustness experiments of §5.1: adding one
    /// behaviour-preserving element must shift breakpoints by at most one.
    pub fn insert(&self, p: Point) -> Result<Sequence> {
        if !p.is_finite() {
            return Err(Error::NonFinite { index: 0 });
        }
        let mut points = self.points.clone();
        let pos = points.partition_point(|q| q.t < p.t);
        if pos < points.len() && points[pos].t == p.t {
            return Err(Error::NonMonotonicTime { index: pos });
        }
        points.insert(pos, p);
        Ok(Sequence { points })
    }

    /// Removes the point at `index`.
    pub fn remove(&self, index: usize) -> Result<Sequence> {
        if index >= self.points.len() {
            return Err(Error::TooShort { required: index + 1, actual: self.points.len() });
        }
        let mut points = self.points.clone();
        points.remove(index);
        Ok(Sequence { points })
    }

    /// Concatenates `other` after `self`; `other` must start strictly after
    /// `self` ends.
    pub fn concat(&self, other: &Sequence) -> Result<Sequence> {
        let mut points = self.points.clone();
        points.extend_from_slice(&other.points);
        Sequence::new(points)
    }
}

impl Index<usize> for Sequence {
    type Output = Point;
    fn index(&self, i: usize) -> &Point {
        &self.points[i]
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// Incremental builder for sequences, useful for generators and streaming
/// sources (the on-line breaking algorithms consume points one at a time).
#[derive(Debug, Default, Clone)]
pub struct SequenceBuilder {
    points: Vec<Point>,
}

impl SequenceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SequenceBuilder::default()
    }

    /// Creates a builder with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        SequenceBuilder { points: Vec::with_capacity(n) }
    }

    /// Appends a point; it must be finite and strictly after the current tail.
    pub fn push(&mut self, t: f64, v: f64) -> Result<&mut Self> {
        let p = Point::new(t, v);
        if !p.is_finite() {
            return Err(Error::NonFinite { index: self.points.len() });
        }
        if let Some(last) = self.points.last() {
            if last.t >= t {
                return Err(Error::NonMonotonicTime { index: self.points.len() });
            }
        }
        self.points.push(p);
        Ok(self)
    }

    /// Number of points accumulated so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Finalizes into a [`Sequence`]. Infallible because `push` validated.
    pub fn build(self) -> Sequence {
        Sequence { points: self.points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(vals: &[f64]) -> Sequence {
        Sequence::from_samples(vals).unwrap()
    }

    #[test]
    fn from_values_assigns_uniform_times() {
        let s = Sequence::from_values(10.0, 0.5, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.times(), vec![10.0, 10.5, 11.0]);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn rejects_non_monotonic_times() {
        let pts = vec![Point::new(0.0, 1.0), Point::new(0.0, 2.0)];
        assert!(matches!(Sequence::new(pts), Err(Error::NonMonotonicTime { index: 1 })));
    }

    #[test]
    fn rejects_non_finite() {
        let pts = vec![Point::new(0.0, f64::NAN)];
        assert!(matches!(Sequence::new(pts), Err(Error::NonFinite { index: 0 })));
    }

    #[test]
    fn span_and_duration() {
        let s = seq(&[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(s.span().unwrap(), (0.0, 3.0));
        assert_eq!(s.duration().unwrap(), 3.0);
        assert!(Sequence::new(vec![]).unwrap().span().is_err());
    }

    #[test]
    fn slice_copies_range() {
        let s = seq(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let sub = s.slice(1, 4).unwrap();
        assert_eq!(sub.values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(sub.times(), vec![1.0, 2.0, 3.0]);
        assert!(s.slice(3, 3).is_err());
        assert!(s.slice(3, 99).is_err());
    }

    #[test]
    fn window_by_time_filters_inclusively() {
        let s = seq(&[0.0, 1.0, 2.0, 3.0]);
        let w = s.window_by_time(1.0, 2.0);
        assert_eq!(w.values(), vec![1.0, 2.0]);
    }

    #[test]
    fn argmax_argmin() {
        let s = seq(&[1.0, 9.0, -3.0, 9.0]);
        assert_eq!(s.argmax(), Some(1));
        assert_eq!(s.argmin(), Some(2));
        assert_eq!(Sequence::new(vec![]).unwrap().argmax(), None);
    }

    #[test]
    fn insert_keeps_order() {
        let s = seq(&[0.0, 2.0]); // times 0,1
        let s2 = s.insert(Point::new(0.5, 1.0)).unwrap();
        assert_eq!(s2.times(), vec![0.0, 0.5, 1.0]);
        assert!(s.insert(Point::new(1.0, 5.0)).is_err()); // duplicate time
    }

    #[test]
    fn remove_point() {
        let s = seq(&[0.0, 1.0, 2.0]);
        let s2 = s.remove(1).unwrap();
        assert_eq!(s2.values(), vec![0.0, 2.0]);
        assert!(s.remove(9).is_err());
    }

    #[test]
    fn concat_requires_ordering() {
        let a = seq(&[1.0, 2.0]);
        let b = Sequence::from_values(10.0, 1.0, &[3.0]).unwrap();
        assert_eq!(a.concat(&b).unwrap().len(), 3);
        assert!(b.concat(&a).is_err());
    }

    #[test]
    fn map_values_and_times() {
        let s = seq(&[1.0, 2.0]);
        let doubled = s.map_values(|v| v * 2.0).unwrap();
        assert_eq!(doubled.values(), vec![2.0, 4.0]);
        let shifted = s.map_times(|t| t + 100.0).unwrap();
        assert_eq!(shifted.times(), vec![100.0, 101.0]);
        // A decreasing time map is rejected.
        assert!(s.map_times(|t| -t).is_err());
    }

    #[test]
    fn builder_validates_and_builds() {
        let mut b = SequenceBuilder::with_capacity(3);
        b.push(0.0, 1.0).unwrap();
        b.push(1.0, 2.0).unwrap();
        assert!(b.push(1.0, 3.0).is_err());
        assert!(b.push(2.0, f64::NAN).is_err());
        b.push(2.0, 3.0).unwrap();
        let s = b.build();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn indexing_and_iteration() {
        let s = seq(&[4.0, 5.0]);
        assert_eq!(s[1].v, 5.0);
        let total: f64 = (&s).into_iter().map(|p| p.v).sum();
        assert_eq!(total, 9.0);
    }

    #[test]
    fn clone_equality() {
        let s = seq(&[1.0, 2.0, 3.0]);
        let t = s.clone();
        assert_eq!(s, t);
        let u = s.map_values(|v| v + 1.0).unwrap();
        assert_ne!(s, u);
    }
}
