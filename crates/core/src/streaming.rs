//! Incremental re-representation for streaming appends.
//!
//! The paper's data arrives over time — "sequences are recorded over
//! long periods" — yet the batch pipeline re-breaks a whole sequence on
//! every change. This module exploits a property of the online breaker
//! (§5.1) to do better: [`OnlineBreaker`] decides every breakpoint from
//! the points of the *current* segment alone (its regression state,
//! scale, and window all reset at each break), so once a segment is
//! closed, no later point can reopen it. Only the final segment of a
//! representation is still "open" — the breaker might yet extend or
//! split it as points arrive.
//!
//! [`append_entry`] therefore splices: it keeps every closed segment of
//! the stored representation verbatim, re-breaks only from the open
//! segment's first point across the appended points, refits just those
//! suffix segments, and re-derives the (cheap, O(#segments)) symbol
//! string and peak table from the spliced series. By the segment-locality
//! argument above, the result is **byte-identical** to running
//! [`StoredEntry::compute`] on the extended sequence from scratch — the
//! invariant `tests/prop_streaming.rs` locks down against a rebuild
//! oracle at every generation.

use crate::error::{Error, Result};
use crate::repr::LinearSeries;
use crate::store::{derive_features, BreakerKind, StoreConfig, StoredEntry};
use crate::{brk::OnlineBreaker, Breaker};
use saq_curves::RegressionFitter;
use saq_sequence::{Point, Sequence};
use std::sync::Arc;

/// How much work one [`append_entry`] splice actually did — the counters
/// the streaming experiments assert stay asymptotically below a batch
/// re-run (`exp_streaming`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceReport {
    /// Index of the first re-broken point (the open segment's start).
    pub splice_index: usize,
    /// Closed segments reused verbatim from the stored representation.
    pub reused_segments: usize,
    /// Points the breaker re-examined: the open suffix plus the appended
    /// points. A batch re-run would examine the whole extended sequence.
    pub rebroken_points: usize,
    /// Total points after the append.
    pub total_points: usize,
}

impl SpliceReport {
    /// A report for a path that recomputed everything (offline breaker).
    fn full(total_points: usize) -> SpliceReport {
        SpliceReport {
            splice_index: 0,
            reused_segments: 0,
            rebroken_points: total_points,
            total_points,
        }
    }
}

/// Extends a stored entry with `points`, re-breaking only the affected
/// suffix when `config.breaker` is [`BreakerKind::Online`] (see the
/// module docs for why that is sound). Returns the new entry and the
/// work report. The entry must retain its raw sequence (`keep_raw`), the
/// appended timestamps must continue strictly increasing, and `points`
/// must be non-empty.
pub fn append_entry(
    entry: &StoredEntry,
    points: &[Point],
    config: &StoreConfig,
) -> Result<(StoredEntry, SpliceReport)> {
    if points.is_empty() {
        return Err(Error::EmptyInput);
    }
    let raw = entry.raw.as_ref().ok_or_else(|| {
        Error::BadConfig(
            "append_points needs keep_raw: the raw sequence is what gets extended".into(),
        )
    })?;
    // Validates the new chunk (finite, strictly increasing) and the
    // boundary (first new timestamp after the last stored one).
    let extended = raw.concat(&Sequence::new(points.to_vec())?)?;
    extend_entry(entry, extended, config)
}

/// As [`append_entry`], for entries *without* a retained raw sequence:
/// the caller supplies the whole extended sequence (the stored points
/// followed by the new ones) from its own raw tier — this is how a
/// `keep_raw: false` representation store rides a raw archive's append.
/// The prefix is checked against the stored representation's length and
/// final point; a mismatched prefix is rejected, since splicing it would
/// silently misattribute segments.
pub fn extend_entry(
    entry: &StoredEntry,
    extended: Sequence,
    config: &StoreConfig,
) -> Result<(StoredEntry, SpliceReport)> {
    let stored = entry.series.original_len();
    if extended.len() <= stored {
        return Err(Error::BadConfig(format!(
            "extended sequence has {} points but the stored representation covers {stored}",
            extended.len()
        )));
    }
    let last = entry.series.segments().last().expect("series are never empty").end;
    let boundary = extended.points()[stored - 1];
    if boundary.t != last.t {
        return Err(Error::BadConfig(format!(
            "extended sequence departs from the stored prefix at point {} (t {} vs {})",
            stored - 1,
            boundary.t,
            last.t
        )));
    }

    if config.breaker != BreakerKind::Online {
        // No stable suffix to splice at: recompute the whole sequence.
        let total = extended.len();
        let next = StoredEntry::compute_shared(&Arc::new(extended), config)?;
        return Ok((next, SpliceReport::full(total)));
    }

    // The open segment starts the re-broken suffix; everything before it
    // is closed and final.
    let segments = entry.series.segments();
    let splice = segments.last().map_or(0, |open| open.start_index);
    let reused = segments.len().saturating_sub(1);

    // Re-break the suffix exactly as a from-scratch run would cover it:
    // the breaker's state at the open segment's first point is the fresh
    // state it resets to at every break.
    let suffix = Sequence::new(extended.points()[splice..].to_vec())?;
    let ranges = OnlineBreaker::new(config.epsilon).break_ranges(&suffix);
    let refit = LinearSeries::build(&suffix, &ranges, &RegressionFitter)?;

    // Splice: closed prefix segments verbatim, suffix segments shifted
    // into the extended sequence's index space.
    let mut spliced = segments[..reused].to_vec();
    spliced.extend(refit.segments().iter().cloned().map(|mut seg| {
        seg.start_index += splice;
        seg.end_index += splice;
        seg
    }));
    let series = LinearSeries::from_segments(spliced, extended.len())?;
    let (symbols, peaks) = derive_features(&series, config.theta);

    let report = SpliceReport {
        splice_index: splice,
        reused_segments: reused,
        rebroken_points: suffix.len(),
        total_points: extended.len(),
    };
    let next =
        StoredEntry { series, symbols, peaks, raw: config.keep_raw.then(|| Arc::new(extended)) };
    Ok((next, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_sequence::generators::{goalpost, GoalpostSpec};

    fn walk(seed: u64, n: usize, t0: f64) -> Vec<Point> {
        // A deterministic random walk; xorshift keeps it dependency-free.
        let mut state = seed | 1;
        let mut v = 0.0f64;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v += ((state % 1000) as f64 / 500.0) - 1.0;
                Point::new(t0 + i as f64, v)
            })
            .collect()
    }

    #[test]
    fn splice_matches_from_scratch_compute() {
        let config = StoreConfig::streaming();
        let base = walk(7, 40, 0.0);
        let mut entry =
            StoredEntry::compute(&Sequence::new(base.clone()).unwrap(), &config).unwrap();
        let mut all = base;
        for wave in 0..12 {
            let next = walk(1000 + wave, 1 + (wave as usize * 7) % 23, all.len() as f64);
            all.extend_from_slice(&next);
            let (spliced, report) = append_entry(&entry, &next, &config).unwrap();
            let oracle =
                StoredEntry::compute(&Sequence::new(all.clone()).unwrap(), &config).unwrap();
            assert_eq!(spliced.series, oracle.series, "wave {wave}: series splice diverged");
            assert_eq!(spliced.symbols, oracle.symbols, "wave {wave}");
            assert_eq!(spliced.peaks, oracle.peaks, "wave {wave}");
            assert_eq!(spliced.raw.as_ref().unwrap().points(), all.as_slice());
            assert!(report.rebroken_points <= all.len());
            assert_eq!(report.total_points, all.len());
            entry = spliced;
        }
        // After enough waves the splice must actually be reusing work.
        assert!(entry.series.segment_count() > 2);
    }

    #[test]
    fn splice_reuses_closed_segments() {
        let config = StoreConfig::streaming();
        let base = walk(3, 300, 0.0);
        let entry = StoredEntry::compute(&Sequence::new(base.clone()).unwrap(), &config).unwrap();
        let tail = walk(99, 5, 300.0);
        let (_, report) = append_entry(&entry, &tail, &config).unwrap();
        assert_eq!(report.reused_segments, entry.series.segment_count() - 1);
        assert!(
            report.rebroken_points < 305 / 2,
            "suffix re-break must not touch the whole sequence: {report:?}"
        );
        assert_eq!(report.splice_index + report.rebroken_points, 305);
    }

    #[test]
    fn offline_config_falls_back_to_full_recompute() {
        let config = StoreConfig::default();
        let seq = goalpost(GoalpostSpec::default());
        let entry = StoredEntry::compute(&seq, &config).unwrap();
        let tail = [Point::new(seq.points().last().unwrap().t + 1.0, 0.5)];
        let (next, report) = append_entry(&entry, &tail, &config).unwrap();
        let mut all = seq.points().to_vec();
        all.extend_from_slice(&tail);
        let oracle = StoredEntry::compute(&Sequence::new(all).unwrap(), &config).unwrap();
        assert_eq!(next.series, oracle.series);
        assert_eq!(report.reused_segments, 0);
        assert_eq!(report.rebroken_points, report.total_points);
    }

    #[test]
    fn append_rejects_bad_input() {
        let config = StoreConfig::streaming();
        let seq = goalpost(GoalpostSpec::default());
        let entry = StoredEntry::compute(&seq, &config).unwrap();
        assert!(append_entry(&entry, &[], &config).is_err(), "empty appends rejected");
        let stale = [Point::new(0.0, 1.0)];
        assert!(append_entry(&entry, &stale, &config).is_err(), "non-monotonic time rejected");
        let rawless = StoredEntry { raw: None, ..entry.clone() };
        let fresh = [Point::new(1e9, 1.0)];
        assert!(append_entry(&rawless, &fresh, &config).is_err(), "keep_raw required");
    }
}
