//! Generalized approximate queries (§2.2): the feature-query vocabulary
//! ([`QuerySpec`]) and the answer shape ([`QueryOutcome`]).
//!
//! A query specifies a value-independent pattern; the answer set `S` is
//! closed under feature-preserving transformations. A result is **exact** if
//! it is a member of `S`, and **approximate** if it deviates from the
//! specified features along one or more dimensions within per-dimension
//! metric tolerances ("each dimension corresponds to some feature").
//!
//! A [`QuerySpec`] is the payload of a feature leaf of the query algebra
//! ([`crate::algebra::Pred::Feature`]); its per-sequence semantics live in
//! [`crate::algebra::PreparedPred::matches`], and queries are asked through
//! [`crate::algebra::QueryEngine::request`].

/// A generalized approximate query.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// A shape query: the stored sequence's entire slope string must match
    /// the pattern (e.g. the goal-post query `0* 1+ (-1)+ 0* 1+ (-1)+ 0*`).
    Shape {
        /// Pattern in either `u/d/f` or the paper's `1/-1/0` notation.
        pattern: String,
    },
    /// "Exactly `count` peaks", with an approximation tolerance on the count
    /// dimension (0 = exact only).
    PeakCount {
        /// Desired number of peaks.
        count: usize,
        /// Allowed deviation in the count dimension.
        tolerance: usize,
    },
    /// "Distance exactly `n` between successive peaks" — the R–R interval
    /// query of §5.2, answered through the inverted-file index; `epsilon` is
    /// the paper's ± tolerance on the distance dimension.
    PeakInterval {
        /// Target interval (in time units, bucketed to integers).
        interval: i64,
        /// The ± tolerance ε.
        epsilon: i64,
    },
    /// Minimum steepness of every peak's flanks — the "steepness of the
    /// slopes" dimension of §2.2, with a relative tolerance.
    MinPeakSteepness {
        /// Required steepness (absolute slope).
        steepness: f64,
        /// Fractional slack for approximate matches (e.g. 0.2 = 20% shy).
        slack: f64,
    },
    /// "Sudden vigorous activity" (§1's seismic query): at least one peak
    /// whose flanks reach the required steepness.
    HasSteepPeak {
        /// Required steepness (absolute slope) of some peak.
        steepness: f64,
        /// Fractional slack for approximate matches.
        slack: f64,
    },
}

/// One approximate match and how far it deviates from the exact feature.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateMatch {
    /// Sequence id.
    pub id: u64,
    /// Deviation in the query's feature dimension (metric, ≥ 0); e.g. peak
    /// count off by `deviation`, or interval off by `deviation` time units.
    pub deviation: f64,
}

/// The result of evaluating a query: exact members of `S`, plus approximate
/// matches within tolerance (exact matches are *not* repeated there).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutcome {
    /// Ids whose features match exactly (members of the query's set `S`).
    pub exact: Vec<u64>,
    /// Ids within the approximation tolerance, with their deviations,
    /// sorted by increasing deviation then id.
    pub approximate: Vec<ApproximateMatch>,
}

impl QueryOutcome {
    /// All matching ids, exact first.
    pub fn all_ids(&self) -> Vec<u64> {
        let mut out = self.exact.clone();
        out.extend(self.approximate.iter().map(|m| m.id));
        out
    }
}

/// How a single stored sequence relates to a query's answer set `S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SequenceMatch {
    /// A member of the exact answer set.
    Exact,
    /// Within the approximation tolerance, at the given deviation.
    Approximate(f64),
}

/// Sorts approximate matches into the canonical result order — increasing
/// deviation, then id. The one definition every engine's outcome assembly
/// shares, so "identical outcomes" cannot drift.
pub fn sort_approximate_matches(matches: &mut [ApproximateMatch]) {
    matches.sort_by(|a, b| {
        a.deviation.partial_cmp(&b.deviation).expect("finite deviations").then(a.id.cmp(&b.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
    use crate::error::Result;
    use crate::store::{SequenceStore, StoreConfig};
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    fn run(store: &SequenceStore, spec: &QuerySpec) -> Result<QueryOutcome> {
        StoreEngine::new(store).execute(&QueryExpr::from(spec.clone()))
    }

    fn sort_outcome(outcome: &mut QueryOutcome) {
        outcome.exact.sort_unstable();
        sort_approximate_matches(&mut outcome.approximate);
    }

    /// Store with one 1-peak, two 2-peak, one 3-peak sequences.
    fn corpus() -> (SequenceStore, Vec<u64>) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        let one = peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() });
        let two_a = goalpost(GoalpostSpec::default());
        let two_b = goalpost(GoalpostSpec { peak1: 6.0, peak2: 16.0, ..GoalpostSpec::default() });
        let three = peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() });
        for s in [&one, &two_a, &two_b, &three] {
            ids.push(store.insert(s).unwrap());
        }
        (store, ids)
    }

    #[test]
    fn shape_query_goalpost() {
        let (store, ids) = corpus();
        let out = run(&store, &QuerySpec::Shape { pattern: "0* 1+ (-1)+ 0* 1+ (-1)+ 0*".into() })
            .unwrap();
        assert_eq!(out.exact, vec![ids[1], ids[2]]);
        assert!(out.approximate.is_empty());
    }

    #[test]
    fn shape_query_bad_pattern_errors() {
        let (store, _) = corpus();
        assert!(run(&store, &QuerySpec::Shape { pattern: "((".into() }).is_err());
    }

    #[test]
    fn peak_count_exact_and_approximate() {
        let (store, ids) = corpus();
        let out = run(&store, &QuerySpec::PeakCount { count: 2, tolerance: 1 }).unwrap();
        assert_eq!(out.exact, vec![ids[1], ids[2]]);
        let approx_ids: Vec<u64> = out.approximate.iter().map(|m| m.id).collect();
        assert_eq!(approx_ids, vec![ids[0], ids[3]]);
        for m in &out.approximate {
            assert_eq!(m.deviation, 1.0);
        }
        // Zero tolerance drops the approximate tier.
        let strict = run(&store, &QuerySpec::PeakCount { count: 2, tolerance: 0 }).unwrap();
        assert!(strict.approximate.is_empty());
        assert_eq!(strict.exact.len(), 2);
    }

    #[test]
    fn peak_interval_query() {
        let (store, ids) = corpus();
        // The default goalpost has peaks at ~8 and ~18 => interval ~10.
        let out = run(&store, &QuerySpec::PeakInterval { interval: 10, epsilon: 1 }).unwrap();
        assert!(out.all_ids().contains(&ids[1]), "{out:?}");
        // The 3-peak sequence has ~8h intervals; exact query at 8 finds it.
        let out8 = run(&store, &QuerySpec::PeakInterval { interval: 8, epsilon: 0 }).unwrap();
        assert!(out8.all_ids().contains(&ids[3]), "{out8:?}");
        assert!(out8.approximate.is_empty());
    }

    #[test]
    fn peak_interval_dedups_exact_over_approximate() {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        // 3 peaks => intervals ~[8, 8]; query 8 ± 2 must report the id once,
        // as exact.
        let id = store
            .insert(&peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() }))
            .unwrap();
        let out = run(&store, &QuerySpec::PeakInterval { interval: 8, epsilon: 2 }).unwrap();
        assert_eq!(out.exact, vec![id]);
        assert!(out.approximate.is_empty());
    }

    #[test]
    fn steepness_query() {
        let (store, _) = corpus();
        // Fever ramps are steep; tiny threshold matches everything with peaks.
        let loose =
            run(&store, &QuerySpec::MinPeakSteepness { steepness: 0.3, slack: 0.0 }).unwrap();
        assert_eq!(loose.exact.len(), 4);
        // Impossibly steep threshold matches nothing.
        let strict =
            run(&store, &QuerySpec::MinPeakSteepness { steepness: 1e6, slack: 0.0 }).unwrap();
        assert!(strict.exact.is_empty() && strict.approximate.is_empty());
    }

    #[test]
    fn has_steep_peak_is_existential() {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        // One tall steep peak plus one gentle peak: fails the universal
        // reading at high thresholds but passes the existential one.
        let mixed =
            peaks(PeaksSpec { centers: vec![6.0, 18.0], width: 1.0, ..PeaksSpec::default() });
        let gentle = peaks(PeaksSpec {
            centers: vec![12.0],
            width: 4.0,
            amplitude: 3.0,
            ..PeaksSpec::default()
        });
        let id_mixed = store.insert(&mixed).unwrap();
        store.insert(&gentle).unwrap();
        let threshold = 2.5;
        let universal =
            run(&store, &QuerySpec::MinPeakSteepness { steepness: threshold, slack: 0.0 }).unwrap();
        let existential =
            run(&store, &QuerySpec::HasSteepPeak { steepness: threshold, slack: 0.0 }).unwrap();
        assert!(existential.exact.contains(&id_mixed));
        assert!(universal.exact.len() <= existential.exact.len());
    }

    #[test]
    fn outcome_ordering_and_all_ids() {
        let mut out = QueryOutcome {
            exact: vec![3, 1],
            approximate: vec![
                ApproximateMatch { id: 9, deviation: 2.0 },
                ApproximateMatch { id: 4, deviation: 1.0 },
            ],
        };
        sort_outcome(&mut out);
        assert_eq!(out.exact, vec![1, 3]);
        assert_eq!(out.approximate[0].id, 4);
        assert_eq!(out.all_ids(), vec![1, 3, 4, 9]);
    }
}
