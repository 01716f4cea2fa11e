//! The textual query language over the paper's generalized approximate
//! queries — the §6 future work ("Define a query language that supports
//! generalized approximate queries").
//!
//! [`saql`] is **SAQL**, the textual surface of the full algebra:
//! `and`/`or`/`not` with precedence and parentheses, `limit`/`topk`
//! truncations, id ranges, value bands, and the feature clauses in the
//! constraint-per-dimension style the paper sketches (the user states the
//! shape and per-dimension error tolerances). See `docs/SAQL.md`; run text
//! through any engine with `QueryRequest::saql`.
//!
//! A conjunction is evaluated clause by clause; a sequence is an
//! **exact** result if exact in every clause, and **approximate** if it
//! matches every clause with at least one within-tolerance deviation (the
//! total deviation is the sum across dimensions — each dimension carries
//! its own metric, per §2.2). The tests below pin that reading end to end.

pub mod saql;

#[cfg(test)]
mod tests {
    use super::saql;
    use crate::algebra::{Pred, QueryEngine as _, QueryExpr, StoreEngine};
    use crate::query::{QueryOutcome, QuerySpec};
    use crate::request::QueryRequest;
    use crate::store::{SequenceStore, StoreConfig};
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    fn corpus() -> (SequenceStore, Vec<u64>) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        for seq in [
            peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }),
            goalpost(GoalpostSpec::default()),
            peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() }),
        ] {
            ids.push(store.insert(&seq).unwrap());
        }
        (store, ids)
    }

    fn run(store: &SequenceStore, text: &str) -> QueryOutcome {
        StoreEngine::new(store).request(&QueryRequest::saql(text)).unwrap().outcome
    }

    /// The feature specs of a flat conjunction, in source order.
    fn clauses(text: &str) -> Vec<QuerySpec> {
        let conjuncts = match saql::parse(text).unwrap() {
            QueryExpr::And(children) => children,
            leaf => vec![leaf],
        };
        conjuncts
            .into_iter()
            .map(|c| match c {
                QueryExpr::Leaf(Pred::Feature(spec)) => spec,
                other => panic!("expected a feature clause, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn parses_every_clause_kind() {
        let q = clauses(
            r#"shape "0* 1+ (-1)+ 0*" and peaks = 2 tol 1 and interval = 136 tol 3
               and steepness all >= 2.0 slack 0.25 and steepness any >= 5"#,
        );
        assert_eq!(q.len(), 5);
        assert!(matches!(q[0], QuerySpec::Shape { .. }));
        assert!(matches!(q[1], QuerySpec::PeakCount { count: 2, tolerance: 1 }));
        assert!(matches!(q[2], QuerySpec::PeakInterval { interval: 136, epsilon: 3 }));
        assert!(matches!(q[3], QuerySpec::MinPeakSteepness { .. }));
        assert!(matches!(q[4], QuerySpec::HasSteepPeak { .. }));
    }

    #[test]
    fn comments_and_case_insensitivity() {
        assert_eq!(clauses("PEAKS = 2 # the goal-post count\n").len(), 1);
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for (text, needle) in [
            ("", "empty"),
            ("shape pattern", "quoted"),
            ("peaks 2", "expected `=`"),
            ("peaks = 2.5", "integer"),
            ("steepness maybe >= 1", "`all` or `any`"),
            ("bogus = 1", "unknown clause"),
            ("peaks = 2 peaks = 3", "expected `and`"),
            (r#"shape "unterminated"#, "unterminated"),
        ] {
            let err = saql::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
        }
    }

    #[test]
    fn single_clause_runs_like_evaluate() {
        let (store, ids) = corpus();
        let out = run(&store, r#"shape "0* 1+ (-1)+ 0* 1+ (-1)+ 0*""#);
        assert_eq!(out.exact, vec![ids[1]]);
    }

    #[test]
    fn conjunction_intersects() {
        let (store, ids) = corpus();
        // Two peaks AND an inter-peak interval near 10h: only the goalpost.
        let out = run(&store, "peaks = 2 and interval = 10 tol 2");
        assert_eq!(out.exact, vec![ids[1]]);
        // Two peaks (tol 1) AND interval near 8: the 3-peak sequence
        // (interval-exact, count off by one) surfaces as approximate.
        let out = run(&store, "peaks = 2 tol 1 and interval = 8 tol 1");
        assert!(out.approximate.iter().any(|m| m.id == ids[2]), "{out:?}");
        assert!(!out.exact.contains(&ids[2]));
    }

    #[test]
    fn conjunction_requires_all_clauses() {
        let (store, ids) = corpus();
        // One peak AND three peaks: unsatisfiable.
        let out = run(&store, "peaks = 1 and peaks = 3");
        assert!(out.exact.is_empty() && out.approximate.is_empty());
        // One peak alone matches the single-peak sequence.
        let out = run(&store, "peaks = 1");
        assert_eq!(out.exact, vec![ids[0]]);
    }

    #[test]
    fn deviations_sum_across_dimensions() {
        let (store, ids) = corpus();
        // Count tol 2 + interval tol 3: the 3-peak sequence deviates by 1
        // in count and 2 in interval when asked for interval = 10.
        let out = run(&store, "peaks = 2 tol 2 and interval = 10 tol 3");
        if let Some(m) = out.approximate.iter().find(|m| m.id == ids[2]) {
            assert!(m.deviation >= 1.0, "{m:?}");
        }
    }
}
