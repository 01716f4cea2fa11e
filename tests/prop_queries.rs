//! Property-based tests of the store engine: agreement between the store's
//! indexed answers and first-principles recomputation, and soundness of
//! SAQL conjunctions.

use proptest::prelude::*;
use saq::core::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
use saq::core::request::QueryRequest;
use saq::core::store::{SequenceStore, StoreConfig};
use saq::sequence::generators::{peaks, PeaksSpec};
use saq::sequence::Sequence;

/// A corpus of peak trains with random peak counts (0..=4) and positions.
fn arb_corpus() -> impl Strategy<Value = Vec<(Sequence, usize)>> {
    prop::collection::vec(
        (0usize..=4, 0u64..1000).prop_map(|(k, seed)| {
            // Well-separated centers over 24h.
            let centers: Vec<f64> =
                (0..k).map(|i| 3.0 + i as f64 * (18.0 / (k as f64).max(4.0))).collect();
            let seq =
                peaks(PeaksSpec { centers, width: 0.9, noise: 0.0, seed, ..PeaksSpec::default() });
            (seq, k)
        }),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn peak_count_query_agrees_with_ground_truth(corpus in arb_corpus(), want in 0usize..=4) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut truth = Vec::new();
        for (seq, k) in &corpus {
            let id = store.insert(seq).unwrap();
            truth.push((id, *k));
        }
        let out = StoreEngine::new(&store).execute(&QueryExpr::peak_count(want, 0)).unwrap();
        for (id, k) in &truth {
            // Detected peak count equals constructed count on clean,
            // well-separated trains; so exact-match sets agree.
            prop_assert_eq!(
                out.exact.contains(id),
                *k == want,
                "id {} built with {} peaks, queried {}",
                id, k, want
            );
        }
    }

    #[test]
    fn shape_query_equals_dfa_on_stored_symbols(corpus in arb_corpus()) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        for (seq, _) in &corpus {
            ids.push(store.insert(seq).unwrap());
        }
        let pattern = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";
        let out = StoreEngine::new(&store).execute(&QueryExpr::shape(pattern)).unwrap();
        let dfa = saq::core::alphabet::parse_slope_pattern(pattern).unwrap().compile();
        for id in ids {
            let symbols = store.get(id).unwrap().symbols.clone();
            prop_assert_eq!(out.exact.contains(&id), dfa.is_match(&symbols));
        }
    }

    #[test]
    fn language_conjunction_is_intersection_of_clauses(
        corpus in arb_corpus(),
        a in 0usize..=4,
        b in 0usize..=4,
    ) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        for (seq, _) in &corpus {
            store.insert(seq).unwrap();
        }
        let engine = StoreEngine::new(&store);
        let qa = engine.execute(&QueryExpr::peak_count(a, 0)).unwrap();
        let qb = engine.execute(&QueryExpr::peak_count(b, 0)).unwrap();
        let both = engine
            .request(&QueryRequest::saql(format!("peaks = {a} and peaks = {b}")))
            .unwrap()
            .outcome;
        let expected: Vec<u64> = qa
            .exact
            .iter()
            .copied()
            .filter(|id| qb.exact.contains(id))
            .collect();
        prop_assert_eq!(both.exact, expected);
        prop_assert!(both.approximate.is_empty());
    }

    #[test]
    fn interval_query_hits_carry_in_band_intervals(
        corpus in arb_corpus(),
        target in 3i64..20,
        eps in 0i64..3,
    ) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        for (seq, _) in &corpus {
            store.insert(seq).unwrap();
        }
        let out = StoreEngine::new(&store).execute(&QueryExpr::peak_interval(target, eps)).unwrap();
        for id in out.all_ids() {
            let buckets = store.get(id).unwrap().peaks.interval_buckets();
            prop_assert!(
                buckets.iter().any(|b| (b - target).abs() <= eps),
                "id {} buckets {:?} vs {}±{}",
                id, buckets, target, eps
            );
        }
    }
}
