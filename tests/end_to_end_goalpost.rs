//! End-to-end integration: the §4.4 goal-post fever workflow across every
//! crate — generate, preprocess, ingest, index, query, verify closure under
//! feature-preserving transformations.

use saq::core::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
use saq::core::store::{SequenceStore, StoreConfig};
use saq::core::Transform;
use saq::preprocess::{add_gaussian_noise, Pipeline};
use saq::sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

const GOALPOST: &str = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";

#[test]
fn ward_query_full_pipeline() {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let pipeline = Pipeline::standard();

    // Two-peak patients (with sensor noise, cleaned by the pipeline)...
    let mut expected = Vec::new();
    for seed in 0..5u64 {
        let raw = add_gaussian_noise(
            &goalpost(GoalpostSpec { seed, ..GoalpostSpec::default() }),
            0.2,
            seed,
        );
        let clean = pipeline.apply(&raw);
        expected.push(store.insert(&clean).unwrap());
    }
    // ... and confounders.
    let one = pipeline.apply(&peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }));
    let three = pipeline
        .apply(&peaks(PeaksSpec { centers: vec![5.0, 12.0, 19.0], ..PeaksSpec::default() }));
    let id_one = store.insert(&one).unwrap();
    let id_three = store.insert(&three).unwrap();

    let outcome = StoreEngine::new(&store).execute(&QueryExpr::shape(GOALPOST)).unwrap();
    for id in &expected {
        assert!(outcome.exact.contains(id), "two-peak patient {id} missed");
    }
    assert!(!outcome.exact.contains(&id_one));
    assert!(!outcome.exact.contains(&id_three));
}

#[test]
fn query_closed_under_feature_preserving_transforms() {
    // §2.2's closure requirement, verified through the whole stack: every
    // figure-5 transformation of a member of S is still an exact match.
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let base = goalpost(GoalpostSpec::default());
    let mut ids = vec![store.insert(&base).unwrap()];
    for (_, t) in Transform::figure5_suite() {
        ids.push(store.insert(&t.apply(&base).unwrap()).unwrap());
    }
    let outcome = StoreEngine::new(&store).execute(&QueryExpr::shape(GOALPOST)).unwrap();
    for id in ids {
        assert!(outcome.exact.contains(&id), "transformed member {id} not exact");
    }
}

#[test]
fn approximate_tier_orders_by_deviation() {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let two = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
    let one =
        store.insert(&peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() })).unwrap();
    let four = store
        .insert(&peaks(PeaksSpec { centers: vec![3.0, 9.0, 15.0, 21.0], ..PeaksSpec::default() }))
        .unwrap();

    let out = StoreEngine::new(&store).execute(&QueryExpr::peak_count(2, 2)).unwrap();
    assert_eq!(out.exact, vec![two]);
    let ids: Vec<u64> = out.approximate.iter().map(|m| m.id).collect();
    assert_eq!(ids, vec![one, four], "sorted by deviation then id: {out:?}");
    assert!(out.approximate[0].deviation < out.approximate[1].deviation);
}

#[test]
fn representation_supports_drill_down_reconstruction() {
    // The paper keeps raw data archivally "when finer resolution is
    // needed"; the representation itself reconstructs within epsilon.
    let store_cfg = StoreConfig { epsilon: 0.5, ..StoreConfig::default() };
    let mut store = SequenceStore::new(store_cfg).unwrap();
    let log = goalpost(GoalpostSpec::default());
    let id = store.insert(&log).unwrap();
    let entry = store.get(id).unwrap();
    let dev = entry.series.max_deviation_from(&log);
    assert!(dev <= 0.5 + 1e-9, "representation dev {dev}");
    let rec = entry.series.reconstruct(log.len()).unwrap();
    assert_eq!(rec.len(), log.len());
}
