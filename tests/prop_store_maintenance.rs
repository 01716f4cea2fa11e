//! Incremental index maintenance ground truth: after an arbitrary
//! interleaving of `insert` / `remove` / `reinsert` on a [`SequenceStore`],
//! the store's [`IndexSet`] must be *identical* to one rebuilt from
//! scratch over the surviving entries — same documents, same postings,
//! same statistics — and query-algebra results over the mutated store must
//! match a pure scan oracle (so the incrementally maintained index paths
//! can never drift from the entries).

use proptest::prelude::*;
use saq::core::algebra::{IndexCaps, Planner, QueryEngine as _, QueryExpr, StoreEngine};
use saq::core::store::{SequenceStore, StoreConfig, StoredEntry};
use saq::index::{IndexDoc, IndexSet, SequenceIndex as _};
use saq::sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq::sequence::Sequence;
use std::collections::BTreeMap;

const GOALPOST: &str = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";

fn mixed_sequence(kind: u64, seed: u64) -> Sequence {
    match kind % 4 {
        0 => goalpost(GoalpostSpec { seed, noise: 0.15, ..GoalpostSpec::default() }),
        1 => peaks(PeaksSpec {
            centers: vec![4.0, 11.0, 19.0],
            seed,
            noise: 0.1,
            ..PeaksSpec::default()
        }),
        2 => peaks(PeaksSpec { centers: vec![12.0], seed, noise: 0.2, ..PeaksSpec::default() }),
        _ => random_walk(49, 0.0, 0.3, seed),
    }
}

/// One mutation of the interleaving. `pick` selects the victim of a
/// remove/reinsert among the live ids.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { kind: u64, seed: u64 },
    Remove { pick: u64 },
    Reinsert { pick: u64, kind: u64, seed: u64 },
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u64..4, 0u64..10_000).prop_map(|(kind, seed)| Op::Insert { kind, seed }),
        (0u64..64).prop_map(|pick| Op::Remove { pick }),
        (0u64..64, 0u64..4, 0u64..10_000).prop_map(|(pick, kind, seed)| Op::Reinsert {
            pick,
            kind,
            seed
        }),
    ]
    .boxed()
}

/// Applies the ops, mirroring the surviving raw sequences in `live`.
fn apply(ops: &[Op], store: &mut SequenceStore, live: &mut BTreeMap<u64, Sequence>) {
    for op in ops {
        match *op {
            Op::Insert { kind, seed } => {
                let seq = mixed_sequence(kind, seed);
                let id = store.insert(&seq).unwrap();
                live.insert(id, seq);
            }
            Op::Remove { pick } => {
                let Some(&id) = live.keys().nth(pick as usize % live.len().max(1)) else {
                    continue;
                };
                store.remove(id).unwrap();
                live.remove(&id);
            }
            Op::Reinsert { pick, kind, seed } => {
                let Some(&id) = live.keys().nth(pick as usize % live.len().max(1)) else {
                    continue;
                };
                let seq = mixed_sequence(kind, seed);
                store.reinsert(id, &seq).unwrap();
                live.insert(id, seq);
            }
        }
    }
}

/// The oracle: an [`IndexSet`] rebuilt from scratch over the live entries.
fn rebuild(live: &BTreeMap<u64, Sequence>, config: &StoreConfig) -> IndexSet {
    let mut set = IndexSet::new();
    for (&id, seq) in live {
        let entry = StoredEntry::compute(seq, config).unwrap();
        let buckets = entry.peaks.interval_buckets();
        set.insert_doc(
            id,
            &IndexDoc {
                symbols: &entry.symbols,
                interval_buckets: &buckets,
                peak_count: entry.peaks.len(),
            },
        );
    }
    set
}

/// Structural equality of the store's incrementally maintained indexes
/// against the rebuilt oracle.
fn assert_index_state_matches(
    store: &SequenceStore,
    oracle: &IndexSet,
    live: &BTreeMap<u64, Sequence>,
) -> Result<(), TestCaseError> {
    let set = store.index_set();
    prop_assert_eq!(set.doc_count(), live.len());
    prop_assert_eq!(set.doc_count(), oracle.doc_count());
    // Pattern index: same documents, id by id (and no stale survivors).
    for &id in live.keys() {
        prop_assert_eq!(
            set.pattern().symbols_of(id),
            oracle.pattern().symbols_of(id),
            "pattern doc of id {}",
            id
        );
    }
    prop_assert_eq!(set.pattern().len(), oracle.pattern().len());
    // Inverted file: identical bucket-by-bucket contents.
    prop_assert_eq!(set.interval().entries(), oracle.interval().entries());
    // Statistics snapshots (posting sizes, prefix counts, histograms).
    prop_assert_eq!(set.stats(), oracle.stats());
    Ok(())
}

/// Algebra results over the mutated store: the statistics-driven,
/// index-served engine must agree with a scan-only evaluation of the
/// same expressions (the naive oracle over the surviving entries).
fn assert_queries_match_scan_oracle(store: &SequenceStore) -> Result<(), TestCaseError> {
    let exprs = [
        QueryExpr::shape(GOALPOST),
        QueryExpr::peak_interval(8, 2),
        QueryExpr::peak_count(2, 1).and(QueryExpr::peak_interval(7, 2)),
        QueryExpr::shape(GOALPOST).or(QueryExpr::peak_count(1, 0)),
        QueryExpr::peak_count(3, 1).negate(),
    ];
    let engine = StoreEngine::new(store);
    let scan = Planner::new(IndexCaps::none());
    for expr in &exprs {
        prop_assert_eq!(
            engine.execute(expr).unwrap(),
            engine.run_plan(&scan.plan(expr).unwrap()).unwrap().0,
            "index-served vs scan oracle after mutations: {:?}",
            expr
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random insert/remove/reinsert interleavings: the incrementally
    /// maintained `IndexSet` equals a from-scratch rebuild, and queries
    /// over the mutated store match the scan oracle.
    #[test]
    fn interleaved_maintenance_matches_rebuild_oracle(
        ops in prop::collection::vec(op_strategy(), 4..40),
    ) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut live = BTreeMap::new();
        apply(&ops, &mut store, &mut live);
        let oracle = rebuild(&live, &store.config());
        assert_index_state_matches(&store, &oracle, &live)?;
        assert_queries_match_scan_oracle(&store)?;
    }
}

/// A deterministic worst-case interleaving: remove and reinsert every id
/// at least once, ending on a store whose every index entry was touched
/// by incremental maintenance rather than initial ingestion.
#[test]
fn churned_store_equals_rebuilt_store() {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut live = BTreeMap::new();
    let mut ops: Vec<Op> = (0..10).map(|i| Op::Insert { kind: i, seed: 100 + i }).collect();
    for pick in 0..10 {
        ops.push(Op::Reinsert { pick, kind: pick + 1, seed: 500 + pick });
    }
    for pick in (0..10).step_by(2) {
        ops.push(Op::Remove { pick });
    }
    apply(&ops, &mut store, &mut live);
    assert_eq!(store.len(), 5);
    let oracle = rebuild(&live, &store.config());
    assert_eq!(store.index_set().stats(), oracle.stats());
    assert_eq!(store.interval_index().entries(), oracle.interval().entries());
    // And an emptied store leaves no residue at all.
    for &id in live.clone().keys() {
        store.remove(id).unwrap();
    }
    assert!(store.index_set().is_empty());
    assert_eq!(store.index_stats(), saq::index::IndexStats::default());
}
