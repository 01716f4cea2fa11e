//! Shared ground truth for the algebra-level property suites
//! (`prop_algebra.rs`, `prop_saql.rs`): a mixed corpus generator, a naive
//! leaf-scan + set-algebra oracle written without `MatchSet` (so the
//! engines' shared combinators are independently checked), `QueryExpr`
//! strategies, and the harness asserting every planner-backed engine
//! matches the oracle id-identically.

// Each integration-test crate pulls in the subset it needs.
#![allow(dead_code)]

use proptest::prelude::*;
use saq::archive::{ArchiveScanEngine, ArchiveStore, Medium};
use saq::core::algebra::{
    IndexCaps, Planner, Pred, PreparedPred, QueryEngine, QueryExpr, StoreEngine,
};
use saq::core::query::{ApproximateMatch, QueryOutcome};
use saq::core::store::{SequenceStore, StoreConfig, StoredEntry};
use saq::engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq::sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq::sequence::Sequence;
use std::collections::BTreeMap;

pub const GOALPOST: &str = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

pub fn mixed_sequence(kind: u64, seed: u64) -> Sequence {
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

/// Ingests the corpus into a representation store and a raw archive with
/// identical id → sequence mappings.
pub fn ingest(corpus: &[Sequence]) -> (SequenceStore, ArchiveStore) {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut archive = ArchiveStore::new(Medium::memory());
    for seq in corpus {
        let id = store.insert(seq).unwrap();
        archive.put(id, seq.clone());
    }
    (store, archive)
}

// ---------------------------------------------------------------------------
// The naive oracle: leaf scans + textbook set algebra.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    pub dev: f64,
    pub approx: bool,
}

pub type Set = BTreeMap<u64, Tier>;

fn naive_leaf(pred: &Pred, universe: &[u64], entries: &BTreeMap<u64, &StoredEntry>) -> Set {
    let prepared = PreparedPred::new(pred).expect("generated predicates are valid");
    let mut out = Set::new();
    for &id in universe {
        let verdict = prepared.matches(id, Some(entries[&id]));
        match verdict {
            Some(saq::core::SequenceMatch::Exact) => {
                out.insert(id, Tier { dev: 0.0, approx: false });
            }
            Some(saq::core::SequenceMatch::Approximate(dev)) => {
                out.insert(id, Tier { dev, approx: true });
            }
            None => {}
        }
    }
    out
}

pub fn naive_eval(
    expr: &QueryExpr,
    universe: &[u64],
    entries: &BTreeMap<u64, &StoredEntry>,
) -> Set {
    match expr {
        QueryExpr::Leaf(pred) => naive_leaf(pred, universe, entries),
        QueryExpr::And(children) => {
            let sets: Vec<Set> =
                children.iter().map(|c| naive_eval(c, universe, entries)).collect();
            let mut out = Set::new();
            'ids: for &id in universe {
                let mut dev = 0.0;
                let mut approx = false;
                for set in &sets {
                    match set.get(&id) {
                        Some(t) => {
                            dev += t.dev;
                            approx |= t.approx;
                        }
                        None => continue 'ids,
                    }
                }
                out.insert(id, Tier { dev, approx });
            }
            out
        }
        QueryExpr::Or(children) => {
            let sets: Vec<Set> =
                children.iter().map(|c| naive_eval(c, universe, entries)).collect();
            let mut out = Set::new();
            for &id in universe {
                let tiers: Vec<Tier> = sets.iter().filter_map(|s| s.get(&id).copied()).collect();
                if tiers.is_empty() {
                    continue;
                }
                let tier = if tiers.iter().any(|t| !t.approx) {
                    Tier { dev: 0.0, approx: false }
                } else {
                    Tier {
                        dev: tiers.iter().map(|t| t.dev).fold(f64::INFINITY, f64::min),
                        approx: true,
                    }
                };
                out.insert(id, tier);
            }
            out
        }
        QueryExpr::Not(child) => {
            let matched = naive_eval(child, universe, entries);
            universe
                .iter()
                .filter(|id| !matched.contains_key(id))
                .map(|&id| (id, Tier { dev: 0.0, approx: false }))
                .collect()
        }
        QueryExpr::Limit(child, n) => {
            let inner = naive_eval(child, universe, entries);
            canonical_order(&inner).into_iter().take(*n).map(|id| (id, inner[&id])).collect()
        }
        QueryExpr::TopK(child, k) => {
            let inner = naive_eval(child, universe, entries);
            let mut ranked: Vec<u64> = inner.keys().copied().collect();
            ranked.sort_by(|a, b| {
                let (ta, tb) = (inner[a], inner[b]);
                ta.dev.partial_cmp(&tb.dev).unwrap().then(ta.approx.cmp(&tb.approx)).then(a.cmp(b))
            });
            ranked.into_iter().take(*k).map(|id| (id, inner[&id])).collect()
        }
    }
}

/// Canonical result order: exact ids ascending, then approximate matches
/// by `(deviation, id)`.
pub fn canonical_order(set: &Set) -> Vec<u64> {
    let mut exact: Vec<u64> = set.iter().filter(|(_, t)| !t.approx).map(|(id, _)| *id).collect();
    let mut approx: Vec<u64> = set.iter().filter(|(_, t)| t.approx).map(|(id, _)| *id).collect();
    exact.sort_unstable();
    approx.sort_by(|a, b| set[a].dev.partial_cmp(&set[b].dev).unwrap().then(a.cmp(b)));
    exact.into_iter().chain(approx).collect()
}

pub fn to_outcome(set: Set) -> QueryOutcome {
    let mut exact = Vec::new();
    let mut approximate = Vec::new();
    for (id, tier) in &set {
        if tier.approx {
            approximate.push(ApproximateMatch { id: *id, deviation: tier.dev });
        } else {
            exact.push(*id);
        }
    }
    approximate
        .sort_by(|a, b| a.deviation.partial_cmp(&b.deviation).unwrap().then(a.id.cmp(&b.id)));
    QueryOutcome { exact, approximate }
}

/// The oracle outcome for an expression (leaves scanned over the full
/// universe, composed with set algebra on the normalized tree — the same
/// association order every engine uses).
pub fn oracle(expr: &QueryExpr, store: &SequenceStore) -> QueryOutcome {
    let universe = store.ids();
    let entries: BTreeMap<u64, &StoredEntry> =
        universe.iter().map(|&id| (id, store.get(id).unwrap())).collect();
    to_outcome(naive_eval(&Planner::normalize(expr), &universe, &entries))
}

// ---------------------------------------------------------------------------
// Expression strategy
// ---------------------------------------------------------------------------

pub fn leaf_strategy() -> BoxedStrategy<QueryExpr> {
    prop_oneof![
        Just(QueryExpr::shape(GOALPOST)),
        Just(QueryExpr::shape("0* 1+ (-1)+ 0*")),
        (0usize..4, 0usize..3).prop_map(|(c, t)| QueryExpr::peak_count(c, t)),
        (3i64..13, 0i64..4).prop_map(|(i, e)| QueryExpr::peak_interval(i, e)),
        (0u32..30, 0u32..6).prop_map(|(s, sl)| {
            QueryExpr::min_steepness(0.4 + s as f64 * 0.1, sl as f64 * 0.1)
        }),
        (0u32..30, 0u32..6).prop_map(|(s, sl)| {
            QueryExpr::has_steep_peak(0.4 + s as f64 * 0.1, sl as f64 * 0.1)
        }),
        (0u32..12, 0u32..8).prop_map(|(d, sl)| {
            QueryExpr::value_band(
                goalpost(GoalpostSpec::default()),
                d as f64 * 0.25,
                sl as f64 * 0.25,
            )
        }),
        (0u64..30, 0u64..30).prop_map(|(a, b)| QueryExpr::id_range(a.min(b), a.max(b))),
    ]
    .boxed()
}

pub fn expr_strategy() -> BoxedStrategy<QueryExpr> {
    leaf_strategy().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| a.and(b).and(c)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(QueryExpr::negate),
            (inner.clone(), 0usize..9).prop_map(|(a, n)| a.limit(n)),
            (inner, 1usize..9).prop_map(|(a, k)| a.top_k(k)),
        ]
    })
}

// ---------------------------------------------------------------------------
// The comparison harness
// ---------------------------------------------------------------------------

pub fn assert_all_engines_match(
    expr: &QueryExpr,
    store: &SequenceStore,
    archive: &ArchiveStore,
    worker_grid: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let expected = oracle(expr, store);

    let indexed = StoreEngine::new(store).execute(expr).unwrap();
    prop_assert_eq!(&indexed, &expected, "store engine (index pushdown) vs oracle: {:?}", expr);

    let scan_plan = Planner::new(IndexCaps::none()).plan(expr).unwrap();
    let (scan_only, _) = StoreEngine::new(store).run_plan(&scan_plan).unwrap();
    prop_assert_eq!(&scan_only, &expected, "store engine (scan only) vs oracle: {:?}", expr);

    let archive_seq =
        ArchiveScanEngine::new(archive, StoreConfig::default()).execute(expr).unwrap();
    prop_assert_eq!(&archive_seq, &expected, "sequential archive engine vs oracle: {:?}", expr);

    for &(workers, shards) in worker_grid {
        let sharded = ShardedEngine::new(EngineConfig { workers, shards }).unwrap();
        let out = sharded.bind(archive).execute(expr).unwrap();
        prop_assert_eq!(
            &out,
            &expected,
            "sharded engine ({} workers, {} shards) vs oracle: {:?}",
            workers,
            shards,
            expr
        );
    }
    Ok(())
}
