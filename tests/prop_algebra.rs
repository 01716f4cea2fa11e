//! The query algebra's ground truth: for random `QueryExpr` trees over
//! random corpora, every planner-backed engine — the index-pushdown store
//! engine, the scan-only store engine, the sequential archive engine, and
//! the sharded parallel engine at several worker/shard counts — must
//! return results **id-identical** (same ids, same tiers, same deviations,
//! same order) to a naive oracle that evaluates every leaf by scanning the
//! whole universe and composes the results with plain set algebra.
//!
//! The corpus generator, the oracle, the expression strategies, and the
//! all-engines harness live in `tests/common/mod.rs`, shared with the
//! SAQL round-trip suite (`prop_saql.rs`).
//!
//! Beyond outcomes, every local engine must answer a `QueryRequest` by
//! the same rules — pin checked before the body is parsed, explain
//! annotated with observed cardinalities, the served snapshot named in
//! the response (`requests_follow_one_pipeline_on_every_engine`).

mod common;

use common::{assert_all_engines_match, expr_strategy, ingest, mixed_sequence, GOALPOST};
use proptest::prelude::*;
use saq::archive::ArchiveScanEngine;
use saq::core::algebra::{QueryEngine, QueryExpr, StoreEngine};
use saq::core::lang::saql;
use saq::core::store::StoreConfig;
use saq::core::{QueryRequest, SnapshotRef};
use saq::engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq::sequence::generators::{goalpost, GoalpostSpec};
use saq::sequence::Sequence;

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// The acceptance gate: a fixed 60-sequence corpus, compound expressions
/// exercising every node type, every engine, workers 1/2/4/8.
#[test]
fn compound_expressions_identical_across_all_engines() {
    let corpus: Vec<Sequence> = (0..60).map(|i| mixed_sequence(i, 4000 + i)).collect();
    let (store, archive) = ingest(&corpus);
    let exprs = [
        QueryExpr::shape(GOALPOST).and(QueryExpr::peak_interval(8, 2)),
        QueryExpr::peak_count(2, 1)
            .and(QueryExpr::peak_interval(7, 2))
            .and(QueryExpr::id_range(5, 45)),
        QueryExpr::peak_count(3, 1).or(QueryExpr::shape(GOALPOST)).negate(),
        QueryExpr::peak_count(2, 1)
            .and(QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.0, 1.0).negate()),
        QueryExpr::peak_count(2, 2).top_k(7),
        QueryExpr::peak_count(2, 2).limit(5).or(QueryExpr::has_steep_peak(1.0, 0.3).limit(3)),
        QueryExpr::id_range(10, 40)
            .and(QueryExpr::peak_count(1, 2).and(QueryExpr::min_steepness(0.6, 0.4))),
        // Extreme intervals: deviations compare as unsigned, never overflow.
        saql::parse("interval = -9223372036854775808").unwrap(),
        saql::parse("interval = -9223372036854775808 tol 9223372036854775807").unwrap(),
    ];
    for expr in &exprs {
        assert_all_engines_match(expr, &store, &archive, &[(1, 1), (2, 8), (4, 16), (8, 64)])
            .unwrap();
    }
}

/// Cross-engine request conformance: the pipeline around planning and
/// execution behaves identically whichever engine answers.
#[test]
fn requests_follow_one_pipeline_on_every_engine() {
    let corpus: Vec<Sequence> = (0..24).map(|i| mixed_sequence(i, 7000 + i)).collect();
    let (store, archive) = ingest(&corpus);
    let store_snap = store.snapshot();
    let store_ref = SnapshotRef::new(store_snap.instance_id(), store_snap.generation());
    let archive_snap = archive.snapshot();
    let archive_ref = SnapshotRef::new(archive_snap.instance_id(), archive_snap.generation());
    let sharded = ShardedEngine::new(EngineConfig::default()).unwrap();

    let engines: [(&str, &dyn QueryEngine, SnapshotRef); 5] = [
        ("StoreEngine", &StoreEngine::new(&store), store_ref),
        ("StoreSnapshot", &store_snap, store_ref),
        (
            "ArchiveScanEngine",
            &ArchiveScanEngine::new(&archive, StoreConfig::default()),
            archive_ref,
        ),
        ("sharded bind", &sharded.bind(&archive), archive_ref),
        ("sharded bind_snapshot", &sharded.bind_snapshot(archive_snap.clone()), archive_ref),
    ];
    for (name, engine, current) in engines {
        let stale = SnapshotRef::new(current.instance, current.generation + 1);
        // (a) The pin is checked before the body is parsed.
        let err = engine.request(&QueryRequest::saql("peaks 2").pinned(stale)).unwrap_err();
        assert_eq!(err.code(), 8, "{name}: stale pin + malformed SAQL -> {err}");
        // (b) A matching pin lets the parse error through.
        let err = engine.request(&QueryRequest::saql("peaks 2").pinned(current)).unwrap_err();
        assert_eq!(err.code(), 7, "{name}: good pin + malformed SAQL -> {err}");
        // (c) Explain carries what each evaluated leaf observed — with an
        // estimate beside it or without — and (d) the response names the
        // snapshot it was answered from.
        let queries =
            [("peaks = 2 tol 1 and steepness any >= 0.5 slack 0.2", 2), ("peaks = 2 tol 1", 1)];
        for (saql, leaf_count) in queries {
            let resp = engine.request(&QueryRequest::saql(saql).with_explain()).unwrap();
            assert!(!resp.outcome.all_ids().is_empty(), "{name}: `{saql}` matches something");
            let explain = resp.explain.expect("explain was requested");
            let leaves: Vec<&str> =
                explain.lines().filter(|l| l.trim_start().starts_with('#')).collect();
            assert_eq!(leaves.len(), leaf_count, "{name}: `{saql}` explain:\n{explain}");
            for leaf in leaves {
                assert!(leaf.contains("(observed "), "{name}: `{saql}` explain:\n{explain}");
            }
            assert_eq!(resp.snapshot, Some(current), "{name}: `{saql}`");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random trees, random corpora, random worker/shard splits; the
    /// sharded engine's per-leaf observed cardinalities stay within the
    /// universe.
    #[test]
    fn random_trees_identical_across_all_engines(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 8..28),
        expr in expr_strategy(),
        workers in 1usize..6,
        shards in 1usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, archive) = ingest(&corpus);
        assert_all_engines_match(&expr, &store, &archive, &[(workers, shards)])?;

        let sharded =
            ShardedEngine::new(EngineConfig { workers, shards, ..EngineConfig::default() })
                .unwrap();
        let resp = sharded.bind(&archive).request(&QueryRequest::expr(expr.clone()).with_stats());
        let universe = corpus.len() as u64;
        for observed in resp.unwrap().stats.unwrap().observed.iter().flatten() {
            prop_assert!(
                *observed <= universe,
                "observed {} exceeds universe {}: {:?}", observed, universe, expr
            );
        }
    }
}
