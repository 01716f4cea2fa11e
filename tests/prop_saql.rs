//! SAQL round-trip ground truth: for random `QueryExpr` trees,
//! `parse(print(expr))` must be the *identical* tree — same structure,
//! bit-identical numbers — which is checked three ways:
//!
//! 1. structural equality of the re-parsed tree,
//! 2. verbatim-equal physical plans (`explain` output, statistics-backed
//!    planner included), and
//! 3. the re-parsed tree run through **every** engine (index-pushdown
//!    store, scan-only store, sequential archive, sharded parallel)
//!    against the naive set-algebra oracle of `tests/common/mod.rs` — the
//!    same oracle the algebra itself is verified against.

mod common;

use common::{assert_all_engines_match, expr_strategy, ingest, mixed_sequence, oracle, GOALPOST};
use proptest::prelude::*;
use saq::core::algebra::{IndexCaps, PlanStats, Planner, QueryEngine, QueryExpr, StoreEngine};
use saq::core::lang::saql;
use saq::core::QueryRequest;
use saq::sequence::Sequence;

/// Deterministic gate: compound expressions covering every node type
/// round-trip and the re-parsed tree matches the oracle on all engines.
#[test]
fn compound_expressions_round_trip_and_match_the_oracle() {
    let corpus: Vec<Sequence> = (0..40).map(|i| mixed_sequence(i, 7000 + i)).collect();
    let (store, archive) = ingest(&corpus);
    let exprs = [
        QueryExpr::shape(GOALPOST).and(QueryExpr::peak_interval(8, 2)).top_k(5),
        QueryExpr::peak_count(2, 1)
            .or(QueryExpr::peak_count(3, 0))
            .and(QueryExpr::id_range(5, 25).negate()),
        QueryExpr::peak_count(1, 0).limit(3).or(QueryExpr::has_steep_peak(1.0, 0.3).limit(2)),
        QueryExpr::min_steepness(0.6, 0.25).negate().negate(),
        QueryExpr::peak_count(2, 2).and(QueryExpr::min_steepness(0.5, 0.0)).limit(6).top_k(3),
    ];
    for expr in &exprs {
        let text = expr.to_saql().unwrap();
        let back = saql::parse(&text).unwrap();
        assert_eq!(&back, expr, "`{text}`");
        assert_all_engines_match(&back, &store, &archive, &[(3, 8)]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// parse ∘ print = id on random trees, with identical plans under
    /// both the statistics-free and statistics-backed planners.
    #[test]
    fn print_then_parse_is_the_identity(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 6..16),
        expr in expr_strategy(),
    ) {
        let text = expr.to_saql().unwrap();
        let back = saql::parse(&text).unwrap();
        prop_assert_eq!(&back, &expr, "round-trip through `{}`", text);

        let static_planner = Planner::new(IndexCaps::all());
        prop_assert_eq!(
            static_planner.plan(&expr).unwrap().explain(),
            static_planner.plan(&back).unwrap().explain(),
            "static plans diverge for `{}`", text
        );

        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, _) = ingest(&corpus);
        let stats_planner = Planner::with_stats(IndexCaps::all(), PlanStats::from_snapshot(&store));
        prop_assert_eq!(
            stats_planner.plan(&expr).unwrap().explain(),
            stats_planner.plan(&back).unwrap().explain(),
            "statistics-backed plans diverge for `{}`", text
        );
    }

    /// The re-parsed tree, run through every engine, matches the PR 3
    /// oracle — and a `QueryRequest::saql` of the printed text agrees with
    /// executing the constructed tree.
    #[test]
    fn reparsed_trees_match_every_engine_and_the_oracle(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 6..20),
        expr in expr_strategy(),
        workers in 1usize..5,
        shards in 1usize..16,
    ) {
        let text = expr.to_saql().unwrap();
        let back = saql::parse(&text).unwrap();
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, archive) = ingest(&corpus);
        assert_all_engines_match(&back, &store, &archive, &[(workers, shards)])?;
        let via_text =
            StoreEngine::new(&store).request(&QueryRequest::saql(&text)).unwrap().outcome;
        prop_assert_eq!(&via_text, &oracle(&expr, &store), "SAQL request vs oracle: `{}`", text);
    }
}
