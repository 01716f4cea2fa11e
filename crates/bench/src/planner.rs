//! Adaptive re-planning measurements: the sharded engine over many
//! shards (an observation wave re-plans the rest) vs one shard (no
//! observation wave exists, so the static scan order runs throughout),
//! over a corpus whose selectivities the static order mis-ranks. Shared by
//! `exp_adaptive` and the `bench_harness` `planner` JSON section.
//!
//! The ward is skewed — mostly single-peak logs, a sliver of goalposts —
//! and the conjunction is declared in pessimal order: the steepness leaf
//! (matches ~everything) first, the peak-count leaf (~5%) second. The
//! sharded pass plans without histograms, so both scan leaves keep
//! declaration order; only the observation wave can correct it.

use saq_archive::{ArchiveStore, Medium};
use saq_core::algebra::QueryExpr;
use saq_core::QueryRequest;
use saq_engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
use saq_sequence::Sequence;

/// What one adaptive-vs-static comparison measures.
#[derive(Debug, Clone)]
pub struct PlannerReport {
    /// Corpus size.
    pub sequences: usize,
    /// Shards the batch fanned out over (the observation wave is ~1/8
    /// of them).
    pub shards: usize,
    /// Full-sequence evaluations under the static (declaration) order.
    pub static_entry_evals: u64,
    /// Full-sequence evaluations with mid-batch re-planning on.
    pub adaptive_entry_evals: u64,
    /// `static / adaptive` (>1 means the re-plan won).
    pub speedup: f64,
    /// Exact matches — identical on both paths (asserted).
    pub exact: usize,
    /// Approximate matches — identical on both paths (asserted).
    pub approximate: usize,
}

/// 1-in-20 goalposts (2 peaks), the rest single-peak logs: the skew the
/// declaration order can't see.
pub fn correlated_ward(n: usize) -> Vec<Sequence> {
    (0..n as u64)
        .map(|id| {
            if id % 20 == 0 {
                goalpost(GoalpostSpec { seed: id, noise: 0.1, ..GoalpostSpec::default() })
            } else {
                peaks(PeaksSpec {
                    centers: vec![12.0],
                    seed: id,
                    noise: 0.1,
                    ..PeaksSpec::default()
                })
            }
        })
        .collect()
}

/// The pessimally-declared conjunction over that ward: the unselective
/// steepness leaf first, the selective peak-count leaf second.
pub fn misranked_expr() -> QueryExpr {
    QueryExpr::min_steepness(0.05, 0.0).and(QueryExpr::peak_count(2, 0))
}

/// Runs [`misranked_expr`] through two sharded engines — `shards` shards
/// (re-planning after the observation wave) and one shard (the static
/// reference: guard skipping is per id, so it is shard-independent) — and
/// reports full-sequence evaluation counts. Outcomes are asserted
/// identical: re-planning is ordering-only.
pub fn measure_adaptive(sequences: usize, shards: usize) -> PlannerReport {
    let mut archive = ArchiveStore::new(Medium::memory());
    for (id, seq) in correlated_ward(sequences).into_iter().enumerate() {
        archive.put(id as u64, seq);
    }
    let snapshot = archive.snapshot();
    let requests = vec![QueryRequest::expr(misranked_expr()).with_stats()];
    let run = |shards: usize| {
        let engine = ShardedEngine::new(EngineConfig {
            shards,
            cache_capacity: sequences + 16,
            ..EngineConfig::default()
        })
        .expect("engine config valid");
        let mut responses = engine.run_requests(&snapshot, &requests).expect("batch runs");
        responses.pop().expect("one request").expect("request succeeds")
    };
    let adaptive = run(shards);
    let fixed = run(1);
    assert_eq!(adaptive.outcome, fixed.outcome, "re-planning must be ordering-only");
    let static_entry_evals = fixed.stats.as_ref().expect("stats requested").entries_scanned;
    let adaptive_entry_evals = adaptive.stats.as_ref().expect("stats requested").entries_scanned;
    PlannerReport {
        sequences,
        shards,
        static_entry_evals,
        adaptive_entry_evals,
        speedup: static_entry_evals as f64 / adaptive_entry_evals.max(1) as f64,
        exact: adaptive.outcome.exact.len(),
        approximate: adaptive.outcome.approximate.len(),
    }
}

/// The `planner` row of `BENCH_<date>.json`, at a fixed 600 sequences ×
/// 16 shards: two in-memory count runs, cheap enough that no CI cap
/// applies, so the row always compares against the checked-in one.
pub fn bench_row() -> PlannerReport {
    measure_adaptive(600, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_static_on_the_misranked_ward() {
        let report = measure_adaptive(240, 16);
        assert!(report.exact + report.approximate > 0, "the conjunction matches something");
        assert!(
            report.adaptive_entry_evals < report.static_entry_evals,
            "observation must cut evaluations: {report:?}"
        );
        // The checked-in `planner` row: counts, exact for a seed on any
        // machine (`ci/bench_trend.py` gates them).
        let row = bench_row();
        assert_eq!((row.static_entry_evals, row.adaptive_entry_evals), (1196, 701), "{row:?}");
    }
}
