//! Statistics-driven conjunction ordering: how many full-sequence
//! evaluations the planner's cardinality estimates save on a *skewed*
//! corpus, versus the static access-path ordering (which breaks ties in
//! declaration order).
//!
//! The ward is deliberately skewed — mostly single-peak logs, a sliver of
//! goalposts — and the expression is declared in pessimal order:
//!
//! ```text
//! min_steepness(0.05)  AND  peak_count = 2
//! ^ scan leaf, matches ~everything  ^ scan leaf, matches ~5%
//! ```
//!
//! Both leaves take the scan path, so the static planner keeps the
//! declaration order and evaluates the unselective steepness leaf first
//! over the whole store. The statistics-backed planner estimates the
//! peak-count leaf's cardinality from the index layer's peak-count
//! histogram, runs it first, and the steepness leaf only sees the few
//! survivors.
//!
//! Also demonstrated: the engine's incremental mode — a batch re-run
//! after `k` puts re-fetches exactly the `k` dirty ids (asserted through
//! the archive's fetch counter).
//!
//! Environment knobs (CI smoke-runs cap these):
//! * `SAQ_EXP_SEQUENCES` — store size (default 600)
//!
//! Asserts ≥ 1.5× fewer full-sequence evaluations with cost ordering
//! (measured ≈ 1.9×), identical outcomes on both paths, and an
//! incremental re-run cost of exactly `k` fetches.

use saq_archive::{ArchiveStore, Medium};
use saq_bench::{banner, env_f64, env_usize};
use saq_core::algebra::{IndexCaps, Planner, QueryEngine, QueryExpr, StoreEngine};
use saq_core::store::{SequenceStore, StoreConfig};
use saq_core::QueryRequest;
use saq_engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
use saq_sequence::Sequence;

/// 1-in-20 goalposts (2 peaks), the rest single-peak logs — the skew the
/// static order can't see.
fn skewed_ward(n: usize) -> Vec<Sequence> {
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

/// One coalesced wave; outcomes are dropped — the experiment reads the
/// archive's fetch counters instead.
fn run_wave(engine: &ShardedEngine, archive: &ArchiveStore, requests: &[QueryRequest]) {
    for resp in engine.run_requests(&archive.snapshot(), requests).unwrap() {
        resp.unwrap();
    }
}

fn main() {
    banner("selectivity", "statistics-driven And ordering vs static order on a skewed corpus");

    let sequences = env_usize("SAQ_EXP_SEQUENCES", 600).max(40);
    let corpus = skewed_ward(sequences);
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut archive = ArchiveStore::new(Medium::memory());
    for seq in &corpus {
        let id = store.insert(seq).unwrap();
        archive.put(id, seq.clone());
    }

    // Pessimal declaration order: the unselective leaf first.
    let expr = QueryExpr::min_steepness(0.05, 0.0).and(QueryExpr::peak_count(2, 0));

    let store_engine = StoreEngine::new(&store); // plans with a statistics snapshot
    let static_plan = Planner::new(IndexCaps::all()).plan(&expr).unwrap(); // class order only
    println!("store: {sequences} sequences (~{} goalposts); expression:\n", sequences / 20 + 1);
    println!("cost-ordered plan (leaf estimates from index statistics):");
    println!("{}", store_engine.plan(&expr).unwrap().explain());
    println!("static plan (declaration order among scan leaves):");
    println!("{}", static_plan.explain());

    let (cost_out, cost) = store_engine.execute_with_stats(&expr).unwrap();
    let (static_out, stat) = store_engine.run_plan(&static_plan).unwrap();
    assert_eq!(cost_out, static_out, "ordering must not change results");

    println!("plan         | entry evals | exact | approx");
    for (name, stats, out) in [("cost-ordered", &cost, &cost_out), ("static", &stat, &static_out)] {
        println!(
            "{name:<12} | {:>11} | {:>5} | {:>6}",
            stats.entries_scanned,
            out.exact.len(),
            out.approximate.len()
        );
    }
    let ratio = stat.entries_scanned as f64 / cost.entries_scanned.max(1) as f64;
    println!("\nordering win: {ratio:.2}x fewer full-sequence evaluations with cost ordering");

    // --- Incremental mode: k puts replace exactly k feature documents,
    // and a feature wave reads documents without fetching a sequence.
    let engine = ShardedEngine::new(EngineConfig::default()).unwrap();
    let two_peaks = [QueryRequest::expr(QueryExpr::peak_count(2, 0))];
    run_wave(&engine, &archive, &two_peaks);
    let before = archive.snapshot();
    let k = 5u64;
    for i in 0..k {
        archive.put(i, goalpost(GoalpostSpec { seed: 1000 + i, ..GoalpostSpec::default() }));
    }
    let after = archive.snapshot();
    let fetches = archive.fetch_count();
    run_wave(&engine, &archive, &two_peaks);
    let dirty_fetches = archive.fetch_count() - fetches;
    // Every id of either generation (a put may create an id).
    let mut ids: Vec<u64> = before.ids().iter().chain(after.ids()).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    let changed = ids
        .iter()
        .filter(|&&id| match (before.doc_arc(id), after.doc_arc(id)) {
            (Some(a), Some(b)) => !std::sync::Arc::ptr_eq(&a, &b),
            (a, b) => a.is_some() != b.is_some(),
        })
        .count() as u64;
    println!(
        "incremental re-run after {k} puts: {changed} documents replaced, \
         {dirty_fetches} of {sequences} sequences fetched"
    );

    // Strict 1.5x by default; CI can relax via SAQ_EXP_MIN_SPEEDUP.
    let min_ratio = env_f64("SAQ_EXP_MIN_SPEEDUP", 1.5);
    assert!(
        ratio >= min_ratio,
        "expected >={min_ratio}x fewer evaluations with cost ordering, measured {ratio:.2}x \
         ({} vs {})",
        cost.entries_scanned,
        stat.entries_scanned
    );
    assert_eq!(changed, k, "k puts must replace exactly the k dirty documents");
    assert_eq!(dirty_fetches, 0, "a feature wave reads documents, never sequences");
    println!(
        "PASS: >={min_ratio}x fewer full-sequence evaluations; \
         incremental re-run touched {k} ids"
    );
}
