//! Planner index pushdown: how many full-sequence scans the query
//! algebra's planner avoids by serving indexable leaves from `saq-index`
//! structures and narrowing the candidates of the leaves that must scan.
//!
//! The workload is a conjunctive expression over a mixed ward —
//! `shape(goal-post) AND interval(8 ± 2) AND peaks = 2 ± 1 AND
//! steepness(any) ≥ 0.8` — executed twice against the same store:
//!
//! * **pushdown** — the shape leaf is served by the slope-pattern index,
//!   the interval leaf by the inverted interval file (neither touches an
//!   entry), and the two scan leaves only see candidates the index leaves
//!   already narrowed;
//! * **scan-only** — a planner with no index capabilities: every leaf
//!   scans every stored entry (what the pre-algebra evaluator did per
//!   spec).
//!
//! Also demonstrated: conjunctive id-range pruning in the sharded batch
//! engine, where plan-level bounds shrink the candidate universe before
//! any shard is formed.
//!
//! Environment knobs (CI smoke-runs cap these):
//! * `SAQ_EXP_SEQUENCES` — store size (default 600)
//!
//! Asserts ≥ 2× fewer entry scans with pushdown (measured far higher) and
//! identical outcomes on both paths.

use saq_archive::{ArchiveStore, Medium};
use saq_bench::{banner, env_usize};
use saq_core::algebra::{IndexCaps, Planner, QueryEngine, QueryExpr, StoreEngine};
use saq_core::store::{SequenceStore, StoreConfig};
use saq_engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq_sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq_sequence::Sequence;

fn ward(n: usize) -> Vec<Sequence> {
    (0..n as u64)
        .map(|id| match id % 3 {
            0 => goalpost(GoalpostSpec { seed: id, noise: 0.1, ..GoalpostSpec::default() }),
            1 => peaks(PeaksSpec {
                centers: vec![5.0, 12.0, 19.0],
                seed: id,
                noise: 0.1,
                ..PeaksSpec::default()
            }),
            _ => random_walk(49, 0.0, 0.25, id),
        })
        .collect()
}

fn main() {
    banner("planner", "index pushdown vs scan-only plans for a conjunctive expression");

    // The workload needs a handful of sequences to be meaningful (the
    // ratio assertion divides by the pushdown scan count); clamp tiny
    // CI caps rather than panicking on degenerate stores.
    let sequences = env_usize("SAQ_EXP_SEQUENCES", 600).max(8);
    let corpus = ward(sequences);
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut archive = ArchiveStore::new(Medium::memory());
    for seq in &corpus {
        let id = store.insert(seq).unwrap();
        archive.put(id, seq.clone());
    }

    let expr = QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*")
        .and(QueryExpr::peak_interval(8, 2))
        .and(QueryExpr::peak_count(2, 1))
        .and(QueryExpr::has_steep_peak(0.8, 0.2));

    let store_engine = StoreEngine::new(&store);
    let scan_plan = Planner::new(IndexCaps::none()).plan(&expr).unwrap();
    println!("store: {sequences} sequences; expression:\n");
    println!("pushdown plan:\n{}", store_engine.plan(&expr).unwrap().explain());
    println!("scan-only plan:\n{}", scan_plan.explain());

    let (pushdown_out, pushdown) = store_engine.execute_with_stats(&expr).unwrap();
    let (scan_out, scan) = store_engine.run_plan(&scan_plan).unwrap();
    assert_eq!(pushdown_out, scan_out, "pushdown must not change results");

    println!("plan      | entry scans | index leaves | scan leaves | exact | approx");
    for (name, stats, out) in
        [("pushdown", &pushdown, &pushdown_out), ("scan-only", &scan, &scan_out)]
    {
        println!(
            "{name:<9} | {:>11} | {:>12} | {:>11} | {:>5} | {:>6}",
            stats.entries_scanned,
            stats.index_leaves,
            stats.scan_leaves,
            out.exact.len(),
            out.approximate.len()
        );
    }

    let ratio = scan.entries_scanned as f64 / pushdown.entries_scanned.max(1) as f64;
    println!("\nscan reduction: {ratio:.1}x fewer full-sequence scans with index pushdown");

    // Plan-level id pruning in the sharded engine: conjunctive id-range
    // bounds shrink the universe before any fetch happens.
    let engine = ShardedEngine::new(EngineConfig::default()).unwrap();
    let half = sequences as u64 / 2;
    let bounded = QueryExpr::peak_count(2, 1).and(QueryExpr::id_range(1, half));
    let (_, bounded_stats) = engine.bind(&archive).execute_with_stats(&bounded).unwrap();
    let (_, full_stats) =
        engine.bind(&archive).execute_with_stats(&QueryExpr::peak_count(2, 1)).unwrap();
    println!(
        "sharded engine universe: {} candidates with id bounds 1..={half} \
         vs {} without (fetches pruned before sharding)",
        bounded_stats.universe, full_stats.universe
    );

    assert!(
        ratio >= 2.0,
        "expected >=2x fewer scans with pushdown, measured {ratio:.2}x \
         ({} vs {})",
        pushdown.entries_scanned,
        scan.entries_scanned
    );
    assert!(bounded_stats.universe <= full_stats.universe / 2 + 1, "id bounds must prune");
    println!("PASS: >=2x fewer full-sequence scans with index pushdown");
}
