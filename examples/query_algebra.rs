//! The composable query algebra: one physician question that no single
//! `QuerySpec` can ask — *"goal-post fever with peaks about 10 hours
//! apart, excluding last month's batch, give me the 5 closest"* — planned
//! once and executed by two engines that return identical answers: the
//! sequential store engine (index pushdown) and the sharded parallel
//! batch engine over the raw archive.
//!
//! Run with `cargo run --example query_algebra`.

use saq::archive::{ArchiveStore, Medium};
use saq::core::algebra::{IndexCaps, Planner, QueryEngine, QueryExpr, StoreEngine};
use saq::core::store::{SequenceStore, StoreConfig};
use saq::engine::{EngineConfig, QueryEngine as BatchEngine};
use saq::sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};

fn main() {
    // A ward of 30 patients: a third classic goal-posts, a third triple
    // spikes, a third wandering baselines. Representations go to the local
    // store, raw logs to the (simulated) archive under the same ids.
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut archive = ArchiveStore::new(Medium::local_disk());
    // Make fetches really block a sliver of their simulated latency so the
    // worker pool genuinely interleaves (see exp_engine_scaling).
    archive.set_realtime_scale(0.05);
    for i in 0..30u64 {
        let seq = match i % 3 {
            0 => goalpost(GoalpostSpec { seed: i, noise: 0.12, ..GoalpostSpec::default() }),
            1 => peaks(PeaksSpec {
                centers: vec![5.0, 12.0, 19.0],
                seed: i,
                noise: 0.1,
                ..PeaksSpec::default()
            }),
            _ => random_walk(49, 0.0, 0.25, i),
        };
        let id = store.insert(&seq).unwrap();
        archive.put(id, seq);
    }

    // The question, as an expression tree. `id_range(21, 30)` stands in
    // for "last month's batch".
    let expr = QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*")
        .and(QueryExpr::peak_interval(10, 3))
        .and(QueryExpr::id_range(21, 30).negate())
        .top_k(5);

    // What the planner will do with it on an index-capable store. The
    // `~N` after each access path is the leaf's estimated cardinality,
    // drawn from the store's index statistics (symbol prefix counts, the
    // interval histogram, the id span): the planner orders conjunctions
    // by these estimates so the most selective operands narrow the
    // candidates first.
    let engine = StoreEngine::new(&store);
    println!("physical plan:\n{}", engine.plan(&expr).unwrap().explain());

    let (outcome, stats) = engine.execute_with_stats(&expr).unwrap();
    println!(
        "store engine: {} exact + {} approximate over {} candidates, \
         {} entries scanned ({} index-served leaves)",
        outcome.exact.len(),
        outcome.approximate.len(),
        stats.universe,
        stats.entries_scanned,
        stats.index_leaves
    );
    for id in &outcome.exact {
        println!("  exact:  patient {id}");
    }
    for m in &outcome.approximate {
        println!("  approx: patient {} (deviation {:.1})", m.id, m.deviation);
    }

    // Without indexes every leaf scans — same answer, more work.
    let scan_plan = Planner::new(IndexCaps::none()).plan(&expr).unwrap();
    let (scan_outcome, scan_stats) = engine.run_plan(&scan_plan).unwrap();
    assert_eq!(outcome, scan_outcome);
    println!(
        "scan-only plan agrees, but scanned {} entries instead of {}",
        scan_stats.entries_scanned, stats.entries_scanned
    );

    // The sharded batch engine answers the same expression from the
    // archive's feature documents — same ids, same tiers, same order.
    let batch = BatchEngine::new(EngineConfig { workers: 4, ..EngineConfig::default() }).unwrap();
    let fetched = archive.fetch_count();
    let parallel = batch.bind(&archive).execute(&expr).unwrap();
    assert_eq!(outcome, parallel);
    let report = batch.last_run_report();
    println!(
        "sharded engine agrees from the archive's documents: {} raw fetches, simulated makespan \
         {:.3}s vs {:.3}s serial ({} across {} workers)",
        archive.fetch_count() - fetched,
        report.sim_makespan_seconds(),
        report.sim_total_seconds(),
        overlap(&report),
        report.workers()
    );

    // A value band compares raw samples, so it is the leaf that fetches,
    // and the workers overlap those fetches.
    let band = QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.0, 0.5);
    let banded = batch.bind(&archive).execute(&band).unwrap();
    let report = batch.last_run_report();
    println!(
        "a value band fetches every raw log ({} exact hits): simulated makespan {:.3}s \
         vs {:.3}s serial ({} across {} workers)",
        banded.exact.len(),
        report.sim_makespan_seconds(),
        report.sim_total_seconds(),
        overlap(&report),
        report.workers()
    );
}

/// The run's overlap ratio, or a note that nothing was fetched to overlap.
fn overlap(report: &saq::engine::report::RunReport) -> String {
    if report.sim_makespan_seconds() > 0.0 {
        format!("{:.1}x overlap", report.sim_speedup())
    } else {
        "no fetch to overlap".into()
    }
}
