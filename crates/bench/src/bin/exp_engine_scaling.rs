//! Engine scaling: wall-clock speedup of the sharded batch executor at
//! 1/2/4/8 workers over a latency-emulated archive.
//!
//! The archive's media are cost *models* (no real I/O), so this experiment
//! turns on real-time latency emulation: every fetch sleeps a scaled-down
//! fraction of its simulated access time. Workers overlap those waits the
//! way parallel requests against a real jukebox/tape robot would, which is
//! where the paper's archive-bound workload actually wins — and why the
//! speedup shows up even on a single-core runner (CPU-bound breaking work
//! additionally parallelizes on multicore hardware). Feature leaves read
//! the archive's documents; the batch's value band is what fetches, so
//! every batch — first or repeated — fetches each sequence exactly once.
//!
//! Environment knobs (CI smoke-runs cap these):
//! * `SAQ_EXP_SEQUENCES` — archive size (default 160)
//! * `SAQ_EXP_SEQ_LEN` — samples per sequence (default 1200)
//! * `SAQ_EXP_REALTIME_SCALE` — real seconds slept per simulated second
//!   (default 0.25 against the local-disk model ⇒ ~2 ms per fetch;
//!   0 disables sleeping and the speedup assertion with it)
//! * `SAQ_EXP_MIN_SPEEDUP` — asserted speedup floor (default 1.5; CI
//!   runners with noisy neighbours set a safer bound)

use saq_archive::{ArchiveStore, Medium};
use saq_bench::{banner, env_f64, env_usize, fnum, volatile};
use saq_core::algebra::QueryExpr;
use saq_core::{QueryOutcome, QueryRequest};
use saq_engine::{EngineConfig, QueryEngine};
use saq_sequence::generators::{goalpost, random_walk, seismic_burst, GoalpostSpec};
use std::time::Instant;

fn build_archive(sequences: usize, len: usize, realtime_scale: f64) -> ArchiveStore {
    let mut archive = ArchiveStore::new(Medium::local_disk());
    archive.set_realtime_scale(realtime_scale);
    for id in 0..sequences as u64 {
        let seq = match id % 3 {
            0 => seismic_burst(len, len / 3 + (id as usize * 17) % (len / 2), 60, 0.05, 10.0, id),
            1 => random_walk(len, 0.0, 0.05, 500 + id),
            _ => goalpost(GoalpostSpec {
                duration: 24.0,
                dt: 24.0 / len as f64,
                seed: id,
                noise: 0.1,
                ..GoalpostSpec::default()
            }),
        };
        archive.put(id, seq);
    }
    archive
}

fn batch() -> Vec<QueryRequest> {
    [
        QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
        QueryExpr::peak_count(2, 1),
        QueryExpr::peak_interval(8, 2),
        QueryExpr::has_steep_peak(2.0, 0.2),
        QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.5, 1.0),
    ]
    .map(QueryRequest::expr)
    .into()
}

fn main() {
    banner("engine", "sharded batch query scaling: 1/2/4/8 workers over the archive");

    let sequences = env_usize("SAQ_EXP_SEQUENCES", 160);
    let len = env_usize("SAQ_EXP_SEQ_LEN", 1200);
    let realtime_scale = env_f64("SAQ_EXP_REALTIME_SCALE", 0.25);
    let archive = build_archive(sequences, len, realtime_scale);
    let queries = batch();
    println!(
        "archive: {sequences} sequences x {len} samples on `local-disk` \
         (realtime scale {realtime_scale})\n"
    );

    println!(
        "workers | first batch (s) | repeat batch (s) | speedup vs 1 | sim makespan (s) | \
         sim speedup | fetches"
    );
    let mut cold_times = Vec::new();
    let mut cold_sim_seconds = 0.0;
    let mut sim_speedup4 = None;
    let mut reference = None;
    for &workers in &[1usize, 2, 4, 8] {
        let engine = QueryEngine::new(EngineConfig { workers, shards: workers * 4 }).unwrap();

        let t = Instant::now();
        let cold_out = run_wave(&engine, &archive, &queries);
        let cold = t.elapsed().as_secs_f64();
        // Per-worker simulated clocks of the cold batch: the makespan is
        // what the batch costs when workers overlap archive waits, the
        // total is what a serial scan of the same fetches would pay.
        let report = engine.last_run_report();
        cold_sim_seconds += report.sim_total_seconds();
        if workers == 4 {
            sim_speedup4 = Some(report.sim_speedup());
        }

        let (t, fetched) = (Instant::now(), archive.fetch_count());
        let warm_out = run_wave(&engine, &archive, &queries);
        let warm = t.elapsed().as_secs_f64();
        let fetches = archive.fetch_count() - fetched;

        assert_eq!(cold_out, warm_out, "a repeated batch must not change results");
        match &reference {
            None => reference = Some(cold_out),
            Some(r) => assert_eq!(r, &cold_out, "worker count must not change results"),
        }

        cold_times.push(cold);
        println!(
            "{workers:>7} | {:>15} | {:>16} | {:>12} | {:>16} | {:>11} | {:>7}",
            volatile(format_args!("{cold:.3}")),
            volatile(format_args!("{warm:.3}")),
            volatile(format_args!("{:.2}x", cold_times[0] / cold.max(1e-12))),
            volatile(format_args!("{:.3}", report.sim_makespan_seconds())),
            volatile(format_args!("{:.2}x", report.sim_speedup())),
            fetches
        );
    }

    let outcomes = reference.expect("at least one run");
    let hits: usize = outcomes.iter().map(|o| o.all_ids().len()).sum();
    println!("\nbatch of {} queries matched {hits} (sequence, query) pairs", outcomes.len());
    println!(
        "simulated archive time per cold batch: {} s (each sequence fetched exactly once)",
        fnum(cold_sim_seconds / cold_times.len() as f64)
    );

    // The strict 1.5x default is right for a quiet local machine; shared
    // CI runners can set SAQ_EXP_MIN_SPEEDUP to a safer bound.
    let min_speedup = env_f64("SAQ_EXP_MIN_SPEEDUP", 1.5);
    let mut speedup4 = cold_times[0] / cold_times[2].max(1e-12);
    println!("4-worker speedup: {}", volatile(format_args!("{speedup4:.2}x")));
    if realtime_scale > 0.0 && sequences >= 32 {
        if speedup4 <= min_speedup {
            // A shared runner can stretch one timing sample; re-measure the
            // two cold batches back to back before declaring a regression.
            // The notice goes to stderr: stdout's lines never depend on
            // timing.
            eprintln!("(below threshold — re-measuring once)");
            speedup4 = measure_cold(&archive, &queries, 1) / measure_cold(&archive, &queries, 4);
            eprintln!("re-measured 4-worker speedup: {speedup4:.2}x");
        }
        assert!(
            speedup4 > min_speedup,
            "expected >{min_speedup}x speedup at 4 workers, measured {speedup4:.2}x"
        );
        println!("PASS: >{min_speedup}x wall-clock speedup at 4 workers");
        // The simulated clocks tell the same story without wall-clock
        // noise: with real blocking the pool genuinely interleaves, so the
        // 4-worker makespan is well below the serial fetch total.
        let sim = sim_speedup4.expect("4-worker row ran");
        assert!(
            sim > min_speedup,
            "expected >{min_speedup}x simulated makespan speedup, measured {sim:.2}x"
        );
        println!(
            "PASS: {} simulated (makespan) speedup at 4 workers",
            volatile(format_args!("{sim:.2}x"))
        );
    } else {
        println!("(speedup assertion skipped: latency emulation off or corpus too small)");
    }
}

/// Runs `queries` as one coalesced wave.
fn run_wave(
    engine: &QueryEngine,
    archive: &ArchiveStore,
    queries: &[QueryRequest],
) -> Vec<QueryOutcome> {
    engine
        .run_requests(&archive.snapshot(), queries)
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap().outcome)
        .collect()
}

/// Wall-clock seconds for one batch at the given worker count.
fn measure_cold(archive: &ArchiveStore, queries: &[QueryRequest], workers: usize) -> f64 {
    let engine = QueryEngine::new(EngineConfig { workers, shards: workers * 4 }).unwrap();
    let t = Instant::now();
    run_wave(&engine, archive, queries);
    t.elapsed().as_secs_f64().max(1e-12)
}
