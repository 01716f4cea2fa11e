//! The §1 motivation scenario: raw sequences live on a remote tape archive
//! ("obtaining raw seismic data can take several days"); compact
//! function-series representations live locally and answer feature queries
//! without touching the archive.
//!
//! Run with `cargo run --example archive_latency`.

use saq::archive::{ArchiveStore, Medium, TieredStore};
use saq::core::algebra::QueryExpr;
use saq::core::store::StoreConfig;
use saq::core::{QueryOutcome, QueryRequest};
use saq::engine::{EngineConfig, QueryEngine};
use saq::sequence::generators::{random_walk, seismic_burst};
use saq::sequence::Sequence;

fn station_data() -> Vec<Sequence> {
    // 40 seismic station traces; a quarter contain a vigorous event.
    let mut traces = Vec::new();
    for i in 0..40u64 {
        if i % 4 == 0 {
            traces.push(seismic_burst(2_000, 700 + (i as usize * 13) % 600, 120, 0.05, 12.0, i));
        } else {
            traces.push(random_walk(2_000, 0.0, 0.05, 1_000 + i));
        }
    }
    traces
}

/// Runs `batch` as one coalesced wave.
fn run_wave(
    engine: &QueryEngine,
    archive: &ArchiveStore,
    batch: &[QueryRequest],
) -> Vec<QueryOutcome> {
    engine
        .run_requests(&archive.snapshot(), batch)
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap().outcome)
        .collect()
}

fn main() {
    let mut tiered = TieredStore::new(
        StoreConfig { epsilon: 0.8, ..StoreConfig::default() },
        Medium::memory(),
        Medium::remote_tape(),
    )
    .unwrap();
    for trace in station_data() {
        tiered.insert(&trace).unwrap();
    }

    let report = tiered.local().total_compression();
    println!(
        "archived {} traces ({} raw samples); local representation: {} parameters ({:.1}x smaller)",
        tiered.archive().len(),
        report.original_points,
        report.parameters,
        report.ratio()
    );

    // "Sudden vigorous seismic activity": at least one steep peak.
    let query = QueryExpr::has_steep_peak(2.0, 0.0);
    let (outcome, local_cost) = tiered.query_local(&query).unwrap();
    println!(
        "\nquery `any peak steeper than 2.0` answered locally in {:.6} simulated seconds",
        local_cost
    );
    println!("matching stations: {:?}", outcome.exact);

    // The pre-representation workflow: fetch everything from tape and scan.
    let scan_cost = tiered.full_archive_scan_cost();
    println!(
        "\nfetching all raw traces from the remote tape would take {:.0} simulated seconds (~{:.1} hours)",
        scan_cost,
        scan_cost / 3600.0
    );

    // Drill down to raw data only for the matches.
    let drill_cost = tiered.drill_down_cost(&outcome.exact);
    println!(
        "drilling down to the {} matching traces costs {:.0} simulated seconds (~{:.1} minutes)",
        outcome.exact.len(),
        drill_cost,
        drill_cost / 60.0
    );

    println!(
        "\nspeedup of representation-first workflow: {:.0}x for triage, {:.1}x end-to-end with drill-down",
        scan_cost / local_cost.max(1e-9),
        scan_cost / (local_cost + drill_cost)
    );

    // The heavy-traffic path: a sharded 4-worker batch engine pushes a whole
    // query batch down to the raw archive, representing each trace on demand
    // and caching the result.
    let engine = QueryEngine::new(EngineConfig {
        store: StoreConfig { epsilon: 0.8, ..StoreConfig::default() },
        ..EngineConfig::default()
    })
    .unwrap();
    let batch = [QueryRequest::expr(query), QueryRequest::saql("peaks = 1 tol 1")];
    tiered.archive().reset_clock();
    let outcomes = run_wave(&engine, tiered.archive(), &batch);
    assert_eq!(
        outcomes[0].exact, outcome.exact,
        "engine over raw archive agrees with the local representation query"
    );
    let cold_cost = tiered.archive().elapsed_seconds();
    tiered.archive().reset_clock();
    let again = run_wave(&engine, tiered.archive(), &batch);
    assert_eq!(again, outcomes);
    println!(
        "\nbatch engine over the raw archive: first batch pays {:.0} simulated seconds (one fetch per trace),",
        cold_cost
    );
    println!(
        "repeat batch pays {:.0}: the feature cache ({} hits so far) answers without touching the archive.",
        tiered.archive().elapsed_seconds(),
        engine.cache_stats().hits
    );
}
