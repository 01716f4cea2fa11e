//! Benchmarks of the sharded batch engine: cold vs warm cache, worker-pool
//! vs the sequential archive scan (no latency emulation — pure CPU;
//! see `exp_engine_scaling` for the latency-overlap wall-clock study).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saq_archive::{ArchiveScanEngine, ArchiveStore, Medium};
use saq_core::algebra::{QueryEngine as _, QueryExpr};
use saq_core::store::StoreConfig;
use saq_core::{QueryOutcome, QueryRequest};
use saq_engine::{EngineConfig, QueryEngine};
use saq_sequence::generators::{goalpost, random_walk, GoalpostSpec};

fn archive(n: u64) -> ArchiveStore {
    let mut archive = ArchiveStore::new(Medium::memory());
    for id in 0..n {
        if id % 2 == 0 {
            archive.put(
                id,
                goalpost(GoalpostSpec { seed: id, noise: 0.1, ..GoalpostSpec::default() }),
            );
        } else {
            archive.put(id, random_walk(256, 0.0, 0.1, id));
        }
    }
    archive
}

fn batch() -> Vec<QueryRequest> {
    [
        QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
        QueryExpr::peak_count(2, 1),
        QueryExpr::has_steep_peak(1.5, 0.2),
        QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.0, 1.0),
    ]
    .map(QueryRequest::expr)
    .into()
}

fn engine(workers: usize, capacity: usize) -> QueryEngine {
    QueryEngine::new(EngineConfig {
        workers,
        shards: workers * 4,
        cache_capacity: capacity,
        ..EngineConfig::default()
    })
    .unwrap()
}

/// One coalesced wave.
fn run_wave(
    engine: &QueryEngine,
    store: &ArchiveStore,
    queries: &[QueryRequest],
) -> Vec<QueryOutcome> {
    engine
        .run_requests(&store.snapshot(), queries)
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap().outcome)
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let store = archive(64);
    let queries = batch();

    let mut group = c.benchmark_group("engine");
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("cold-batch", workers), &workers, |b, &workers| {
            b.iter(|| {
                // A fresh engine per iteration keeps the cache cold.
                run_wave(&engine(workers, 64), &store, &queries)
            });
        });
    }

    let warm = engine(4, 64);
    run_wave(&warm, &store, &queries);
    group.bench_function("warm-batch-4w", |b| {
        b.iter(|| run_wave(&warm, &store, &queries));
    });

    let sequential = ArchiveScanEngine::new(&store, StoreConfig::default());
    group.bench_function("sequential-oracle", |b| {
        b.iter(|| queries.iter().map(|q| sequential.request(q).unwrap()).collect::<Vec<_>>());
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
