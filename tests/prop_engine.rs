//! Equivalence of the sharded parallel engine with the sequential query
//! paths: for every query type, a `saq-engine` wave with multiple workers
//! must return byte-identical result sets (same hits, same order) as both
//! the sequential archive scan (`ArchiveScanEngine`: fetch → break →
//! represent → `PreparedPred::matches`, one id at a time) and the
//! index-assisted `StoreEngine`.

use proptest::prelude::*;
use saq::archive::{compute_doc, ArchiveScanEngine, ArchiveStore, Medium};
use saq::core::algebra::{Pred, PreparedPred, QueryEngine as _, QueryExpr, StoreEngine};
use saq::core::query::{QueryOutcome, QuerySpec};
use saq::core::store::{SequenceStore, StoreConfig, StoredEntry};
use saq::core::QueryRequest;
use saq::engine::{EngineConfig, QueryEngine};
use saq::sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq::sequence::Sequence;

/// Builds the same corpus into a representation store (ids assigned by the
/// store) and a raw archive (same ids), so both query paths see identical
/// id → sequence mappings.
fn ingest(corpus: &[Sequence]) -> (SequenceStore, ArchiveStore) {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut archive = ArchiveStore::new(Medium::memory());
    for seq in corpus {
        let id = store.insert(seq).unwrap();
        archive.put(id, seq.clone());
    }
    (store, archive)
}

fn mixed_sequence(kind: u64, seed: u64) -> Sequence {
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

/// Runs `queries` as one coalesced wave of single-leaf requests.
fn run_wave(
    engine: &QueryEngine,
    archive: &ArchiveStore,
    queries: &[QueryExpr],
) -> Vec<QueryOutcome> {
    let requests: Vec<QueryRequest> = queries.iter().cloned().map(QueryRequest::expr).collect();
    engine
        .run_requests(&archive.snapshot(), &requests)
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap().outcome)
        .collect()
}

/// The sequential oracle: one pass over the archive per query, no
/// sharding, no documents.
fn scan_sequentially(archive: &ArchiveStore, queries: &[QueryExpr]) -> Vec<QueryOutcome> {
    let scan = ArchiveScanEngine::new(archive, StoreConfig::default());
    queries.iter().map(|q| scan.execute(q).unwrap()).collect()
}

fn feature_queries() -> Vec<QueryExpr> {
    vec![
        QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
        QueryExpr::peak_count(2, 1),
        QueryExpr::peak_interval(7, 2),
        QueryExpr::min_steepness(1.0, 0.4),
        QueryExpr::has_steep_peak(1.5, 0.2),
    ]
}

/// The acceptance gate: a ≥200-sequence archive, every query type, four
/// workers — identical hits in identical order on every path.
#[test]
fn four_workers_match_sequential_paths_on_200_sequences() {
    let corpus: Vec<Sequence> = (0..200).map(|i| mixed_sequence(i, 1000 + i)).collect();
    let (store, archive) = ingest(&corpus);

    let engine = QueryEngine::new(EngineConfig { workers: 4, shards: 16 }).unwrap();
    let mut batch = feature_queries();
    batch.push(QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.0, 1.0));

    let parallel = run_wave(&engine, &archive, &batch);
    assert_eq!(parallel, scan_sequentially(&archive, &batch), "parallel vs sequential oracle");

    // Feature queries also agree with the store-level (index-assisted)
    // engine, hit for hit and byte for byte.
    for (query, outcome) in feature_queries().iter().zip(&parallel) {
        let store_outcome = StoreEngine::new(&store).execute(query).unwrap();
        assert_eq!(outcome, &store_outcome, "engine vs store for {query:?}");
    }

    // Sanity: the corpus is a quarter goalposts; the shape query finds a
    // healthy share of them.
    assert!(parallel[0].exact.len() >= 20, "only {} goalposts", parallel[0].exact.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corpora and query parameters: the engine agrees with the
    /// store evaluator for every feature query type.
    #[test]
    fn engine_matches_store_evaluator(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 10..40),
        count in 0usize..4,
        tolerance in 0usize..3,
        interval in 3i64..15,
        epsilon in 0i64..3,
        workers in 1usize..6,
        shards in 1usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, archive) = ingest(&corpus);
        let engine = QueryEngine::new(EngineConfig { workers, shards }).unwrap();
        let batch = [
            QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
            QueryExpr::peak_count(count, tolerance),
            QueryExpr::peak_interval(interval, epsilon),
            QueryExpr::min_steepness(1.0, 0.3),
            QueryExpr::has_steep_peak(1.2, 0.3),
        ];
        let outcomes = run_wave(&engine, &archive, &batch);
        for (query, outcome) in batch.iter().zip(&outcomes) {
            let store_outcome = StoreEngine::new(&store).execute(query).unwrap();
            prop_assert_eq!(outcome, &store_outcome, "{:?}", query);
        }
    }

    /// The doc-servable predicates read the same answer off a sequence's
    /// index document as off its stored entry — what lets the sharded
    /// pass answer index-path leaves from persisted cold documents.
    #[test]
    fn index_documents_answer_like_stored_entries(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 1..12),
        pattern in prop_oneof![
            Just("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
            Just("0* 1+ (-1)+ 0*"),
            Just("(0|1|(-1))*"),
            Just("(-1)+"),
        ],
        count in 0usize..5,
        tolerance in 0usize..3,
        interval in 3i64..15,
        epsilon in 0i64..4,
    ) {
        let cfg = StoreConfig::default();
        let preds = [
            QuerySpec::Shape { pattern: pattern.to_string() },
            QuerySpec::PeakCount { count, tolerance },
            QuerySpec::PeakInterval { interval, epsilon },
        ]
        .map(|spec| PreparedPred::new(&Pred::Feature(spec)).unwrap());
        for (id, &(kind, seed)) in seeds.iter().enumerate() {
            let seq = mixed_sequence(kind, seed);
            let doc = compute_doc(&seq, &cfg).unwrap();
            let entry = StoredEntry::compute(&seq, &cfg).unwrap();
            for pred in &preds {
                prop_assert_eq!(
                    pred.matches_doc(&doc.as_doc()),
                    pred.matches(id as u64, Some(&entry)),
                    "{:?} on kind {} seed {}", pred.pred(), kind, seed
                );
            }
        }
    }

    /// Value-band batches: parallel result identical to the sequential
    /// oracle for any worker/shard split and band parameters.
    #[test]
    fn band_queries_parallel_equals_sequential(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 5..30),
        delta in 0.0f64..3.0,
        slack in 0.0f64..2.0,
        workers in 1usize..6,
        shards in 1usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (_, archive) = ingest(&corpus);
        let engine = QueryEngine::new(EngineConfig { workers, shards }).unwrap();
        let batch = [QueryExpr::value_band(goalpost(GoalpostSpec::default()), delta, slack)];
        prop_assert_eq!(run_wave(&engine, &archive, &batch), scan_sequentially(&archive, &batch));
    }
}
