//! Snapshot isolation under real reader/writer races.
//!
//! A writer thread mutates a store through its own cloned handle while
//! reader threads — with **no external locking around reads** — pin
//! snapshots and run query batches through every engine. Each batch must
//! match the naive set-algebra oracle computed from *its own snapshot's
//! contents*: whatever generation a reader pinned, that is exactly what it
//! sees, start to finish, no matter how far the writer has moved on.
//!
//! `SAQ_PROP_SNAPSHOT_CASES` raises the proptest case count (the CI
//! stress job sets it); `SAQ_PROP_SNAPSHOT_READERS` the reader thread
//! count per case.

mod common;

use common::{mixed_sequence, naive_eval, to_outcome};
use proptest::prelude::*;
use saq::archive::{ArchiveScanEngine, ArchiveSnapshot, ArchiveStore, Medium};
use saq::core::algebra::{Planner, QueryEngine as _, QueryExpr};
use saq::core::query::QueryOutcome;
use saq::core::store::{SequenceStore, StoreConfig, StoreSnapshot, StoredEntry};
use saq::core::QueryRequest;
use saq::engine::{EngineConfig, QueryEngine as ShardedEngine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The oracle at one pinned archive generation: every sequence the
/// snapshot holds is represented from scratch, leaves are naive scans, and
/// composition is textbook set algebra.
fn archive_oracle(snap: &ArchiveSnapshot, expr: &QueryExpr) -> QueryOutcome {
    let config = StoreConfig::default();
    let entries: BTreeMap<u64, StoredEntry> = snap
        .ids()
        .iter()
        .map(|&id| (id, StoredEntry::compute(snap.get(id).unwrap(), &config).unwrap()))
        .collect();
    let refs: BTreeMap<u64, &StoredEntry> = entries.iter().map(|(&id, e)| (id, e)).collect();
    to_outcome(naive_eval(&Planner::normalize(expr), snap.ids(), &refs))
}

/// As [`archive_oracle`], over a pinned representation-store generation.
fn store_oracle(snap: &StoreSnapshot, expr: &QueryExpr) -> QueryOutcome {
    let ids = snap.ids();
    let refs: BTreeMap<u64, &StoredEntry> =
        ids.iter().map(|&id| (id, snap.get(id).unwrap())).collect();
    to_outcome(naive_eval(&Planner::normalize(expr), &ids, &refs))
}

/// Runs `queries` as one coalesced wave over a pinned snapshot.
fn run_wave(
    engine: &ShardedEngine,
    snap: &ArchiveSnapshot,
    queries: &[QueryExpr],
) -> Vec<QueryOutcome> {
    let requests: Vec<QueryRequest> = queries.iter().cloned().map(QueryRequest::expr).collect();
    engine.run_requests(snap, &requests).unwrap().into_iter().map(|r| r.unwrap().outcome).collect()
}

/// One writer mutation: `(slot, kind, seed)` — slot picks the id, kind
/// picks put/remove/rewrite, seed varies the content.
type WriteOp = (u64, u64, u64);

fn apply_archive_op(archive: &mut ArchiveStore, (slot, kind, seed): WriteOp) {
    let id = slot % 24;
    if kind % 4 == 3 && archive.get(id).is_some() {
        archive.remove(id);
    } else {
        archive.put(id, mixed_sequence(kind + seed, seed));
    }
}

fn small_exprs() -> Vec<QueryExpr> {
    vec![
        QueryExpr::peak_count(2, 1).or(QueryExpr::peak_interval(10, 3)),
        QueryExpr::shape("0* 1+ (-1)+ 0*").and(QueryExpr::peak_count(2, 1).negate()),
        QueryExpr::min_steepness(0.6, 0.2).and(QueryExpr::id_range(0, 15)).top_k(4),
    ]
}

fn batch() -> Vec<QueryExpr> {
    vec![QueryExpr::peak_count(2, 1), QueryExpr::peak_interval(10, 3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        env_usize("SAQ_PROP_SNAPSHOT_CASES", 4) as u32
    ))]

    /// The tentpole property: readers pinning snapshots of a live archive
    /// under concurrent writer churn always match the oracle at their
    /// pinned generation — through the pinned sequential scan engine, the
    /// sharded engine's algebra binding, and its request waves, all sharing
    /// one engine across threads.
    #[test]
    fn concurrent_archive_readers_match_their_pinned_generation(
        corpus in proptest::collection::vec((0u64..4, 0u64..1000), 6..14),
        script in proptest::collection::vec((0u64..24, 0u64..8, 0u64..1000), 8..32),
    ) {
        let mut archive = ArchiveStore::new(Medium::memory());
        for (i, &(kind, seed)) in corpus.iter().enumerate() {
            archive.put(i as u64, mixed_sequence(kind, seed));
        }
        let engine = Arc::new(ShardedEngine::new(EngineConfig { workers: 3, shards: 5 }).unwrap());
        let exprs = small_exprs();
        let queries = batch();
        let stop = AtomicBool::new(false);
        let readers = env_usize("SAQ_PROP_SNAPSHOT_READERS", 3);

        std::thread::scope(|scope| {
            // The writer owns a cloned handle onto the same archive and
            // replays the mutation script until every reader is done.
            let mut writer_handle = archive.clone();
            let script = &script;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for &op in script {
                        apply_archive_op(&mut writer_handle, op);
                    }
                    std::thread::yield_now();
                }
            });

            let mut handles = Vec::new();
            for _ in 0..readers {
                let reader_handle = archive.clone();
                let engine = Arc::clone(&engine);
                let exprs = &exprs;
                let queries = &queries;
                handles.push(scope.spawn(move || {
                    for _ in 0..3 {
                        let snap = reader_handle.snapshot();
                        let generation = snap.generation();
                        for expr in exprs {
                            let expected = archive_oracle(&snap, expr);
                            let scan = ArchiveScanEngine::pinned(snap.clone(), StoreConfig::default());
                            assert_eq!(scan.execute(expr).unwrap(), expected, "pinned scan @{generation}");
                            let bound = engine.bind_snapshot(snap.clone());
                            assert_eq!(bound.execute(expr).unwrap(), expected, "sharded @{generation}");
                            // A second pass through the shared engine
                            // (which other threads drive against newer
                            // generations in between) must not drift.
                            assert_eq!(bound.execute(expr).unwrap(), expected, "rerun @{generation}");
                        }
                        let outs = run_wave(&engine, &snap, queries);
                        for (q, out) in queries.iter().zip(&outs) {
                            assert_eq!(out, &archive_oracle(&snap, q), "wave @{generation}");
                        }
                        assert_eq!(snap.generation(), generation, "a snapshot never moves");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    /// The same property on the representation-store side: readers of a
    /// store behind a `RwLock` pin [`StoreSnapshot`]s (which are engines
    /// themselves) under a brief read lock while a writer inserts,
    /// rewrites, and removes.
    #[test]
    fn concurrent_store_readers_match_their_pinned_generation(
        corpus in proptest::collection::vec((0u64..4, 0u64..1000), 6..12),
        script in proptest::collection::vec((0u64..24, 0u64..8, 0u64..1000), 8..24),
    ) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        for &(kind, seed) in &corpus {
            store.insert(&mixed_sequence(kind, seed)).unwrap();
        }
        let shared = RwLock::new(store);
        let exprs = small_exprs();
        let stop = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let shared_ref = &shared;
            let stop = &stop;
            let script = &script;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for &(slot, kind, seed) in script {
                        let ids = shared_ref.read().unwrap().ids();
                        match (kind % 3, ids.get(slot as usize % ids.len().max(1))) {
                            (0, _) | (_, None) => {
                                let seq = mixed_sequence(kind, seed);
                                shared_ref.write().unwrap().insert(&seq).unwrap();
                            }
                            (1, Some(&id)) => {
                                let seq = mixed_sequence(kind + 1, seed);
                                shared_ref.write().unwrap().reinsert(id, &seq).unwrap();
                            }
                            (_, Some(&id)) => {
                                let _ = shared_ref.write().unwrap().remove(id);
                            }
                        }
                    }
                    std::thread::yield_now();
                }
            });

            let mut handles = Vec::new();
            for _ in 0..env_usize("SAQ_PROP_SNAPSHOT_READERS", 3) {
                let exprs = &exprs;
                handles.push(scope.spawn(move || {
                    for _ in 0..3 {
                        let snap = shared_ref.read().unwrap().snapshot();
                        let stats = snap.index_stats();
                        for expr in exprs {
                            let expected = store_oracle(&snap, expr);
                            assert_eq!(snap.execute(expr).unwrap(), expected);
                        }
                        assert_eq!(snap.index_stats(), stats, "pinned stats never move");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

/// A reader's snapshot is byte-stable across writer generations: results
/// and index statistics re-computed from the pinned snapshot are identical
/// before and after the writer advances N generations, and a re-pin then
/// observes the new state.
#[test]
fn pinned_results_and_stats_are_byte_identical_across_writer_churn() {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    for i in 0..10u64 {
        store.insert(&mixed_sequence(i, i)).unwrap();
    }
    let snap = store.snapshot();
    let exprs = small_exprs();
    let before: Vec<QueryOutcome> = exprs.iter().map(|e| snap.execute(e).unwrap()).collect();
    let stats_before = snap.index_stats();

    for g in 0..20u64 {
        match g % 3 {
            0 => drop(store.insert(&mixed_sequence(g, 100 + g)).unwrap()),
            1 => {
                let id = store.ids()[g as usize % store.len()];
                store.reinsert(id, &mixed_sequence(g + 1, 200 + g)).unwrap();
            }
            _ => drop(store.remove(store.ids()[0]).unwrap()),
        }
    }
    assert!(store.generation() > snap.generation());

    let after: Vec<QueryOutcome> = exprs.iter().map(|e| snap.execute(e).unwrap()).collect();
    assert_eq!(before, after, "pinned results must not move");
    assert_eq!(snap.index_stats(), stats_before, "pinned stats must not move");
    assert_ne!(store.snapshot().index_stats(), stats_before, "a fresh pin sees the writer's churn");
}

/// Dropping the last reference to a superseded snapshot frees the index
/// structures it pinned — the copy-on-write layer holds no leaks.
#[test]
fn dropping_the_last_store_snapshot_frees_superseded_indexes() {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    for i in 0..6u64 {
        store.insert(&mixed_sequence(i, i)).unwrap();
    }
    let snap = store.snapshot();
    let probe = snap.index_probe();

    // The writer replaces every index member; the old ones now live only
    // through the snapshot.
    for (i, id) in store.ids().into_iter().enumerate() {
        store.reinsert(id, &mixed_sequence(i as u64 + 1, 50 + i as u64)).unwrap();
    }
    assert!(probe.is_live(), "snapshot still pins the superseded indexes");
    drop(snap);
    assert!(!probe.is_live(), "last reference gone, superseded indexes freed");
}

/// Incremental maintenance, driven through the snapshot layer: after `k`
/// single-id puts, exactly the `k` dirty documents are new at the pinned
/// generation (every other id shares its document allocation), a feature
/// batch fetches no sequence, and a value band fetches each id once.
#[test]
fn rerun_after_k_puts_replaces_exactly_k_documents() {
    let mut archive = ArchiveStore::new(Medium::memory());
    for i in 0..16u64 {
        archive.put(i, mixed_sequence(i, i));
    }
    let engine = ShardedEngine::new(EngineConfig::default()).unwrap();
    let queries = batch();
    run_wave(&engine, &archive.snapshot(), &queries);
    assert_eq!(archive.fetch_count(), 0, "feature leaves read documents");

    for k in [1u64, 3, 5] {
        let pinned = archive.snapshot();
        let mut writer = archive.clone();
        for i in 0..k {
            writer.put(i, mixed_sequence(i + k, 300 + k * 31 + i));
        }
        let snap = archive.snapshot();
        let replaced: Vec<u64> = snap
            .ids()
            .iter()
            .copied()
            .filter(|&id| !Arc::ptr_eq(&pinned.doc_arc(id).unwrap(), &snap.doc_arc(id).unwrap()))
            .collect();
        assert_eq!(replaced, (0..k).collect::<Vec<_>>(), "exactly the {k} dirty documents");
        let before = archive.fetch_count();
        let outs = run_wave(&engine, &snap, &queries);
        assert_eq!(archive.fetch_count(), before, "a feature batch fetches nothing");
        for (q, out) in queries.iter().zip(&outs) {
            assert_eq!(out, &archive_oracle(&snap, q));
        }
        let band = [QueryExpr::value_band(mixed_sequence(0, 0), 1.0, 0.5)];
        let before = archive.fetch_count();
        let out = run_wave(&engine, &snap, &band);
        assert_eq!(archive.fetch_count() - before, 16, "a band fetches each id once");
        assert_eq!(out[0], archive_oracle(&snap, &band[0]));
    }
}
