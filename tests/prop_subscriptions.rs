//! Standing-query deltas against the batch oracle.
//!
//! The pump contract: after every mutation wave, for every subscription,
//! `entered ∪ (previous − left)` must equal a fresh batch run of the same
//! expression at the pinned generation — no matter which engine evaluates
//! it, how aggressively the pruning ladder skipped work, or how the dirty
//! set was obtained. The suites here drive that invariant through all
//! three engine families (the indexed `StoreEngine`, the pinned
//! `ArchiveScanEngine`, and the sharded engine's snapshot binding),
//! through the `changed_since` wildcard, and under a live writer thread
//! racing the pumps.
//!
//! `SAQ_PROP_SUBSCRIPTION_CASES` raises the proptest case count (the CI
//! stress job sets it).

mod common;

use common::{mixed_sequence, naive_eval, to_outcome};
use proptest::prelude::*;
use saq::archive::{ArchiveScanEngine, ArchiveSnapshot, ArchiveStore, Medium};
use saq::core::algebra::{Planner, QueryExpr, StoreEngine};
use saq::core::store::{SequenceStore, StoreConfig, StoredEntry};
use saq::core::{Delta, SubscriptionId, SubscriptionRegistry};
use saq::engine::{EngineConfig, QueryEngine as ShardedEngine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The sorted id membership a standing query watches: exact and
/// approximate tiers both count.
fn oracle_ids(snap: &ArchiveSnapshot, expr: &QueryExpr) -> Vec<u64> {
    let config = StoreConfig::default();
    let entries: BTreeMap<u64, StoredEntry> = snap
        .ids()
        .iter()
        .map(|&id| (id, StoredEntry::compute(snap.get(id).unwrap(), &config).unwrap()))
        .collect();
    let refs: BTreeMap<u64, &StoredEntry> = entries.iter().map(|(&id, e)| (id, e)).collect();
    let outcome = to_outcome(naive_eval(&Planner::normalize(expr), snap.ids(), &refs));
    membership(outcome)
}

fn store_oracle_ids(store: &SequenceStore, expr: &QueryExpr) -> Vec<u64> {
    let ids = store.ids();
    let refs: BTreeMap<u64, &StoredEntry> =
        ids.iter().map(|&id| (id, store.get(id).unwrap())).collect();
    membership(to_outcome(naive_eval(&Planner::normalize(expr), &ids, &refs)))
}

fn membership(outcome: saq::core::query::QueryOutcome) -> Vec<u64> {
    let mut ids = outcome.exact;
    ids.extend(outcome.approximate.into_iter().map(|m| m.id));
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// A diverse standing-query mix: a feature count, an id-bounded shape
/// (exercises the id-bounds prune), a disjunction and a bare complement
/// (maintained per dirty id), and a TopK whose membership churns as
/// rankings shift (re-run whole).
fn standing_queries() -> Vec<QueryExpr> {
    vec![
        QueryExpr::peak_count(2, 1),
        QueryExpr::shape("0* 1+ (-1)+ 0*").and(QueryExpr::id_range(0, 3)),
        QueryExpr::peak_interval(10, 3).or(QueryExpr::min_steepness(0.8, 0.2)),
        QueryExpr::peak_count(1, 0).negate(),
        QueryExpr::peak_count(1, 0).negate().top_k(3),
    ]
}

/// Applies one pump's delta to the previous membership and checks both
/// against the fresh oracle: the registry's own `current` and the
/// delta-reconstructed set must equal the batch answer.
fn assert_pump_invariant(
    registry: &SubscriptionRegistry,
    prev: &BTreeMap<SubscriptionId, Vec<u64>>,
    deltas: &[(SubscriptionId, Delta)],
    expected: &BTreeMap<SubscriptionId, Vec<u64>>,
    context: &str,
) {
    let empty = Delta::default();
    for (&id, want) in expected {
        let delta = deltas.iter().find(|(d, _)| *d == id).map(|(_, d)| d).unwrap_or(&empty);
        let mut rebuilt: Vec<u64> = prev
            .get(&id)
            .map(|p| p.iter().copied().filter(|x| !delta.left.contains(x)).collect())
            .unwrap_or_default();
        rebuilt.extend_from_slice(&delta.entered);
        rebuilt.sort_unstable();
        rebuilt.dedup();
        assert_eq!(&rebuilt, want, "{context}: entered ∪ (prev − left) != batch oracle");
        assert_eq!(
            registry.current(id),
            Some(want.as_slice()),
            "{context}: registry membership != batch oracle"
        );
    }
}

fn snapshot_current(registry: &SubscriptionRegistry) -> BTreeMap<SubscriptionId, Vec<u64>> {
    registry
        .ids()
        .into_iter()
        .filter_map(|id| registry.current(id).map(|c| (id, c.to_vec())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        env_usize("SAQ_PROP_SUBSCRIPTION_CASES", 4) as u32
    ))]

    /// Archive churn, two registries in lockstep — one pumped through the
    /// pinned scan engine, one through the sharded engine's snapshot
    /// binding. After every wave both match the batch oracle at the
    /// pinned generation and each other, delta for delta.
    #[test]
    fn subscription_deltas_match_the_batch_oracle_under_archive_churn(
        corpus in proptest::collection::vec((0u64..4, 0u64..1000), 4..8),
        script in proptest::collection::vec(
            (0u64..8, 0u64..8, 1u64..48, 0u64..1000), 4..14,
        ),
    ) {
        let mut archive = ArchiveStore::new(Medium::memory());
        for (i, &(kind, seed)) in corpus.iter().enumerate() {
            archive.put(i as u64, mixed_sequence(kind, seed));
        }
        let engine = ShardedEngine::new(EngineConfig { workers: 2, shards: 3 }).unwrap();
        let mut scan_reg = SubscriptionRegistry::new();
        let mut sharded_reg = SubscriptionRegistry::new();
        for expr in standing_queries() {
            scan_reg.register(expr.clone()).unwrap();
            sharded_reg.register(expr).unwrap();
        }
        let mut last_pumped = 0;

        // Wave 0 is the baseline pump; later waves each apply one mutation
        // first. The same snapshot feeds the oracle and both engines.
        for wave in 0..=script.len() {
            if let Some(&(slot, action, n, seed)) = wave.checked_sub(1).and_then(|w| script.get(w)) {
                let id = slot % 8;
                match action % 4 {
                    0 => {
                        archive.remove(id);
                    }
                    1 => archive.put(id, mixed_sequence(action + seed, seed)),
                    _ => {
                        let start = archive
                            .get(id)
                            .map(|s| *s.points().last().unwrap())
                            .unwrap_or_else(|| saq::sequence::Point::new(0.0, 0.0));
                        let tail: Vec<saq::sequence::Point> = (1..=(n % 48) + 1)
                            .map(|i| saq::sequence::Point::new(
                                start.t + i as f64,
                                start.v + ((seed.wrapping_mul(i) % 17) as f64 - 8.0) * 0.2,
                            ))
                            .collect();
                        archive.append_points(id, &tail);
                    }
                }
            }
            let snap = archive.snapshot();
            let dirty = snap.changed_since(last_pumped);
            let expected: BTreeMap<SubscriptionId, Vec<u64>> = scan_reg
                .ids()
                .into_iter()
                .map(|id| (id, oracle_ids(&snap, scan_reg.expr(id).unwrap())))
                .collect();

            let scan = ArchiveScanEngine::pinned(snap.clone(), StoreConfig::default());
            let prev = snapshot_current(&scan_reg);
            let scan_deltas = scan_reg.pump(&scan, dirty.as_deref()).unwrap();
            assert_pump_invariant(&scan_reg, &prev, &scan_deltas, &expected, "scan");

            let prev = snapshot_current(&sharded_reg);
            let sharded_deltas = engine
                .pump_subscriptions(&snap, &mut sharded_reg, last_pumped)
                .unwrap();
            assert_pump_invariant(&sharded_reg, &prev, &sharded_deltas, &expected, "sharded");

            prop_assert_eq!(scan_deltas, sharded_deltas, "engines disagree on wave {}", wave);
            last_pumped = snap.generation();
        }
    }

    /// The indexed store engine under removes, inserts and appends:
    /// pruned or not, membership equals the batch oracle after every
    /// wave.
    #[test]
    fn store_engine_subscriptions_match_under_stats_pruning(
        corpus in proptest::collection::vec((0u64..4, 0u64..1000), 3..7),
        script in proptest::collection::vec(
            (0u64..8, 0u64..8, 1u64..32, 0u64..1000), 4..12,
        ),
    ) {
        let mut store = SequenceStore::new(StoreConfig::streaming()).unwrap();
        for &(kind, seed) in &corpus {
            store.insert(&mixed_sequence(kind, seed)).unwrap();
        }
        let mut registry = SubscriptionRegistry::new();
        for expr in standing_queries() {
            registry.register(expr).unwrap();
        }
        // A query no corpus member can satisfy: its set stays empty, and
        // the invariant must hold for it too.
        registry.register(QueryExpr::peak_interval(4000, 0)).unwrap();

        for wave in 0..=script.len() {
            let dirty: Option<Vec<u64>> =
                match wave.checked_sub(1).and_then(|w| script.get(w)) {
                    None => None, // baseline: wildcard
                    Some(&(slot, action, n, seed)) => {
                        let ids = store.ids();
                        let target = ids.get(slot as usize % ids.len().max(1)).copied();
                        match (action % 4, target) {
                            (0, Some(id)) => {
                                store.remove(id).unwrap();
                                Some(vec![id])
                            }
                            (1, _) | (_, None) => {
                                let id = store.insert(&mixed_sequence(action, seed)).unwrap();
                                Some(vec![id])
                            }
                            (_, Some(id)) => {
                                let last = *store.get(id).unwrap()
                                    .raw.as_ref().unwrap().points().last().unwrap();
                                let tail: Vec<saq::sequence::Point> = (1..=(n % 32) + 1)
                                    .map(|i| saq::sequence::Point::new(
                                        last.t + i as f64,
                                        last.v + ((seed.wrapping_mul(i) % 11) as f64 - 5.0) * 0.3,
                                    ))
                                    .collect();
                                store.append_points(id, &tail).unwrap();
                                Some(vec![id])
                            }
                        }
                    }
                };

            let expected: BTreeMap<SubscriptionId, Vec<u64>> = registry
                .ids()
                .into_iter()
                .map(|id| (id, store_oracle_ids(&store, registry.expr(id).unwrap())))
                .collect();
            let prev = snapshot_current(&registry);
            let engine = StoreEngine::new(&store);
            let deltas = registry.pump(&engine, dirty.as_deref()).unwrap();
            assert_pump_invariant(&registry, &prev, &deltas, &expected, "store");
        }
    }
}

/// The wildcard regression: after `mark_all_changed`, `changed_since`
/// answers `None`, and `None` must re-evaluate *every* subscription —
/// including ones whose id bounds would have pruned any concrete dirty
/// set. Collapsing the wildcard to an empty dirty set would freeze
/// subscriptions forever; this pins the fix.
#[test]
fn changed_since_wildcard_reevaluates_every_subscription() {
    let mut archive = ArchiveStore::new(Medium::memory());
    for i in 0..6u64 {
        archive.put(i, mixed_sequence(i % 4, i));
    }
    let mut registry = SubscriptionRegistry::new();
    let watched = registry.register(QueryExpr::peak_count(2, 1)).unwrap();
    // Bounded far away from every id the wildcard wave touches.
    let bounded =
        registry.register(QueryExpr::peak_count(2, 1).and(QueryExpr::id_range(100, 200))).unwrap();

    let baseline = archive.snapshot();
    let scan = ArchiveScanEngine::pinned(baseline.clone(), StoreConfig::default());
    registry.pump(&scan, baseline.changed_since(0).as_deref()).unwrap();
    let last_pumped = baseline.generation();
    let before = registry.counters().evaluated;
    let prev_watched = registry.current(watched).unwrap().to_vec();
    assert!(!prev_watched.is_empty(), "the corpus must give the watched query members");

    // A wave the mutation log cannot describe: remove one member, then
    // wipe the log.
    archive.remove(prev_watched[0]);
    archive.mark_all_changed();
    let snap = archive.snapshot();
    let dirty = snap.changed_since(last_pumped);
    assert_eq!(dirty, None, "mark_all_changed makes the delta unknowable");

    let scan = ArchiveScanEngine::pinned(snap.clone(), StoreConfig::default());
    let deltas = registry.pump(&scan, dirty.as_deref()).unwrap();
    assert_eq!(
        registry.counters().evaluated - before,
        2,
        "the wildcard must re-evaluate every subscription, id bounds or not"
    );
    assert_eq!(
        deltas,
        vec![(watched, Delta { entered: vec![], left: vec![prev_watched[0]] })],
        "the removal surfaces even though the log could not name it"
    );
    assert_eq!(registry.current(watched), Some(&prev_watched[1..]));
    assert_eq!(registry.current(bounded), Some(&[][..]));
}

/// The live-writer variant, mirroring `prop_snapshot.rs`: a writer thread
/// churns the archive through its own handle while readers pump their own
/// registries against pinned snapshots. Whatever generation a pump pins,
/// its membership must equal the batch oracle at exactly that generation.
#[test]
fn pumps_racing_a_live_writer_match_their_pinned_generation() {
    let mut archive = ArchiveStore::new(Medium::memory());
    for i in 0..8u64 {
        archive.put(i, mixed_sequence(i % 4, i));
    }
    let engine = Arc::new(ShardedEngine::new(EngineConfig { workers: 2, shards: 3 }).unwrap());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut writer = archive.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut round = 0u64;
            while !stop_ref.load(Ordering::Relaxed) {
                let id = round % 10;
                match round % 3 {
                    0 => writer.put(id, mixed_sequence(round % 4, 500 + round)),
                    1 => drop(writer.remove(id)),
                    _ => {
                        let start = writer
                            .get(id)
                            .map(|s| *s.points().last().unwrap())
                            .unwrap_or_else(|| saq::sequence::Point::new(0.0, 1.0));
                        let tail: Vec<saq::sequence::Point> = (1..=5)
                            .map(|i| {
                                saq::sequence::Point::new(
                                    start.t + i as f64,
                                    start.v + (i as f64 * 0.37).sin(),
                                )
                            })
                            .collect();
                        writer.append_points(id, &tail);
                    }
                }
                round += 1;
                std::thread::yield_now();
            }
        });

        let mut handles = Vec::new();
        for _ in 0..env_usize("SAQ_PROP_SUBSCRIPTION_READERS", 2) {
            let reader = archive.clone();
            let engine = Arc::clone(&engine);
            handles.push(scope.spawn(move || {
                let mut registry = SubscriptionRegistry::new();
                for expr in standing_queries() {
                    registry.register(expr).unwrap();
                }
                let mut last_pumped = 0;
                for _ in 0..4 {
                    let snap = reader.snapshot();
                    let prev = snapshot_current(&registry);
                    let deltas =
                        engine.pump_subscriptions(&snap, &mut registry, last_pumped).unwrap();
                    let expected: BTreeMap<SubscriptionId, Vec<u64>> = registry
                        .ids()
                        .into_iter()
                        .map(|id| (id, oracle_ids(&snap, registry.expr(id).unwrap())))
                        .collect();
                    assert_pump_invariant(&registry, &prev, &deltas, &expected, "racing");
                    last_pumped = snap.generation();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}
