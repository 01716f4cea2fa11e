//! # saq-engine
//!
//! A sharded, multi-threaded **batch query executor** over the raw
//! [`ArchiveStore`]. The paper's architecture answers queries from local
//! compact representations; this crate covers the complementary heavy-
//! traffic workload: waves of [`QueryRequest`]s — SAQL text or whole
//! [`saq_core::algebra::QueryExpr`] trees — pushed down to a large archive
//! whose per-sequence representations are computed on demand.
//!
//! The execution model (every wave runs against one [`ArchiveSnapshot`] —
//! the one handed to [`QueryEngine::run_requests`] or bound via
//! [`QueryEngine::bind_snapshot`], or a fresh capture under
//! [`QueryEngine::bind`] — and reads that pinned generation end-to-end,
//! so concurrent writers never tear a wave):
//!
//! 1. **Plan** — an expression is normalized and planned by the shared
//!    [`saq_core::algebra::Planner`], once per request; conjunctive
//!    id-range leaves prune the candidate universe before any shard is
//!    formed. The wave's distinct leaf predicates (its *slots*) are
//!    walked per id in one fixed order, the planner's own rule
//!    [`saq_core::algebra::conjunct_order`] over each slot's access-path
//!    cost class: id filters, then index-served slots, then scans.
//! 2. **Shard** — candidate ids (sorted) are split into contiguous,
//!    near-equal shards ([`shard::plan`]).
//! 3. **Execute** — a fixed pool of worker threads claims shards from a
//!    shared counter; each worker fetches every sequence of its shard once
//!    and emits per-leaf partial results, every leaf evaluated per id in
//!    one loop. Shape and interval leaves are answered from the
//!    sequence's **index document** ([`PreparedPred::matches_doc`]) — the
//!    cold document compaction persisted when the pager serves it, else
//!    the cached entry's own symbols and buckets — and never count as
//!    entry scans. Fetches pay the archive's (simulated, optionally
//!    real-time emulated) access latency, so workers overlap archive
//!    waits the way parallel tape or jukebox requests would; each worker
//!    also keeps its own simulated clock and cache counters, so
//!    [`QueryEngine::last_run_report`] exposes the batch's simulated
//!    *makespan* and per-worker cache stats alongside the serial total.
//! 4. **Cache** — per-sequence break/feature results ([`StoredEntry`]) go
//!    through a bounded LRU ([`cache::LruCache`]) stamped with the
//!    archive's `(instance, generation)`. Invalidation is *incremental*:
//!    when the pinned snapshot can name the ids mutated since the cache's
//!    stamp ([`ArchiveSnapshot::changed_since`]), only those dirty entries
//!    drop, so re-running a batch after `k` puts re-fetches exactly `k`
//!    sequences. Stamping is forward-only: a run pinned to an older
//!    generation reads through without regressing a warmer cache.
//! 5. **Merge & combine** — per-shard hits merge id-sorted per leaf, and
//!    the shared [`saq_core::algebra::execute_plan`] composes leaves into
//!    the final outcome — byte-identical to the sequential engines for any
//!    worker/shard count.
//!
//! ```
//! use saq_archive::{ArchiveStore, Medium};
//! use saq_core::algebra::{QueryEngine as _, QueryExpr};
//! use saq_core::request::QueryRequest;
//! use saq_engine::{EngineConfig, QueryEngine};
//! use saq_sequence::generators::{goalpost, GoalpostSpec};
//!
//! let mut archive = ArchiveStore::new(Medium::local_disk());
//! for id in 0..8 {
//!     archive.put(id, goalpost(GoalpostSpec { seed: id, ..GoalpostSpec::default() }));
//! }
//! let engine = QueryEngine::new(EngineConfig::default()).unwrap();
//! // A coalesced wave: every request's leaves evaluated in one sharded
//! // pass pinned to one snapshot.
//! let wave = [
//!     QueryRequest::saql("peaks = 2"),
//!     QueryRequest::saql("peaks = 2 and id in [0..3]").with_stats(),
//! ];
//! let responses = engine.run_requests(&archive.snapshot(), &wave).unwrap();
//! assert_eq!(responses[0].as_ref().unwrap().outcome.exact.len(), 8);
//! assert_eq!(responses[1].as_ref().unwrap().outcome.exact, vec![0, 1, 2, 3]);
//! // The same pool also answers one expression at a time.
//! let expr = QueryExpr::peak_count(2, 0).and(QueryExpr::id_range(0, 3));
//! assert_eq!(engine.bind(&archive).execute(&expr).unwrap().exact, vec![0, 1, 2, 3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod report;
pub mod shard;

use cache::{CacheStats, LruCache};
use parking_lot::Mutex;
use report::RunReport;
use saq_archive::{ArchiveSnapshot, ArchiveStore};
use saq_core::algebra::{
    conjunct_order, execute_plan, AccessPath, ExecStats, IndexCaps, LeafSource, MatchSet,
    MatchTier, PhysicalPlan, PlanNode, Planner, PreparedPred,
};
use saq_core::request::{self, QueryRequest, QueryResponse, SnapshotRef};
use saq_core::store::{StoreConfig, StoredEntry};
use saq_core::subscribe::{Delta, SubscriptionId, SubscriptionRegistry};
use saq_core::{Error, Result};
use saq_index::DocPager as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuning of the batch executor.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Fixed worker-pool size (≥ 1). One worker degenerates to the
    /// sequential path over the same code.
    pub workers: usize,
    /// Number of shards the id space is split into (≥ 1). More shards than
    /// workers keeps the pool busy when shard costs are skewed.
    pub shards: usize,
    /// Capacity (entries) of the per-sequence feature LRU cache.
    pub cache_capacity: usize,
    /// Ingestion parameters (ε, θ) used when representing an archived
    /// sequence. Raw copies are always retained in cached entries — band
    /// queries need them — regardless of `store.keep_raw`.
    pub store: StoreConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { workers: 4, shards: 16, cache_capacity: 1024, store: StoreConfig::default() }
    }
}

/// The sharded parallel batch query engine. Cheap to keep alive: the
/// feature cache persists across runs, so a warm engine answers repeated
/// batches without re-touching the archive.
///
/// The cache is keyed by sequence id and stamped with the archive's
/// `(instance, generation)` pair: overwriting an archived sequence
/// ([`ArchiveStore::put`]) or pointing the engine at a different archive
/// bumps or changes the stamp, and the next run drops the stale entries
/// automatically. Each run captures its stamp up front and touches the
/// cache only while it still carries that stamp, so even concurrent runs
/// against *different* archives stay correct — the superseded run just
/// stops caching.
#[derive(Debug)]
pub struct QueryEngine {
    config: EngineConfig,
    cache: Mutex<StampedCache>,
    /// Per-worker simulated clocks of the most recent run.
    last_run: Mutex<RunReport>,
}

/// The id-keyed feature cache together with the archive stamp it was
/// filled under, behind one lock so every access atomically answers "does
/// this cache belong to my archive snapshot".
#[derive(Debug)]
struct StampedCache {
    /// `(instance_id, generation)` of the archive the entries belong to;
    /// `None` until the first run.
    stamp: Option<(u64, u64)>,
    lru: LruCache<Arc<StoredEntry>>,
}

impl QueryEngine {
    /// Builds an engine; fails on a degenerate configuration.
    pub fn new(config: EngineConfig) -> Result<QueryEngine> {
        if config.workers == 0 {
            return Err(Error::BadConfig("engine needs at least one worker".into()));
        }
        if config.shards == 0 {
            return Err(Error::BadConfig("engine needs at least one shard".into()));
        }
        if config.cache_capacity == 0 {
            return Err(Error::BadConfig("feature cache needs capacity >= 1".into()));
        }
        // Validate ε/θ the same way the store does.
        saq_core::store::SequenceStore::new(config.store)?;
        Ok(QueryEngine {
            config,
            cache: Mutex::new(StampedCache {
                stamp: None,
                lru: LruCache::new(config.cache_capacity),
            }),
            last_run: Mutex::new(RunReport::default()),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Counters of the per-sequence feature cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().lru.stats()
    }

    /// Per-worker simulated clocks of the most recent
    /// [`QueryEngine::run_requests`] wave or [`BoundEngine`] execution: the
    /// simulated makespan of the parallel pass versus the serial total.
    pub fn last_run_report(&self) -> RunReport {
        self.last_run.lock().clone()
    }

    /// Binds the engine to an archive as a composable-query backend
    /// implementing [`saq_core::algebra::QueryEngine`]: plans fan out
    /// across this engine's worker pool and feature cache, for built
    /// expressions and SAQL text alike:
    ///
    /// ```
    /// use saq_archive::{ArchiveStore, Medium};
    /// use saq_core::algebra::{QueryEngine as _, QueryExpr};
    /// use saq_engine::{EngineConfig, QueryEngine};
    /// use saq_sequence::generators::{goalpost, GoalpostSpec};
    ///
    /// let mut archive = ArchiveStore::new(Medium::memory());
    /// for id in 0..6 {
    ///     archive.put(id, goalpost(GoalpostSpec { seed: id, ..GoalpostSpec::default() }));
    /// }
    /// let engine = QueryEngine::new(EngineConfig::default()).unwrap();
    /// let bound = engine.bind(&archive);
    /// let expr = QueryExpr::peak_count(2, 0).and(QueryExpr::id_range(2, 4));
    /// assert_eq!(bound.execute(&expr).unwrap().exact, vec![2, 3, 4]);
    /// // Same query, as a SAQL request.
    /// use saq_core::request::QueryRequest;
    /// let resp = bound.request(&QueryRequest::saql("peaks = 2 and id in [2..4]")).unwrap();
    /// assert_eq!(resp.outcome.exact, vec![2, 3, 4]);
    /// ```
    pub fn bind<'e>(&'e self, archive: &'e ArchiveStore) -> BoundEngine<'e> {
        BoundEngine { engine: self, target: BoundTarget::Live(archive) }
    }

    /// As [`QueryEngine::bind`], but pinned to one [`ArchiveSnapshot`]:
    /// every execution reads that generation, no matter how far the live
    /// archive has moved on. This is the engine concurrent readers use —
    /// capture a snapshot, bind it, query without any locking.
    pub fn bind_snapshot(&self, snapshot: ArchiveSnapshot) -> BoundEngine<'_> {
        BoundEngine { engine: self, target: BoundTarget::Pinned(snapshot) }
    }

    /// Answers a **coalesced wave** of requests against one pinned
    /// snapshot: every request is planned, the distinct leaf predicates
    /// across the whole wave are evaluated in a *single* sharded pass of
    /// the worker pool (one fetch per candidate sequence for the entire
    /// wave, shared leaf results for identical predicates), and each
    /// request's plan is then composed from the shared results. This is
    /// the entry point the `saqd` server feeds — the ROADMAP's "one
    /// snapshot per coalesced batch wave".
    ///
    /// Returns one `Result` per request, in request order: a bad query
    /// (SAQL parse failure, invalid predicate, snapshot-pin mismatch)
    /// fails *that* request without poisoning the rest of the wave. Only
    /// wave-level failures — an archive id vanishing mid-evaluation — fail
    /// the whole call.
    pub fn run_requests(
        &self,
        snapshot: &ArchiveSnapshot,
        requests: &[QueryRequest],
    ) -> Result<Vec<Result<QueryResponse>>> {
        let current = SnapshotRef::new(snapshot.instance_id(), snapshot.generation());
        let ids = snapshot.ids();
        let mut slots: Vec<WaveSlot> = Vec::new();
        let prepped: Vec<Result<PreppedRequest>> = requests
            .iter()
            .map(|req| {
                // Full index capability: shape and interval leaves get the
                // index paths, which the workers answer from index documents.
                let plan = request::prepare(req, current, |_| Planner::new(IndexCaps::all()))?;
                let universe: Vec<u64> = match plan.id_bounds() {
                    Some((lo, hi)) => {
                        ids.iter().copied().filter(|id| (lo..=hi).contains(id)).collect()
                    }
                    None => ids.to_vec(),
                };
                // Identical predicates across the wave share one slot —
                // and therefore one evaluation — in the sharded pass.
                let leaf_slots = plan
                    .leaves()
                    .into_iter()
                    .map(|node| {
                        let PlanNode::Leaf { pred, path, .. } = node else {
                            unreachable!("leaves() yields only leaves")
                        };
                        slots.iter().position(|s| s.pred.pred() == pred.pred()).unwrap_or_else(
                            || {
                                slots.push(WaveSlot { pred: pred.as_ref().clone(), path: *path });
                                slots.len() - 1
                            },
                        )
                    })
                    .collect();
                Ok(PreppedRequest { plan, universe, leaf_slots })
            })
            .collect();

        // The wave's evaluation universe: the union of the (id-bounds
        // pruned) per-request universes. Any unbounded request widens it
        // to every archived id.
        let union: Vec<u64> =
            if prepped.iter().flatten().any(|prep| prep.universe.len() == ids.len()) {
                ids.to_vec()
            } else {
                let mut merged: Vec<u64> =
                    prepped.iter().flatten().flat_map(|p| p.universe.iter().copied()).collect();
                merged.sort_unstable();
                merged.dedup();
                merged
            };

        let stamp = self.ensure_fresh(snapshot);
        let guards = wave_guards(&slots, &prepped);
        let (sets, report, leaf_evals) =
            self.eval_leaves(snapshot, &union, &slots, stamp, &guards)?;
        *self.last_run.lock() = report;

        Ok(requests
            .iter()
            .zip(prepped)
            .map(|(req, prep)| {
                let prep = prep?;
                let mut source = WaveSource {
                    universe: &prep.universe,
                    leaf_slots: &prep.leaf_slots,
                    sets: &sets,
                };
                let (outcome, mut stats) = execute_plan(&prep.plan, &mut source)?;
                // The sharded pass evaluated this request's scan leaves
                // over the whole wave universe; report the per-entry
                // evaluations performed on its behalf (index-path
                // leaves count none, shared leaves are counted once
                // per request they serve).
                stats.entries_scanned = prep.leaf_slots.iter().map(|&s| leaf_evals[s]).sum();
                Ok(request::respond(req, current, &prep.plan, outcome, stats))
            })
            .collect())
    }

    /// Re-evaluates a [`SubscriptionRegistry`]'s standing queries against
    /// one pinned snapshot, pruning with the exact set of ids mutated
    /// since generation `last_pumped`
    /// ([`ArchiveSnapshot::changed_since`]). Subscriptions that execute
    /// run through this engine's sharded pool and feature cache — a pump
    /// after a k-id wave re-fetches at most those k sequences.
    ///
    /// `changed_since` answering `None` is the **wildcard**: an id-less
    /// whole-archive mutation ([`ArchiveStore::mark_all_changed`]) or a
    /// delta that fell off the bounded mutation log. It flows through to
    /// [`SubscriptionRegistry::pump`] as `None`, which re-evaluates every
    /// subscription — collapsing it to an empty dirty set would silently
    /// freeze them all (the regression `tests/prop_subscriptions.rs`
    /// guards).
    pub fn pump_subscriptions(
        &self,
        snapshot: &ArchiveSnapshot,
        registry: &mut SubscriptionRegistry,
        last_pumped: u64,
    ) -> Result<Vec<(SubscriptionId, Delta)>> {
        let dirty = snapshot.changed_since(last_pumped);
        let bound = self.bind_snapshot(snapshot.clone());
        registry.pump(&bound, dirty.as_deref())
    }

    /// Re-stamps the cache for the run's pinned `(instance, generation)`
    /// pair and returns that stamp for the run to carry (cache reads and
    /// fills are only honored while the cache still carries the run's
    /// stamp).
    ///
    /// Invalidation is **incremental** whenever possible: if the cache was
    /// filled under an older generation of the *same* archive and the
    /// snapshot can name the ids mutated in between
    /// ([`ArchiveSnapshot::changed_since`]), exactly those dirty entries
    /// are dropped and every clean entry survives — a re-run after `k`
    /// puts re-fetches only the `k` dirty ids. Only when the delta is
    /// unknown (different archive, wildcard mutation, or a delta older
    /// than the archive's bounded mutation log) does the whole cache
    /// reset.
    ///
    /// The stamp only ever moves *forward*: a run pinned to an older
    /// snapshot than the cache's stamp (same instance) leaves the warm
    /// cache to its newer owner and simply bypasses it — the per-access
    /// stamp check in [`QueryEngine::entry_for`] keeps the pinned run from
    /// reading entries of the wrong generation.
    fn ensure_fresh(&self, snapshot: &ArchiveSnapshot) -> (u64, u64) {
        let current = (snapshot.instance_id(), snapshot.generation());
        let mut cache = self.cache.lock();
        match cache.stamp {
            Some(stamp) if stamp == current => {}
            Some((instance, generation)) if instance == current.0 && generation > current.1 => {
                // The cache already belongs to a newer generation of this
                // archive; don't regress it for an old-pinned run.
            }
            Some((instance, generation)) if instance == current.0 => {
                match snapshot.changed_since(generation) {
                    Some(dirty) => {
                        for id in dirty {
                            cache.lru.remove(id);
                        }
                    }
                    None => cache.lru = LruCache::new(self.config.cache_capacity),
                }
                cache.stamp = Some(current);
            }
            Some(_) => {
                cache.lru = LruCache::new(self.config.cache_capacity);
                cache.stamp = Some(current);
            }
            None => cache.stamp = Some(current),
        }
        current
    }

    /// Evaluates every leaf predicate against every candidate id using the
    /// sharded worker pool; returns one id-sorted [`MatchSet`] per leaf,
    /// the per-worker report (simulated clocks + cache counters), and the
    /// number of per-entry predicate evaluations performed *per leaf*
    /// (index-path leaves, answered from index documents, contribute none,
    /// and evaluations skipped under a conjunctive guard are not counted).
    ///
    /// Every shard walks the slots in one fixed order, [`slot_order`], and
    /// skips a slot's evaluation for an id one of its `guards` already
    /// rejected. One pass of the pool covers every shard: each worker
    /// claims shards from a shared counter and hands back its own clock,
    /// cache counters and evaluation counts when the shards run out.
    fn eval_leaves(
        &self,
        snapshot: &ArchiveSnapshot,
        ids: &[u64],
        slots: &[WaveSlot],
        stamp: (u64, u64),
        guards: &[Vec<usize>],
    ) -> Result<(Vec<MatchSet>, RunReport, Vec<u64>)> {
        let shards = shard::plan(ids.len(), self.config.shards);
        if shards.is_empty() || slots.is_empty() {
            return Ok((
                vec![MatchSet::new(); slots.len()],
                RunReport::new(0),
                vec![0; slots.len()],
            ));
        }
        let order = slot_order(slots);
        let policy = ScanPolicy { order: &order, guards };
        let next_shard = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let workers = self.config.workers.min(shards.len());

        let tallies = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tally = WorkerTally {
                            hits: vec![Vec::new(); slots.len()],
                            sim_seconds: 0.0,
                            cache: CacheStats::default(),
                            leaf_evals: vec![0; slots.len()],
                        };
                        loop {
                            let s = next_shard.fetch_add(1, Ordering::Relaxed);
                            if s >= shards.len() || abort.load(Ordering::Relaxed) {
                                return Ok(tally);
                            }
                            let shard = &ids[shards[s].clone()];
                            if let Err(e) =
                                self.eval_shard(snapshot, shard, slots, stamp, policy, &mut tally)
                            {
                                abort.store(true, Ordering::Relaxed);
                                return Err(e);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect::<Result<Vec<WorkerTally>>>()
        })?;

        let mut sets = vec![MatchSet::new(); slots.len()];
        let mut leaf_evals = vec![0; slots.len()];
        let mut report = RunReport::default();
        for tally in tallies {
            for (set, hits) in sets.iter_mut().zip(tally.hits) {
                for (id, tier) in hits {
                    set.insert(id, tier);
                }
            }
            for (total, n) in leaf_evals.iter_mut().zip(tally.leaf_evals) {
                *total += n;
            }
            report.per_worker_sim_seconds.push(tally.sim_seconds);
            report.per_worker_cache.push(tally.cache);
        }
        Ok((sets, report, leaf_evals))
    }

    /// Evaluates every leaf against every id of one shard, in one per-id
    /// loop, through the feature cache, adding the hits to the worker's
    /// `tally`.
    ///
    /// Index-path leaves (shape, peak interval) are answered from the
    /// sequence's index document and never count as entry scans; only
    /// scan-path leaves (peak count, steepness, value bands) pay a
    /// per-entry evaluation, counted per leaf in
    /// [`WorkerTally::leaf_evals`].
    ///
    /// When no leaf scans entries, the document is the archive's **cold
    /// document** ([`ArchiveSnapshot::cold_docs`]) where available —
    /// documents persisted by the last compaction under the same
    /// representation parameters page in from the durable segment instead
    /// of re-running fetch → break → represent per id. Ids the pager
    /// refuses (mutated since compaction, or simply absent) fall back to
    /// the cached entry, whose symbols and buckets are the same document,
    /// so results never depend on cold coverage.
    ///
    /// The scan policy orders the per-id slot evaluations and names each
    /// slot's conjunctive guards: when a guard evaluated earlier for the
    /// same id already *rejected* it, the slot's evaluation is skipped —
    /// every request using the slot also intersects with that guard, so
    /// the id cannot reach any outcome the slot feeds. Skips never elide
    /// the entry fetch itself, only the predicate evaluation.
    fn eval_shard(
        &self,
        snapshot: &ArchiveSnapshot,
        ids: &[u64],
        slots: &[WaveSlot],
        stamp: (u64, u64),
        policy: ScanPolicy<'_>,
        tally: &mut WorkerTally,
    ) -> Result<()> {
        let needs_scan = slots.iter().any(|s| s.path == AccessPath::Scan);
        let has_index = slots
            .iter()
            .any(|s| matches!(s.path, AccessPath::PatternIndex | AccessPath::IntervalIndex));
        let cold = if has_index && !needs_scan {
            snapshot.cold_docs().filter(|c| c.matches_config(&self.ingest_config())).cloned()
        } else {
            None
        };
        // Per-id verdicts for this shard's scan loop: NotEvaluated also
        // covers skipped slots, so a skipped slot never guards another.
        let mut verdicts = vec![Verdict::NotEvaluated; slots.len()];
        for &id in ids {
            let doc = cold.as_ref().and_then(|c| c.doc(id));
            let entry = if needs_scan || (has_index && doc.is_none()) {
                let (entry, cost, cache) = self.entry_for(snapshot, id, stamp)?;
                tally.sim_seconds += cost;
                tally.cache.merge(cache);
                Some(entry)
            } else {
                None
            };
            verdicts.fill(Verdict::NotEvaluated);
            for &ix in policy.order {
                let pred = &slots[ix].pred;
                let hit = match slots[ix].path {
                    AccessPath::IdFilter => pred.matches(id, None),
                    AccessPath::Scan => {
                        if policy.guards[ix].iter().any(|&g| verdicts[g] == Verdict::Rejected) {
                            continue;
                        }
                        tally.leaf_evals[ix] += 1;
                        pred.matches(id, entry.as_deref())
                    }
                    AccessPath::PatternIndex | AccessPath::IntervalIndex => match &doc {
                        Some(doc) => pred.matches_doc(&doc.as_doc()),
                        None => pred.matches(id, entry.as_deref()),
                    },
                };
                verdicts[ix] = match hit {
                    Some(m) => {
                        tally.hits[ix].push((id, MatchTier::from_match(m)));
                        Verdict::Matched
                    }
                    None => Verdict::Rejected,
                };
            }
        }
        Ok(())
    }

    /// The cached fetch → break → represent pipeline for one sequence;
    /// also returns the simulated seconds the fetch cost (0 on a hit) and
    /// this lookup's cache counters (for per-worker accounting).
    /// The cache is consulted and filled only while it still carries this
    /// run's `stamp` — if a concurrent run re-stamped it for a different
    /// archive, this run computes fresh entries and leaves the cache to
    /// its new owner.
    fn entry_for(
        &self,
        snapshot: &ArchiveSnapshot,
        id: u64,
        stamp: (u64, u64),
    ) -> Result<(Arc<StoredEntry>, f64, CacheStats)> {
        {
            let mut cache = self.cache.lock();
            if cache.stamp == Some(stamp) {
                if let Some(entry) = cache.lru.get(id) {
                    return Ok((entry, 0.0, CacheStats { hits: 1, ..CacheStats::default() }));
                }
            }
        }
        let (seq, cost) = snapshot.fetch(id).ok_or(Error::UnknownSequence { id })?;
        let entry = Arc::new(StoredEntry::compute(seq, &self.ingest_config())?);
        let mut delta = CacheStats { misses: 1, ..CacheStats::default() };
        let mut cache = self.cache.lock();
        if cache.stamp == Some(stamp) && cache.lru.insert(id, entry.clone()) {
            delta.evictions = 1;
        }
        Ok((entry, cost.total(), delta))
    }

    /// The store config with raw retention forced on (band queries need the
    /// raw samples).
    fn ingest_config(&self) -> StoreConfig {
        StoreConfig { keep_raw: true, ..self.config.store }
    }
}

/// What one worker accrued over the shards it claimed.
struct WorkerTally {
    /// Per-leaf hit lists.
    hits: Vec<Vec<(u64, MatchTier)>>,
    /// Simulated archive seconds this worker's fetches cost.
    sim_seconds: f64,
    /// Cache counters observed while materializing this worker's entries.
    cache: CacheStats,
    /// Per-entry predicate evaluations, per leaf (scan-path leaves
    /// only; index-path leaves stay 0).
    leaf_evals: Vec<u64>,
}

/// One distinct leaf predicate of a wave and the access path its plan
/// leaves carry (every plan of a wave comes from the same
/// [`IndexCaps::all`] planner, so equal predicates share one path).
struct WaveSlot {
    pred: PreparedPred,
    path: AccessPath,
}

/// One id's verdict for one slot within a shard's scan loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Not reached yet, or skipped under a guard.
    NotEvaluated,
    Rejected,
    Matched,
}

/// The scan policy a wave runs under: the order the per-id loop walks
/// the slots in, and each slot's conjunctive guards.
#[derive(Clone, Copy)]
struct ScanPolicy<'a> {
    order: &'a [usize],
    guards: &'a [Vec<usize>],
}

/// The order the per-id loop walks a wave's slots in: the planner's own
/// conjunct rule over each slot's access-path cost class — id filters
/// first, then index-served slots, then scans, each class in declaration
/// order.
fn slot_order(slots: &[WaveSlot]) -> Vec<usize> {
    conjunct_order(slots.iter().map(|slot| (slot.path.cost_class(), None)))
}

/// Collects the slots that appear under a pipeline breaker
/// (`Limit`/`TopK`) anywhere in a request's plan. A breaker's truncation
/// can turn one id's absence into a *different* id's presence, so these
/// slots must never skip an evaluation.
fn breaker_slots(
    node: &PlanNode,
    leaf_slots: &[usize],
    under: bool,
    out: &mut std::collections::BTreeSet<usize>,
) {
    match node {
        PlanNode::Leaf { ix, .. } => {
            if under {
                out.insert(leaf_slots[*ix]);
            }
        }
        PlanNode::And { children, .. } | PlanNode::Or(children) => {
            children.iter().for_each(|c| breaker_slots(c, leaf_slots, under, out));
        }
        PlanNode::Not(child) => breaker_slots(child, leaf_slots, under, out),
        PlanNode::Limit(child, _) | PlanNode::TopK(child, _) => {
            breaker_slots(child, leaf_slots, true, out);
        }
    }
}

/// Derives each wave slot's conjunctive guards: the id-filter or scan
/// slots that are a direct conjunct sibling of the slot's root `And` in
/// **every** request using it. An id a guard rejected is excluded from
/// every outcome the slot can feed, so its evaluation may be skipped.
///
/// A guard is sound only if it holds in **every** request that shares
/// the slot: the guard sets are the intersection, over each request
/// using a slot, of the id-filter and scan leaf slots sitting as direct
/// children of that request's root `And` — and a request whose root is
/// not an `And`, or that reads the slot under a pipeline breaker,
/// contributes the empty set. Skipping an id the guard rejected is then
/// outcome-preserving: the final conjunction intersects with the guard's
/// match set, which excludes that id, in every consuming request.
fn wave_guards(slots: &[WaveSlot], prepped: &[Result<PreppedRequest>]) -> Vec<Vec<usize>> {
    use std::collections::BTreeSet;
    let mut guards: Vec<Option<BTreeSet<usize>>> = vec![None; slots.len()];
    for prep in prepped.iter().flatten() {
        let conjuncts: BTreeSet<usize> = match prep.plan.root() {
            PlanNode::And { children, .. } => children
                .iter()
                .filter_map(|child| match child {
                    PlanNode::Leaf { ix, .. } => Some(prep.leaf_slots[*ix]),
                    _ => None,
                })
                .filter(|&s| matches!(slots[s].path, AccessPath::IdFilter | AccessPath::Scan))
                .collect(),
            _ => BTreeSet::new(),
        };
        let mut breakered = BTreeSet::new();
        breaker_slots(prep.plan.root(), &prep.leaf_slots, false, &mut breakered);
        for &slot in &prep.leaf_slots {
            let mut mine =
                if breakered.contains(&slot) { BTreeSet::new() } else { conjuncts.clone() };
            mine.remove(&slot);
            match guards[slot].as_mut() {
                Some(acc) => acc.retain(|g| mine.contains(g)),
                None => guards[slot] = Some(mine),
            }
        }
    }
    guards.into_iter().map(|g| g.unwrap_or_default().into_iter().collect()).collect()
}

/// A [`QueryEngine`] bound to one archive: the sharded implementation of
/// the algebra's engine trait. Leaves of a planned expression are
/// evaluated in a single pass of the worker pool (one fetch per candidate
/// sequence regardless of leaf count), then composed by the shared plan
/// executor — so outcomes are id-identical to the sequential engines.
///
/// ```
/// use saq_archive::{ArchiveStore, Medium};
/// use saq_core::algebra::{QueryEngine as _, QueryExpr};
/// use saq_engine::{EngineConfig, QueryEngine};
/// use saq_sequence::generators::{goalpost, GoalpostSpec};
///
/// let mut archive = ArchiveStore::new(Medium::memory());
/// archive.put(1, goalpost(GoalpostSpec::default()));
/// let engine = QueryEngine::new(EngineConfig::default()).unwrap();
/// let bound = engine.bind(&archive);
/// let out = bound.execute(&QueryExpr::peak_count(2, 0).negate()).unwrap();
/// assert!(out.exact.is_empty());
/// ```
#[derive(Debug)]
pub struct BoundEngine<'e> {
    engine: &'e QueryEngine,
    target: BoundTarget<'e>,
}

/// What a [`BoundEngine`] execution reads: a live archive (each run
/// captures a fresh snapshot) or one pinned generation.
#[derive(Debug)]
enum BoundTarget<'e> {
    Live(&'e ArchiveStore),
    Pinned(ArchiveSnapshot),
}

impl saq_core::algebra::QueryEngine for BoundEngine<'_> {
    /// A single-request wave of [`QueryEngine::run_requests`]: the
    /// planner's universe, every shard's leaf evaluation, and the feature
    /// cache stamp all read one pinned generation.
    fn request(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let snapshot = match &self.target {
            BoundTarget::Live(archive) => archive.snapshot(),
            BoundTarget::Pinned(snapshot) => snapshot.clone(),
        };
        self.engine
            .run_requests(&snapshot, std::slice::from_ref(req))?
            .pop()
            .expect("one response per request")
    }
}

/// One request of a wave, planned and mapped onto the wave's shared leaf
/// slots.
struct PreppedRequest {
    plan: PhysicalPlan,
    /// This request's candidate universe (the snapshot's sorted ids,
    /// pruned by the plan's id bounds).
    universe: Vec<u64>,
    /// For each plan leaf (by leaf `ix`), the wave-global predicate slot
    /// whose evaluated [`MatchSet`] serves it.
    leaf_slots: Vec<usize>,
}

/// [`LeafSource`] over the leaf results a wave's sharded pass already
/// produced. Leaves were evaluated over the wave's *union* universe, so
/// every lookup is restricted to this request's own universe (or the
/// narrower candidate list the plan's conjunction ordering supplies) —
/// `Not` and unconstrained leaves must never see another request's ids.
struct WaveSource<'a> {
    universe: &'a [u64],
    leaf_slots: &'a [usize],
    sets: &'a [MatchSet],
}

impl LeafSource for WaveSource<'_> {
    fn universe(&mut self) -> Result<Vec<u64>> {
        Ok(self.universe.to_vec())
    }

    fn eval_leaf(
        &mut self,
        ix: usize,
        _pred: &PreparedPred,
        path: AccessPath,
        candidates: Option<&[u64]>,
        stats: &mut ExecStats,
    ) -> Result<MatchSet> {
        match path {
            AccessPath::IdFilter | AccessPath::PatternIndex | AccessPath::IntervalIndex => {
                stats.index_leaves += 1;
            }
            AccessPath::Scan => stats.scan_leaves += 1,
        }
        let set = self.sets[self.leaf_slots[ix]].clone();
        Ok(set.restrict(candidates.unwrap_or(self.universe)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_archive::{ArchiveScanEngine, Medium};
    use saq_core::algebra::{QueryEngine as _, QueryExpr};
    use saq_core::query::QueryOutcome;
    use saq_sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
    use saq_sequence::Sequence;

    fn mixed_archive(n: u64) -> ArchiveStore {
        let mut archive = ArchiveStore::new(Medium::memory());
        for id in 0..n {
            let seq = match id % 3 {
                0 => goalpost(GoalpostSpec { seed: id, noise: 0.1, ..GoalpostSpec::default() }),
                1 => peaks(PeaksSpec {
                    centers: vec![5.0, 12.0, 19.0],
                    seed: id,
                    noise: 0.1,
                    ..PeaksSpec::default()
                }),
                _ => random_walk(64, 0.0, 0.2, id),
            };
            archive.put(id, seq);
        }
        archive
    }

    fn batch() -> Vec<QueryRequest> {
        [
            QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
            QueryExpr::peak_count(2, 1),
            QueryExpr::peak_interval(7, 2),
            QueryExpr::has_steep_peak(1.5, 0.3),
            QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.0, 0.5),
        ]
        .map(QueryRequest::expr)
        .into()
    }

    fn two_peaks() -> Vec<QueryRequest> {
        vec![QueryRequest::expr(QueryExpr::peak_count(2, 0))]
    }

    /// One wave over a fresh snapshot of `archive`; every request must
    /// succeed.
    fn run(
        engine: &QueryEngine,
        archive: &ArchiveStore,
        wave: &[QueryRequest],
    ) -> Vec<QueryOutcome> {
        run_pinned(engine, &archive.snapshot(), wave)
    }

    fn run_pinned(
        engine: &QueryEngine,
        snapshot: &ArchiveSnapshot,
        wave: &[QueryRequest],
    ) -> Vec<QueryOutcome> {
        let responses = engine.run_requests(snapshot, wave).unwrap();
        responses.into_iter().map(|r| r.unwrap().outcome).collect()
    }

    /// The sequential reference: fetch → break → represent →
    /// `PreparedPred::matches` per id, no sharding, no cache.
    fn sequential(archive: &ArchiveStore, wave: &[QueryRequest]) -> Vec<QueryOutcome> {
        let scan = ArchiveScanEngine::new(archive, StoreConfig::default());
        wave.iter().map(|req| scan.request(req).unwrap().outcome).collect()
    }

    #[test]
    fn parallel_equals_sequential_across_worker_counts() {
        let archive = mixed_archive(30);
        let reference = sequential(&archive, &batch());
        for workers in [1, 2, 4, 8] {
            for shards in [1, 3, 16, 64] {
                let engine =
                    QueryEngine::new(EngineConfig { workers, shards, ..EngineConfig::default() })
                        .unwrap();
                let out = run(&engine, &archive, &batch());
                assert_eq!(out, reference, "workers={workers} shards={shards}");
            }
        }
    }

    #[test]
    fn batch_finds_the_goalposts() {
        let archive = mixed_archive(30);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let out = run(&engine, &archive, &batch());
        // Ids 0, 3, 6, ... are goalposts: two peaks each.
        let twos = &out[1];
        for id in (0..30).step_by(3) {
            assert!(twos.all_ids().contains(&id), "goalpost {id} missing: {twos:?}");
        }
    }

    #[test]
    fn cache_serves_repeated_batches() {
        let archive = mixed_archive(12);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let first = run(&engine, &archive, &batch());
        let cold = engine.cache_stats();
        assert_eq!(cold.misses, 12, "one miss per sequence");
        let fetched = archive.fetch_count();
        let second = run(&engine, &archive, &batch());
        let warm = engine.cache_stats();
        assert_eq!(first, second);
        assert_eq!(warm.misses, cold.misses, "warm run recomputes nothing");
        assert_eq!(warm.hits, cold.hits + 12);
        assert_eq!(archive.fetch_count(), fetched, "warm run never touches the archive");
        assert_eq!(
            engine.last_run_report().sim_total_seconds(),
            0.0,
            "warm per-worker clocks stay idle"
        );
    }

    #[test]
    fn cold_documents_serve_index_leaves_without_fetching() {
        use saq_archive::DurabilityConfig;
        use saq_durable::{Backend, MemoryBackend};
        let backend: Arc<dyn Backend> = Arc::new(MemoryBackend::new());
        let config =
            DurabilityConfig { compact_after: 0, index_docs: Some(StoreConfig::default()) };
        let mut archive = ArchiveStore::open_backend(backend, Medium::memory(), config).unwrap();
        let template = mixed_archive(12);
        for &id in template.ids().iter() {
            archive.put(id, template.snapshot().fetch(id).unwrap().0.clone());
        }
        archive.compact().unwrap();
        let index_batch = vec![
            QueryRequest::expr(QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*")),
            QueryRequest::expr(QueryExpr::peak_interval(7, 2)),
        ];
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let reference = sequential(&template, &index_batch);
        let before = archive.fetch_count();
        let out = run(&engine, &archive, &index_batch);
        assert_eq!(out, reference, "cold-served results match recomputing everything");
        assert_eq!(
            archive.fetch_count(),
            before,
            "an index-only batch pages cold documents and fetches no sequences"
        );
        // A mutated id is refused by the pager and falls back to the full
        // fetch → break → represent pipeline; everything else stays cold.
        archive.put(3, random_walk(64, 0.0, 0.2, 99));
        let before = archive.fetch_count();
        let out = run(&engine, &archive, &index_batch);
        assert_eq!(archive.fetch_count() - before, 1, "only the dirtied id pays a fetch");
        assert_eq!(out, sequential(&archive, &index_batch));
        // Entry-scan leaves force the pipeline regardless of cold docs.
        let before = archive.fetch_count();
        run(&engine, &archive, &two_peaks());
        assert!(archive.fetch_count() > before, "scan leaves still fetch");
    }

    #[test]
    fn tiny_cache_still_correct() {
        let archive = mixed_archive(20);
        let engine = QueryEngine::new(EngineConfig {
            cache_capacity: 2,
            workers: 4,
            ..EngineConfig::default()
        })
        .unwrap();
        assert_eq!(run(&engine, &archive, &batch()), sequential(&archive, &batch()));
        assert!(engine.cache_stats().evictions > 0, "capacity 2 must evict");
    }

    #[test]
    fn generation_stamp_invalidates_replaced_sequences() {
        let mut archive = ArchiveStore::new(Medium::memory());
        archive.put(1, goalpost(GoalpostSpec::default()));
        archive.put(2, goalpost(GoalpostSpec::default()));
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        assert_eq!(run(&engine, &archive, &two_peaks())[0].exact, vec![1, 2]);

        // Replace id 1 with a one-peak sequence: the put bumps the
        // archive's generation and logs the dirty id, so the warm engine
        // drops exactly that entry on the next run — id 2 stays cached.
        archive.put(1, peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }));
        assert_eq!(run(&engine, &archive, &two_peaks())[0].exact, vec![2]);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 3, "two cold misses + the one dirty id");
        assert_eq!(stats.hits, 1, "the clean entry survived the re-stamp");
    }

    #[test]
    fn incremental_rerun_touches_only_dirty_ids() {
        let mut archive = mixed_archive(20);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        run(&engine, &archive, &batch());
        assert_eq!(archive.fetch_count(), 20, "cold run fetches everything");

        // k = 3 puts: one brand-new id, two replacements.
        archive.put(100, goalpost(GoalpostSpec { seed: 100, ..GoalpostSpec::default() }));
        archive.put(4, peaks(PeaksSpec { centers: vec![12.0], seed: 4, ..PeaksSpec::default() }));
        archive.put(7, random_walk(64, 0.0, 0.2, 77));
        let before = archive.fetch_count();
        let out = run(&engine, &archive, &batch());
        assert_eq!(
            archive.fetch_count() - before,
            3,
            "incremental re-run fetches exactly the k dirty ids"
        );
        assert_eq!(out, sequential(&archive, &batch()), "incremental results match a cold scan");
        assert_eq!(engine.last_run_report().cache_totals().misses, 3);

        // A wildcard mutation degrades to full invalidation — correct,
        // just not incremental.
        archive.mark_all_changed();
        let before = archive.fetch_count();
        let out = run(&engine, &archive, &batch());
        assert_eq!(archive.fetch_count() - before, 21, "unknown delta refetches everything");
        assert_eq!(out, sequential(&archive, &batch()));
    }

    #[test]
    fn pinned_runs_read_their_generation_while_the_archive_moves_on() {
        let mut archive = mixed_archive(6);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let snap = archive.snapshot();
        let expected = run(&engine, &archive, &batch());
        let expr = QueryExpr::peak_count(2, 1).or(QueryExpr::peak_interval(10, 3));
        let expr_expected = engine.bind(&archive).execute(&expr).unwrap();

        // The writer removes and rewrites sequences after the pin.
        archive.remove(0);
        archive.put(1, random_walk(64, 0.0, 0.2, 99));
        archive.put(50, goalpost(GoalpostSpec { seed: 50, ..GoalpostSpec::default() }));
        assert_ne!(run(&engine, &archive, &batch()), expected, "live results moved on");

        // Pinned runs — wave and bound engine alike — still see the old state.
        assert_eq!(run_pinned(&engine, &snap, &batch()), expected);
        assert_eq!(engine.bind_snapshot(snap).execute(&expr).unwrap(), expr_expected);
    }

    #[test]
    fn index_documents_serve_shape_and_interval_leaves() {
        let archive = mixed_archive(30);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let expr =
            QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*").and(QueryExpr::peak_interval(10, 3));
        let (out, stats) = engine.bind(&archive).execute_with_stats(&expr).unwrap();
        assert_eq!(stats.entries_scanned, 0, "both leaves served by index documents");
        assert_eq!(stats.index_leaves, 2);
        assert_eq!(stats.scan_leaves, 0);
        assert!(!out.all_ids().is_empty(), "{out:?}");
        // A scan leaf in the mix pays per-entry evaluations; the index
        // leaves still don't.
        let mixed = expr.and(QueryExpr::min_steepness(0.1, 0.0));
        let (_, stats) = engine.bind(&archive).execute_with_stats(&mixed).unwrap();
        assert_eq!(stats.entries_scanned, 30, "one evaluation per candidate for the scan leaf");
    }

    #[test]
    fn stale_stamped_access_bypasses_the_cache_but_stays_correct() {
        // Simulates a run that captured its stamp before a concurrent run
        // re-stamped the cache for a different archive: the stale run must
        // compute from its own archive and must not pollute the cache.
        let mut a1 = ArchiveStore::new(Medium::memory());
        a1.put(1, goalpost(GoalpostSpec::default())); // two peaks
        let mut a2 = ArchiveStore::new(Medium::memory());
        a2.put(1, peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() })); // one peak
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let snap1 = a1.snapshot();
        let stale_stamp = engine.ensure_fresh(&snap1);

        assert!(run(&engine, &a2, &two_peaks())[0].exact.is_empty(), "a2's id 1 has 1 peak");

        // The stale-stamped path sees a1's real data, not a2's cache…
        let (entry, _, _) = engine.entry_for(&snap1, 1, stale_stamp).unwrap();
        assert_eq!(entry.peaks.len(), 2, "computed from a1, not served from a2's cache");
        // …and did not overwrite a2's cached entry.
        assert!(run(&engine, &a2, &two_peaks())[0].exact.is_empty());
        assert_eq!(engine.cache_stats().misses, 1, "a2's entry stayed cached throughout");
    }

    #[test]
    fn switching_archives_invalidates_too() {
        let a = mixed_archive(3);
        let mut b = ArchiveStore::new(Medium::memory());
        // Same id, different content.
        b.put(0, peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }));
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        assert!(run(&engine, &a, &two_peaks())[0].exact.contains(&0), "id 0 is a goalpost");
        assert!(
            !run(&engine, &b, &two_peaks())[0].exact.contains(&0),
            "other archive's id 0 has one peak"
        );
    }

    #[test]
    fn empty_archive_and_empty_batch() {
        let archive = ArchiveStore::new(Medium::memory());
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let out = run(&engine, &archive, &batch());
        assert_eq!(out.len(), batch().len());
        assert!(out.iter().all(|o| o.exact.is_empty() && o.approximate.is_empty()));
        let none = run(&engine, &mixed_archive(3), &[]);
        assert!(none.is_empty());
    }

    #[test]
    fn bad_configs_rejected() {
        for config in [
            EngineConfig { workers: 0, ..EngineConfig::default() },
            EngineConfig { shards: 0, ..EngineConfig::default() },
            EngineConfig { cache_capacity: 0, ..EngineConfig::default() },
            EngineConfig {
                store: StoreConfig { epsilon: f64::NAN, ..StoreConfig::default() },
                ..EngineConfig::default()
            },
        ] {
            assert!(QueryEngine::new(config).is_err(), "{config:?}");
        }
    }

    #[test]
    fn bad_queries_rejected() {
        let archive = mixed_archive(3);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let bound = engine.bind(&archive);
        assert!(bound.execute(&QueryExpr::shape("((")).is_err());
        let bad_band = QueryExpr::value_band(goalpost(GoalpostSpec::default()), -1.0, 0.0);
        assert!(bound.execute(&bad_band).is_err());
    }

    #[test]
    fn band_query_value_semantics() {
        let mut archive = ArchiveStore::new(Medium::memory());
        let center = goalpost(GoalpostSpec::default());
        archive.put(1, center.clone());
        // Same shape, amplitude-shifted beyond δ but within δ·(1+slack).
        archive.put(2, goalpost(GoalpostSpec { baseline: 98.7, ..GoalpostSpec::default() }));
        // A different length never matches on values.
        archive.put(3, random_walk(10, 0.0, 0.1, 9));
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let out = engine.bind(&archive).execute(&QueryExpr::value_band(center, 0.5, 1.0)).unwrap();
        assert_eq!(out.exact, vec![1]);
        let approx_ids: Vec<u64> = out.approximate.iter().map(|m| m.id).collect();
        assert_eq!(approx_ids, vec![2]);
        assert!(!out.all_ids().contains(&3));
    }

    #[test]
    fn bound_engine_composes_and_prunes_by_id_range() {
        let archive = mixed_archive(30);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let bound = engine.bind(&archive);
        // Goalposts within ids 0..=14 only.
        let expr = QueryExpr::peak_count(2, 0).and(QueryExpr::id_range(0, 14));
        let (out, stats) = bound.execute_with_stats(&expr).unwrap();
        assert!(out.exact.iter().all(|id| *id <= 14));
        assert!(out.exact.contains(&0));
        assert_eq!(stats.universe, 15, "id bounds prune the candidate universe");
        assert_eq!(stats.entries_scanned, 15, "one entry-leaf evaluation per candidate");
    }

    #[test]
    fn bound_engine_matches_batch_api_on_single_leaves() {
        let archive = mixed_archive(24);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let via_wave = run(&engine, &archive, &batch());
        for (req, in_wave) in batch().iter().zip(via_wave) {
            let solo = engine.bind(&archive).request(req).unwrap().outcome;
            assert_eq!(in_wave, solo, "{req:?}");
        }
    }

    #[test]
    fn wave_matches_one_at_a_time_execution() {
        let archive = mixed_archive(24);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let wave = [
            QueryRequest::saql("peaks = 2 tol 1 and interval = 7 tol 2").with_stats(),
            QueryRequest::saql("shape \"0* 1+ (-1)+ 0* 1+ (-1)+ 0*\" or peaks = 3"),
            QueryRequest::expr(QueryExpr::peak_count(2, 0).and(QueryExpr::id_range(0, 9)))
                .with_explain(),
            QueryRequest::saql("not steepness any >= 1.0 slack 0.2"),
        ];
        let responses = engine.run_requests(&archive.snapshot(), &wave).unwrap();
        assert_eq!(responses.len(), wave.len());
        for (req, resp) in wave.iter().zip(&responses) {
            let resp = resp.as_ref().unwrap();
            let solo = engine.bind(&archive).request(req).unwrap();
            assert_eq!(resp.outcome, solo.outcome, "{req:?}");
            assert_eq!(resp.snapshot, solo.snapshot);
            assert_eq!(resp.explain, solo.explain);
        }
        assert!(responses[0].as_ref().unwrap().stats.is_some());
        assert!(responses[1].as_ref().unwrap().stats.is_none());
        assert!(responses[2].as_ref().unwrap().explain.as_ref().unwrap().contains("And"));
    }

    #[test]
    fn wave_amortizes_fetches_and_dedups_shared_leaves() {
        let n = 24;
        let archive = mixed_archive(n);
        // Capacity below the corpus size: serial one-at-a-time execution
        // thrashes the LRU, a coalesced wave fetches each id once.
        let config = EngineConfig { cache_capacity: n as usize / 4, ..EngineConfig::default() };
        let queries = [
            "steepness all >= 0.2 slack 0.1",
            "peaks = 2 tol 1",
            "steepness any >= 1.0 slack 0.2",
            "steepness all >= 0.2 slack 0.1 and peaks = 2 tol 1",
        ];

        let serial_engine = QueryEngine::new(config).unwrap();
        let before = archive.fetch_count();
        let mut serial_outcomes = Vec::new();
        for q in &queries {
            let resp = serial_engine.bind(&archive).request(&QueryRequest::saql(*q)).unwrap();
            serial_outcomes.push(resp.outcome);
        }
        let serial_fetches = archive.fetch_count() - before;

        let wave_engine = QueryEngine::new(config).unwrap();
        let wave: Vec<QueryRequest> =
            queries.iter().map(|q| QueryRequest::saql(*q).with_stats()).collect();
        let before = archive.fetch_count();
        let responses = wave_engine.run_requests(&archive.snapshot(), &wave).unwrap();
        let wave_fetches = archive.fetch_count() - before;

        for (resp, solo) in responses.iter().zip(&serial_outcomes) {
            assert_eq!(&resp.as_ref().unwrap().outcome, solo);
        }
        assert_eq!(wave_fetches, n, "a wave fetches each sequence exactly once");
        assert!(
            serial_fetches >= 3 * wave_fetches,
            "serial thrashes the small LRU: {serial_fetches} vs {wave_fetches}"
        );
        // Shared leaves across the wave: queries 0 and 3 share one
        // steepness predicate, 1 and 3 one peak-count predicate — 6 plan
        // leaves, 3 distinct slots, each evaluated once over n entries.
        let per_request: Vec<u64> = responses
            .iter()
            .map(|r| r.as_ref().unwrap().stats.as_ref().unwrap().entries_scanned)
            .collect();
        assert_eq!(per_request, vec![n, n, n, 2 * n], "per-leaf counts, shared slots");
    }

    #[test]
    fn wave_isolates_per_request_failures() {
        let archive = mixed_archive(6);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let snapshot = archive.snapshot();
        let current = SnapshotRef::new(snapshot.instance_id(), snapshot.generation());
        let stale = SnapshotRef::new(current.instance, current.generation + 1);
        let wave = [
            QueryRequest::saql("peaks = 2 tol 1"),
            QueryRequest::saql("peaks 2"), // parse error
            QueryRequest::saql("peaks = 2").pinned(stale), // pin mismatch
            QueryRequest::saql("shape \"((\""), // invalid pattern
            QueryRequest::saql("peaks = 3").pinned(current), // matching pin
        ];
        let responses = engine.run_requests(&snapshot, &wave).unwrap();
        assert!(responses[0].is_ok());
        assert_eq!(responses[1].as_ref().unwrap_err().code(), 7, "SAQL parse error");
        assert_eq!(responses[2].as_ref().unwrap_err().code(), 8, "snapshot mismatch");
        assert_eq!(responses[3].as_ref().unwrap_err().code(), 3, "pattern error");
        let pinned = responses[4].as_ref().unwrap();
        assert_eq!(pinned.snapshot, Some(current));
        assert_eq!(
            responses[0].as_ref().unwrap().outcome,
            engine.bind(&archive).execute(&QueryExpr::peak_count(2, 1)).unwrap(),
            "failures elsewhere in the wave don't disturb good requests"
        );
    }

    #[test]
    fn wave_not_and_bounds_respect_each_requests_universe() {
        // The wave's leaves evaluate over the *union* universe; a `Not`
        // (or an unconstrained leaf) of a narrower request must still see
        // only that request's ids.
        let archive = mixed_archive(20);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let narrow =
            QueryRequest::expr(QueryExpr::peak_count(2, 0).negate().and(QueryExpr::id_range(5, 9)));
        let wide = QueryRequest::saql("peaks = 2 tol 1");
        let responses = engine.run_requests(&archive.snapshot(), &[narrow.clone(), wide]).unwrap();
        let in_wave = responses[0].as_ref().unwrap();
        let solo = engine.bind(&archive).request(&narrow).unwrap();
        assert_eq!(in_wave.outcome, solo.outcome);
        assert!(in_wave.outcome.all_ids().iter().all(|id| (5..=9).contains(id)));
    }

    #[test]
    fn per_worker_clocks_show_overlap() {
        let archive = mixed_archive(32);
        // Memory fetches cost ~nothing simulated and finish instantly, so
        // one worker would drain every shard before the rest spawn. Use the
        // disk cost model with real blocking (~0.8 ms per fetch) so the
        // pool genuinely interleaves and the per-worker clocks spread.
        let mut disk = ArchiveStore::new(Medium::local_disk());
        for id in archive.ids() {
            disk.put(id, archive.get(id).unwrap().as_ref().clone());
        }
        disk.set_realtime_scale(0.1);
        let engine =
            QueryEngine::new(EngineConfig { workers: 4, shards: 8, ..EngineConfig::default() })
                .unwrap();
        run(&engine, &disk, &batch());
        let report = engine.last_run_report();
        assert_eq!(report.workers(), 4);
        let total = report.sim_total_seconds();
        let makespan = report.sim_makespan_seconds();
        assert!(total > 0.0);
        assert!(makespan > 0.0 && makespan < total, "workers overlap: {report:?}");
        // The worker clocks sum to what fetching every id once costs.
        disk.set_realtime_scale(0.0);
        let snapshot = disk.snapshot();
        let once: f64 = disk.ids().iter().map(|&id| snapshot.fetch(id).unwrap().1.total()).sum();
        assert!((total - once).abs() < 1e-9, "clocks account every fetch: {total} vs {once}");
        assert!(report.sim_speedup() > 1.5, "4 workers should overlap: {report:?}");
    }

    #[test]
    fn subscription_pump_prunes_by_dirty_ids() {
        let mut archive = mixed_archive(6);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let mut reg = SubscriptionRegistry::new();
        // Goalposts sit at ids 0 and 3 in the mixed archive.
        let watched = reg.register_saql("peaks = 2 and id in [0..0]").unwrap();
        let baseline = archive.generation();
        let deltas = engine.pump_subscriptions(&archive.snapshot(), &mut reg, baseline).unwrap();
        assert_eq!(deltas.len(), 1, "baseline pump reports the starting membership");
        assert_eq!(reg.current(watched), Some(&[0][..]));

        // A wave touching only unrelated ids: the id-bounds prune means
        // no subscription executes at all.
        let pumped = archive.generation();
        archive.put(5, random_walk(64, 0.0, 0.2, 99));
        let evaluated = reg.counters().evaluated;
        let deltas = engine.pump_subscriptions(&archive.snapshot(), &mut reg, pumped).unwrap();
        assert!(deltas.is_empty());
        assert_eq!(reg.counters().evaluated, evaluated, "dirty id 5 is outside [0..0]");
        assert_eq!(reg.counters().skipped_id_bounds, 1);

        // Overwriting the watched id re-evaluates and emits the exit.
        let pumped = archive.generation();
        archive.put(0, random_walk(64, 0.0, 0.2, 98));
        let deltas = engine.pump_subscriptions(&archive.snapshot(), &mut reg, pumped).unwrap();
        assert_eq!(deltas, vec![(watched, Delta { entered: vec![], left: vec![0] })]);
    }

    #[test]
    fn subscription_pump_treats_wildcards_as_reevaluate_everything() {
        let mut archive = mixed_archive(3);
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let mut reg = SubscriptionRegistry::new();
        let watched = reg.register_saql("peaks = 2").unwrap();
        let pumped = archive.generation();
        engine.pump_subscriptions(&archive.snapshot(), &mut reg, pumped).unwrap();
        let members = reg.current(watched).unwrap().to_vec();
        assert!(!members.is_empty());

        // An id-less whole-archive mutation: `changed_since` answers
        // `None`, and the pump must re-evaluate rather than skip.
        let pumped = archive.generation();
        archive.remove(members[0]);
        archive.mark_all_changed();
        assert_eq!(archive.changed_since(pumped), None, "wildcard precondition");
        let deltas = engine.pump_subscriptions(&archive.snapshot(), &mut reg, pumped).unwrap();
        assert_eq!(deltas.len(), 1, "wildcard wave must not freeze the subscription");
        assert_eq!(deltas[0].1.left, vec![members[0]]);
    }

    #[test]
    fn subscription_pump_sees_appended_points() {
        let mut archive = ArchiveStore::new(Medium::memory());
        let full = goalpost(GoalpostSpec::default());
        let (head, tail) = full.points().split_at(full.len() / 2);
        archive.put(1, Sequence::new(head.to_vec()).unwrap());
        let engine = QueryEngine::new(EngineConfig::default()).unwrap();
        let mut reg = SubscriptionRegistry::new();
        let watched = reg.register_saql("peaks = 2").unwrap();
        let pumped = archive.generation();
        engine.pump_subscriptions(&archive.snapshot(), &mut reg, pumped).unwrap();
        let before = reg.current(watched).unwrap().to_vec();

        // Streaming in the second half completes the second goalpost; the
        // append wave is exactly-tracked, so the pump sees `[1]` dirty.
        let pumped = archive.generation();
        archive.append_points(1, tail);
        let deltas = engine.pump_subscriptions(&archive.snapshot(), &mut reg, pumped).unwrap();
        assert_eq!(reg.current(watched), Some(&[1][..]));
        if before.is_empty() {
            assert_eq!(deltas, vec![(watched, Delta { entered: vec![1], left: vec![] })]);
        }
    }
}
