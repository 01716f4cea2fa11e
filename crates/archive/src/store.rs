//! The raw-sequence archive with simulated access accounting.
//!
//! The archive is snapshot-isolated: its contents — raw sequences and
//! one feature document per id — live in an immutable [`ArchiveState`]
//! behind an `Arc` swap, writers install a new state (clone-on-write of
//! only the touched bucket) and readers pin the one they captured — see
//! [`ArchiveStore::snapshot`].

use crate::durability::{self, ColdDocs, DurabilityConfig, DurableHandle};
use crate::medium::{AccessCost, Medium};
use parking_lot::{Mutex, RwLock};
use saq_core::{Result, SequenceStore, StoreConfig};
use saq_durable::{Backend, DurableConfig, DurableStore, WalOp, WalRecord};
use saq_index::cold::OwnedDoc;
use saq_index::ShardedCowMap;
use saq_sequence::{Point, Sequence};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Bytes per raw sample: a timestamp and a value, both `f64`.
const BYTES_PER_POINT: u64 = 16;

/// How many mutations the dirty-id log retains. Older deltas are forgotten
/// and [`ArchiveStore::changed_since`] answers `None` (callers fall back
/// to full invalidation), so the log stays O(1) memory per archive.
const MUTATION_LOG_CAP: usize = 4096;

/// Raw sequences living on a (simulated) slow medium. Every fetch returns
/// its simulated [`AccessCost`].
///
/// An `ArchiveStore` is a cheap *handle*: cloning it yields another handle
/// to the same archive (same contents, counters and generation line),
/// which is how a writer thread and reader threads share one archive
/// without external locking. Mutators keep `&mut self` signatures to mark
/// intent, but mutations are visible through every handle. Readers that
/// need a stable view take an [`ArchiveSnapshot`].
///
/// Every archive owns its representation parameters (ε, θ, breaker) and
/// keeps each id's feature document current under them, so feature
/// queries read [`ArchiveSnapshot::doc`] and only value-band queries
/// fetch raw samples.
///
/// Every mutator ends in one private `commit` (the "Commit protocol" of
/// `docs/STORAGE.md`), so whichever one is called, a write the log
/// refused leaves contents, documents, generation and delta log exactly
/// as they were.
#[derive(Debug, Clone)]
pub struct ArchiveStore {
    shared: Arc<ArchiveShared>,
}

/// State shared by every handle (and snapshot) of one archive.
#[derive(Debug)]
struct ArchiveShared {
    medium: Medium,
    /// The representation parameters every document is derived with.
    representation: StoreConfig,
    /// Process-unique identity of this archive instance.
    instance: u64,
    /// Real seconds slept per simulated second on each fetch, as `f64`
    /// bits (0 = never sleep). See [`ArchiveStore::set_realtime_scale`].
    realtime_scale_bits: AtomicU64,
    /// Number of [`ArchiveSnapshot::fetch`] calls that found their sequence.
    fetches: AtomicU64,
    /// The current immutable contents. Writers install a new `Arc` under
    /// the write lock; readers briefly hold the read lock only to clone
    /// the `Arc` out.
    state: RwLock<Arc<ArchiveState>>,
    /// Serializes writers: held across a whole commit, so the state a
    /// commit builds on cannot move under it.
    writer: Mutex<()>,
    /// Recent mutations; drives [`ArchiveStore::changed_since`].
    log: Mutex<MutationLog>,
    /// The durable half, when this archive was opened from storage:
    /// the WAL/segment store plus the view over its docs segment.
    /// `None` for purely in-memory archives ([`ArchiveStore::new`]).
    durable: Option<Arc<DurableHandle>>,
}

/// One immutable generation of archive contents. Never mutated once
/// published — writers build a successor (sharing every untouched bucket)
/// and swap it in.
#[derive(Debug)]
struct ArchiveState {
    /// The generation this state was installed at.
    generation: u64,
    sequences: ShardedCowMap<Sequence>,
    /// One feature document per id the pipeline accepts, derived from
    /// the sequence beside it.
    docs: ShardedCowMap<OwnedDoc>,
    /// Sorted ids, computed lazily once per generation.
    ids: OnceLock<Vec<u64>>,
}

impl ArchiveState {
    fn sorted_ids(&self) -> &[u64] {
        self.ids.get_or_init(|| self.sequences.sorted_ids())
    }
}

/// The bounded recent-mutation log. Entries cover contiguous generation
/// ranges: a run of mutations to the *same* id coalesces into one entry
/// (`first..=last`) instead of consuming one slot per put, so single-id
/// churn can never evict other ids' deltas (`None` ids are wildcard
/// entries — "anything may have changed").
#[derive(Debug, Default)]
struct MutationLog {
    entries: VecDeque<LogEntry>,
}

#[derive(Debug, Clone, Copy)]
struct LogEntry {
    /// First and last generation this entry covers (inclusive).
    first: u64,
    last: u64,
    /// The mutated id, or `None` for a wildcard mutation.
    id: Option<u64>,
}

impl MutationLog {
    /// Records the mutation that produced `generation`.
    fn record(&mut self, generation: u64, id: Option<u64>) {
        if let Some(tail) = self.entries.back_mut() {
            if tail.id == id {
                // Coalesce: extend the tail's covered range rather than
                // spending a slot per repeated mutation of one id.
                tail.last = generation;
                return;
            }
        }
        if self.entries.len() == MUTATION_LOG_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back(LogEntry { first: generation, last: generation, id });
    }

    /// The ids mutated in the generation range `(from, to]` (deduplicated,
    /// ascending), or `None` when the delta is unknown — the range reaches
    /// outside the retained log, lies in the future, or contains a
    /// wildcard mutation.
    fn changed_between(&self, from: u64, to: u64) -> Option<Vec<u64>> {
        if from > to {
            return None;
        }
        if from == to {
            return Some(Vec::new());
        }
        // The log must reach back to the first mutation after `from`.
        if self.entries.front().is_none_or(|e| e.first > from + 1) {
            return None;
        }
        let mut ids = Vec::new();
        for entry in &self.entries {
            if entry.last > from && entry.first <= to {
                ids.push(entry.id?);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }
}

impl ArchiveShared {
    /// Counts one successful fetch of `points` raw samples and prices it
    /// on the medium (really sleeping when a realtime scale is set).
    fn account_fetch(&self, points: u64) -> AccessCost {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let cost = self.medium.access(points * BYTES_PER_POINT);
        let scale = f64::from_bits(self.realtime_scale_bits.load(Ordering::Relaxed));
        if scale > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(cost.total() * scale));
        }
        cost
    }
}

/// One archive mutation, as [`ArchiveStore::commit`] sees it: what goes
/// into the WAL, which id it dirties, and how it changes the contents.
enum Change {
    /// Store `seq` under the id, replacing silently.
    Put(u64, Sequence),
    /// Drop the id (a tracked mutation even when it is absent).
    Remove(u64),
    /// Extend the sequence at `id` with `delta`, creating it when absent
    /// — mirroring what WAL replay does with an append to a missing entry.
    Append { id: u64, delta: Sequence },
    /// "Anything may have changed": contents stay, every delta crossing
    /// this generation is unknown.
    Wildcard,
}

impl Change {
    /// The WAL record of this change creating `generation`. Puts carry the
    /// whole encoded sequence, appends only the *delta* points in the same
    /// framing; replay folds deltas into their entry through
    /// [`durability::merge_append`].
    fn record(&self, generation: u64) -> WalRecord {
        let op = match self {
            Change::Put(id, seq) => {
                WalOp::Put { id: *id, payload: durability::encode_sequence(seq) }
            }
            Change::Remove(id) => WalOp::Remove { id: *id },
            Change::Append { id, delta } => {
                WalOp::Append { id: *id, payload: durability::encode_sequence(delta) }
            }
            Change::Wildcard => WalOp::Wildcard,
        };
        WalRecord { generation, op }
    }

    /// The id whose delta-log entry this change dirties; `None` is the
    /// wildcard.
    fn dirty_id(&self) -> Option<u64> {
        match self {
            Change::Put(id, _) | Change::Remove(id) | Change::Append { id, .. } => Some(*id),
            Change::Wildcard => None,
        }
    }

    /// Applies the change to `contents`, returning the sequence it
    /// displaced: the replaced, removed or extended one. A put or append
    /// installs the document of the new sequence (or drops the id's
    /// document when the pipeline rejects it), a remove drops it, and a
    /// wildcard keeps every document. Fails — leaving `contents` as it
    /// was — when an append does not start after the stored sequence
    /// ends.
    fn apply(
        self,
        contents: &mut Contents,
        representation: &StoreConfig,
    ) -> Result<Option<Arc<Sequence>>> {
        let (id, seq) = match self {
            Change::Put(id, seq) => (id, seq),
            Change::Remove(id) => {
                contents.docs.remove(id);
                return Ok(contents.sequences.remove(id));
            }
            Change::Append { id, delta } => match contents.sequences.get(id) {
                Some(prior) => (id, prior.concat(&delta)?),
                None => (id, delta),
            },
            Change::Wildcard => return Ok(None),
        };
        match durability::compute_doc(&seq, representation) {
            Ok(doc) => contents.docs.insert(id, doc),
            Err(_) => contents.docs.remove(id),
        };
        Ok(contents.sequences.insert(id, seq))
    }
}

/// The two maps a commit builds its working copy of.
struct Contents {
    sequences: ShardedCowMap<Sequence>,
    docs: ShardedCowMap<OwnedDoc>,
}

/// Source of process-unique [`ArchiveStore::instance_id`]s.
static NEXT_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl ArchiveStore {
    /// An empty archive on the given medium, deriving documents with the
    /// default representation parameters.
    pub fn new(medium: Medium) -> ArchiveStore {
        ArchiveStore::with_representation(medium, StoreConfig::default())
            .expect("the default representation is valid")
    }

    /// An empty archive on the given medium, deriving documents with
    /// `representation` (ε, θ and breaker; `keep_raw` is ignored). Fails
    /// on a non-finite or negative ε or θ.
    pub fn with_representation(medium: Medium, representation: StoreConfig) -> Result<Self> {
        SequenceStore::new(representation)?;
        Ok(ArchiveStore::assemble(
            medium,
            representation,
            NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            ArchiveState {
                generation: 0,
                sequences: ShardedCowMap::new(),
                docs: ShardedCowMap::new(),
                ids: OnceLock::new(),
            },
            MutationLog::default(),
            None,
        ))
    }

    fn assemble(
        medium: Medium,
        representation: StoreConfig,
        instance: u64,
        state: ArchiveState,
        log: MutationLog,
        durable: Option<Arc<DurableHandle>>,
    ) -> ArchiveStore {
        ArchiveStore {
            shared: Arc::new(ArchiveShared {
                medium,
                representation,
                instance,
                realtime_scale_bits: AtomicU64::new(0.0f64.to_bits()),
                fetches: AtomicU64::new(0),
                state: RwLock::new(Arc::new(state)),
                writer: Mutex::new(()),
                log: Mutex::new(log),
                durable,
            }),
        }
    }

    /// Opens (or creates) a durable archive in a directory: every
    /// mutation is written ahead to a WAL, compactions fold contents
    /// into immutable B-tree segments, and reopening recovers the exact
    /// pre-shutdown `(instance_id, generation)` and contents. See
    /// `docs/STORAGE.md` for the on-disk formats.
    pub fn open(
        path: impl Into<std::path::PathBuf>,
        medium: Medium,
        config: DurabilityConfig,
    ) -> Result<ArchiveStore> {
        durability::open_dir(path, medium, config)
    }

    /// As [`ArchiveStore::open`], over any [`Backend`] — tests and
    /// benchmarks use [`saq_durable::MemoryBackend`] to exercise the full
    /// durability protocol without a filesystem.
    pub fn open_backend(
        backend: Arc<dyn Backend>,
        medium: Medium,
        config: DurabilityConfig,
    ) -> Result<ArchiveStore> {
        let representation = config.representation;
        SequenceStore::new(representation)?;
        let durable_config = DurableConfig { compact_after: config.compact_after };
        let (store, recovered) = DurableStore::open_with_merge(
            backend,
            durable_config,
            || NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            &durability::merge_append,
        )
        .map_err(saq_core::Error::from)?;
        // A recovered instance must stay process-unique: push the minting
        // counter past it so no in-memory archive can collide.
        NEXT_INSTANCE.fetch_max(recovered.instance + 1, Ordering::Relaxed);

        let mut sequences = ShardedCowMap::new();
        for (id, payload) in &recovered.entries {
            let seq = durability::decode_sequence(payload).map_err(saq_core::Error::from)?;
            sequences.insert(*id, seq);
        }
        let mut log = MutationLog::default();
        for (generation, id) in &recovered.mutations {
            log.record(*generation, *id);
        }
        let docs = durability::recover_docs(
            recovered.docs.as_ref(),
            &representation,
            &sequences,
            &recovered.mutations,
        );
        let cold = recovered.docs.map(|pager| Arc::new(ColdDocs::new(pager)));
        Ok(ArchiveStore::assemble(
            medium,
            representation,
            recovered.instance,
            ArchiveState {
                generation: recovered.generation,
                sequences,
                docs,
                ids: OnceLock::new(),
            },
            log,
            Some(Arc::new(DurableHandle { store: Mutex::new(store), cold: RwLock::new(cold) })),
        ))
    }

    /// A process-unique identifier of this archive instance. Together with
    /// [`ArchiveStore::generation`] it names one version of the contents:
    /// requests pin a `(instance_id, generation)` pair, and anything
    /// derived per id stays valid while both parts hold. Handle clones
    /// share the instance; only a new archive mints a fresh one.
    pub fn instance_id(&self) -> u64 {
        self.shared.instance
    }

    /// A counter bumped by every content mutation ([`ArchiveStore::put`],
    /// [`ArchiveStore::remove`], and conservatively
    /// [`ArchiveStore::mark_all_changed`]). Equal generation ⇒ unchanged
    /// content, so derived per-sequence state is still valid.
    pub fn generation(&self) -> u64 {
        self.shared.state.read().generation
    }

    /// Captures the current contents as an immutable [`ArchiveSnapshot`]
    /// pinned to `(instance_id, generation)`: a couple of `Arc` clones, no
    /// copying. Mutations through any handle never affect a captured
    /// snapshot; the snapshot keeps superseded buckets alive until the
    /// last reference drops.
    pub fn snapshot(&self) -> ArchiveSnapshot {
        let state = self.shared.state.read().clone();
        let cold = self.shared.durable.as_ref().and_then(|d| d.cold.read().clone());
        ArchiveSnapshot { state, shared: self.shared.clone(), cold }
    }

    /// Makes fetches *really* block for `scale` wall-clock seconds per
    /// simulated second (0, the default, never sleeps). Concurrent fetches
    /// block independently, so overlapping them — as the sharded batch
    /// engine does — hides archive latency the way overlapping real tape or
    /// jukebox requests would. Experiments use small scales (e.g. `1e-4`)
    /// to keep runs short while preserving the latency shape.
    pub fn set_realtime_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale >= 0.0, "realtime scale must be finite and >= 0");
        self.shared.realtime_scale_bits.store(scale.to_bits(), Ordering::Relaxed);
    }

    /// The configured wall-clock seconds per simulated second.
    pub fn realtime_scale(&self) -> f64 {
        f64::from_bits(self.shared.realtime_scale_bits.load(Ordering::Relaxed))
    }

    /// Commits one wave of changes — the only write path. Every mutator
    /// builds its [`Change`]s and ends here, so the protocol is spelled
    /// once:
    ///
    /// 1. take the writer lock, then (durable archives) the durable
    ///    lock — the lock [`ArchiveStore::compact`] takes, so no writer
    ///    can append between the state a compaction captures and its WAL
    ///    truncation. Neither lock is one a reader takes;
    /// 2. validate and derive: apply the whole wave to a working
    ///    clone-on-write copy of the current contents, computing each new
    ///    feature document. A change that cannot apply (an
    ///    [`Change::Append`] whose boundary does not extend the stored
    ///    sequence) returns `Err` with WAL and state untouched;
    /// 3. write ahead: one [`DurableStore::append_batch`] — one backend
    ///    append, one fsync — covers the wave. A failure returns `Err`
    ///    and drops the working copy: nothing was applied;
    /// 4. log `(generation, id)` per change — each consumes its own
    ///    generation, keeping [`ArchiveStore::changed_since`] exact;
    /// 5. install the working copy as the new state. This is the only
    ///    step that holds the state write lock, so readers wait for at
    ///    most an `Arc` swap, never for the fsync;
    /// 6. release the locks;
    /// 7. compact if the WAL outgrew `compact_after`. The wave is already
    ///    committed; a failed auto-compaction surfaces as this call's
    ///    `Err` all the same.
    ///
    /// Returns, per change, the sequence it displaced (see
    /// [`Change::apply`]).
    fn commit(&mut self, changes: Vec<Change>) -> Result<Vec<Option<Arc<Sequence>>>> {
        if changes.is_empty() {
            return Ok(Vec::new());
        }
        let writer = self.shared.writer.lock();
        let durable = self.shared.durable.clone();
        let mut wal = durable.as_ref().map(|d| d.store.lock());
        let base = self.shared.state.read().clone();

        let mut contents = Contents { sequences: base.sequences.clone(), docs: base.docs.clone() };
        let dirty: Vec<Option<u64>> = changes.iter().map(Change::dirty_id).collect();
        let records: Vec<WalRecord> = match wal {
            Some(_) => {
                changes.iter().zip(base.generation + 1..).map(|(c, g)| c.record(g)).collect()
            }
            None => Vec::new(),
        };
        let representation = self.shared.representation;
        let displaced = changes
            .into_iter()
            .map(|c| c.apply(&mut contents, &representation))
            .collect::<Result<Vec<_>>>()?;
        if let Some(wal) = wal.as_mut() {
            wal.append_batch(&records).map_err(saq_core::Error::from)?;
        }

        let generation = base.generation + dirty.len() as u64;
        {
            let mut log = self.shared.log.lock();
            for (&id, generation) in dirty.iter().zip(base.generation + 1..) {
                log.record(generation, id);
            }
        }
        let Contents { sequences, docs } = contents;
        *self.shared.state.write() =
            Arc::new(ArchiveState { generation, sequences, docs, ids: OnceLock::new() });
        let compact_now = wal.as_ref().is_some_and(|w| w.should_compact());
        drop(wal);
        drop(writer);
        if compact_now {
            self.compact()?;
        }
        Ok(displaced)
    }

    /// Archives a raw sequence (writing is done off the query path and not
    /// accounted) and installs its feature document. Replaces silently;
    /// the generation counter and the mutation log record that this id
    /// changed, so standing queries re-evaluate it — incrementally, via
    /// [`ArchiveStore::changed_since`].
    ///
    /// # Panics
    ///
    /// On a durable archive, panics if the write-ahead append fails —
    /// an acknowledged write the log doesn't hold would break the
    /// recovery contract. Use [`ArchiveStore::try_put`] to handle
    /// storage failures gracefully.
    pub fn put(&mut self, id: u64, seq: Sequence) {
        self.try_put(id, seq).expect("durable archive write failed");
    }

    /// As [`ArchiveStore::put`], surfacing storage failures instead of
    /// panicking.
    pub fn try_put(&mut self, id: u64, seq: Sequence) -> Result<()> {
        self.commit(vec![Change::Put(id, seq)]).map(drop)
    }

    /// Archives a batch of sequences under a single lock acquisition.
    /// On a durable archive the whole group is written ahead as one
    /// framed append — one fsync covers the batch (group commit) —
    /// before any in-memory state changes. Each record still consumes
    /// its own generation and is logged individually, so
    /// [`ArchiveStore::changed_since`] deltas stay exact.
    ///
    /// # Panics
    ///
    /// Like [`ArchiveStore::put`], panics if the write-ahead append
    /// fails; [`ArchiveStore::try_put_batch`] is the fallible form.
    pub fn put_batch(&mut self, items: Vec<(u64, Sequence)>) {
        self.try_put_batch(items).expect("durable archive write failed");
    }

    /// As [`ArchiveStore::put_batch`], surfacing storage failures. A
    /// failed group append leaves the in-memory state untouched — none
    /// of the batch is applied.
    pub fn try_put_batch(&mut self, items: Vec<(u64, Sequence)>) -> Result<()> {
        self.commit(items.into_iter().map(|(id, seq)| Change::Put(id, seq)).collect()).map(drop)
    }

    /// Removes an archived sequence (a tracked mutation, like
    /// [`ArchiveStore::put`]); returns it if it was present. Snapshots
    /// captured earlier still see it.
    ///
    /// # Panics
    ///
    /// Like [`ArchiveStore::put`], panics if the write-ahead append
    /// fails; [`ArchiveStore::try_remove`] is the fallible form.
    pub fn remove(&mut self, id: u64) -> Option<Arc<Sequence>> {
        self.try_remove(id).expect("durable archive write failed")
    }

    /// As [`ArchiveStore::remove`], surfacing storage failures.
    pub fn try_remove(&mut self, id: u64) -> Result<Option<Arc<Sequence>>> {
        Ok(self.commit(vec![Change::Remove(id)])?.pop().flatten())
    }

    /// Extends the stored sequence at `id` with `points` — the streaming
    /// ingestion entry point. One call is one mutation wave: a single
    /// generation bump, one exact `(generation, id)` mutation-log entry
    /// (so [`ArchiveStore::changed_since`] deltas stay precise), and on
    /// durable archives one [`saq_durable::WalOp::Append`] record whose
    /// payload holds only the delta points. Appending to an id that
    /// doesn't exist creates the sequence, mirroring what WAL replay
    /// does with an append to a missing entry.
    ///
    /// The extended sequence is validated *before* anything is logged
    /// (`points` must be non-empty, finite, strictly increasing, and
    /// start after the stored sequence ends), so a rejected append
    /// leaves both the WAL and the in-memory state untouched. Returns
    /// the total point count after the append.
    ///
    /// # Panics
    ///
    /// Like [`ArchiveStore::put`], panics if the write-ahead append
    /// fails; [`ArchiveStore::try_append_points`] is the fallible form.
    pub fn append_points(&mut self, id: u64, points: &[Point]) -> usize {
        self.try_append_points(id, points).expect("durable archive write failed")
    }

    /// As [`ArchiveStore::append_points`], surfacing storage failures
    /// and validation errors instead of panicking.
    pub fn try_append_points(&mut self, id: u64, points: &[Point]) -> Result<usize> {
        if points.is_empty() {
            return Err(saq_core::Error::EmptyInput);
        }
        let delta = Sequence::new(points.to_vec())?;
        let prior = self.commit(vec![Change::Append { id, delta }])?.pop().flatten();
        Ok(prior.map_or(0, |prior| prior.len()) + points.len())
    }

    /// Marks the whole archive as potentially changed (a wildcard
    /// mutation): the generation bumps and every generation delta crossing
    /// this point reports "unknown", so standing queries re-evaluate
    /// everything. Contents and documents stay as they are. Used when
    /// mutable access is handed out without tracking what it touched.
    ///
    /// # Panics
    ///
    /// Like [`ArchiveStore::put`], panics if the write-ahead append fails.
    pub fn mark_all_changed(&mut self) {
        self.commit(vec![Change::Wildcard]).expect("durable archive write failed");
    }

    /// Whether this archive persists its mutations.
    pub fn is_durable(&self) -> bool {
        self.shared.durable.is_some()
    }

    /// Folds the current contents into a fresh durable segment set —
    /// the entries plus the resident feature documents, stamped with the
    /// archive's representation parameters — commits the manifest, and
    /// truncates the WAL. A no-op on non-durable archives. Writers are
    /// blocked for the duration; readers and snapshots are not.
    pub fn compact(&mut self) -> Result<()> {
        let Some(durable) = self.shared.durable.clone() else { return Ok(()) };
        // Durable lock first (the invariant order), so no writer can
        // append between the state we capture and the WAL truncation.
        let mut store = durable.store.lock();
        let state = self.shared.state.read().clone();
        let (entries, docs) =
            durability::compaction_payload(state.sorted_ids(), &state.sequences, &state.docs);
        let config = &self.shared.representation;
        let spec = saq_durable::DocsSpec {
            epsilon_bits: config.epsilon.to_bits(),
            theta_bits: config.theta.to_bits(),
            breaker_tag: config.breaker.tag(),
            docs: &docs,
        };
        let pager =
            store.compact(state.generation, &entries, Some(spec)).map_err(saq_core::Error::from)?;
        *durable.cold.write() = pager.map(|p| Arc::new(ColdDocs::new(p)));
        Ok(())
    }

    /// The view over the docs segment the last compaction wrote, if this
    /// archive is durable and has compacted.
    pub fn cold_docs(&self) -> Option<Arc<ColdDocs>> {
        self.shared.durable.as_ref().and_then(|d| d.cold.read().clone())
    }

    /// WAL records accumulated since the last compaction (0 for
    /// non-durable archives) — observability for compaction policy.
    pub fn wal_records(&self) -> u64 {
        self.shared.durable.as_ref().map_or(0, |d| d.store.lock().wal_records())
    }

    /// The ids mutated after `generation` (deduplicated, ascending), or
    /// `None` when the delta is unknown — the generation lies outside the
    /// retained log, is from the future, or a wildcard mutation
    /// ([`ArchiveStore::mark_all_changed`]) happened in between. `None`
    /// means "assume everything changed".
    ///
    /// This is the incremental-maintenance contract behind standing
    /// queries: a subscription pumped at an older generation re-evaluates
    /// exactly these ids instead of everything.
    pub fn changed_since(&self, generation: u64) -> Option<Vec<u64>> {
        self.snapshot().changed_since(generation)
    }

    /// Number of successful fetches so far (incremental-mode experiments
    /// assert re-runs touch only dirty ids through this counter). Shared
    /// across handles and snapshots.
    pub fn fetch_count(&self) -> u64 {
        self.shared.fetches.load(Ordering::Relaxed)
    }

    /// Number of archived sequences.
    pub fn len(&self) -> usize {
        self.shared.state.read().sequences.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All archived ids, sorted — the canonical enumeration order that the
    /// batch engine's shard partitioning relies on.
    pub fn ids(&self) -> Vec<u64> {
        self.snapshot().ids().to_vec()
    }

    /// Direct access to an archived sequence *without* touching the
    /// simulated medium — for tests and introspection only. Query paths
    /// (including the batch engine) must go through
    /// [`ArchiveSnapshot::fetch`] so access costs are accounted.
    pub fn get(&self, id: u64) -> Option<Arc<Sequence>> {
        self.shared.state.read().sequences.get_arc(id)
    }
}

/// An immutable view of one archive generation, captured by
/// [`ArchiveStore::snapshot`]. Contents ([`ArchiveSnapshot::ids`],
/// [`ArchiveSnapshot::get`], [`ArchiveSnapshot::fetch`]) are pinned to the
/// captured `(instance_id, generation)` forever; the fetch counter and
/// the realtime scale stay shared with the live archive, since they model
/// the physical medium rather than the contents.
///
/// A snapshot pins sequences and feature documents together: the
/// documents it serves are those of the sequences it serves.
///
/// Cloning a snapshot is a few `Arc` clones; dropping the last clone of a
/// superseded generation frees whatever buckets later generations don't
/// share.
#[derive(Debug, Clone)]
pub struct ArchiveSnapshot {
    shared: Arc<ArchiveShared>,
    state: Arc<ArchiveState>,
    /// The docs-segment view current when this snapshot was captured
    /// (durable archives only).
    cold: Option<Arc<ColdDocs>>,
}

impl ArchiveSnapshot {
    /// The instance id of the archive this snapshot came from.
    pub fn instance_id(&self) -> u64 {
        self.shared.instance
    }

    /// The generation this snapshot is pinned to.
    pub fn generation(&self) -> u64 {
        self.state.generation
    }

    /// Number of sequences visible at the pinned generation.
    pub fn len(&self) -> usize {
        self.state.sequences.len()
    }

    /// Whether the snapshot holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.state.sequences.is_empty()
    }

    /// All ids at the pinned generation, sorted (computed once per
    /// generation and shared by every snapshot of it).
    pub fn ids(&self) -> &[u64] {
        self.state.sorted_ids()
    }

    /// Borrows a sequence without touching the simulated medium — the
    /// snapshot-pinned counterpart of [`ArchiveStore::get`].
    pub fn get(&self, id: u64) -> Option<&Sequence> {
        self.state.sequences.get(id)
    }

    /// Fetches a sequence at the pinned generation and returns its
    /// simulated seek + transfer cost on the archive's medium, counting
    /// the fetch on the *shared* counter (and really sleeping when a
    /// realtime scale is configured). The caller sums the costs it
    /// cares about; the archive keeps no clock of its own. The sequence
    /// comes back as the archive's own `Arc`, so a caller that keeps it
    /// shares the stored copy instead of duplicating it.
    pub fn fetch(&self, id: u64) -> Option<(Arc<Sequence>, AccessCost)> {
        let seq = self.state.sequences.get_arc(id)?;
        let cost = self.shared.account_fetch(seq.len() as u64);
        Some((seq, cost))
    }

    /// The ids mutated after `generation` *up to this snapshot's pinned
    /// generation* (deduplicated, ascending), or `None` when the delta is
    /// unknown — see [`ArchiveStore::changed_since`]. Mutations newer than
    /// the snapshot are invisible, like the contents.
    pub fn changed_since(&self, generation: u64) -> Option<Vec<u64>> {
        self.shared.log.lock().changed_between(generation, self.state.generation)
    }

    /// The feature document of `id` at the pinned generation, without
    /// touching the simulated medium. `None` when the id is absent or the
    /// ingestion pipeline rejects its sequence (an empty one, say).
    pub fn doc(&self, id: u64) -> Option<&OwnedDoc> {
        self.state.docs.get(id)
    }

    /// The shared handle to the document of `id` — lets callers check
    /// which documents two generations share.
    pub fn doc_arc(&self, id: u64) -> Option<Arc<OwnedDoc>> {
        self.state.docs.get_arc(id)
    }

    /// The representation parameters the documents were derived with.
    pub fn representation(&self) -> StoreConfig {
        self.shared.representation
    }

    /// The view over the docs segment current when this snapshot was
    /// captured, when the archive is durable and has one. Queries read
    /// [`ArchiveSnapshot::doc`]; this view only reports what the segment
    /// holds.
    pub fn cold_docs(&self) -> Option<&Arc<ColdDocs>> {
        self.cold.as_ref()
    }

    /// A weak handle answering whether this snapshot's pinned state is
    /// still reachable — used by lifecycle tests to assert superseded
    /// generations are actually freed once their last snapshot drops.
    pub fn probe(&self) -> ArchiveSnapshotProbe {
        ArchiveSnapshotProbe { state: Arc::downgrade(&self.state) }
    }
}

/// See [`ArchiveSnapshot::probe`]. Holding a probe keeps nothing alive.
#[derive(Debug, Clone)]
pub struct ArchiveSnapshotProbe {
    state: Weak<ArchiveState>,
}

impl ArchiveSnapshotProbe {
    /// Whether the probed generation's state is still allocated (pinned by
    /// some snapshot, or still the archive's current generation).
    pub fn is_live(&self) -> bool {
        self.state.upgrade().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_doc;
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    #[test]
    fn archive_accounts_latency() {
        let mut a = ArchiveStore::new(Medium::remote_tape());
        a.put(1, goalpost(GoalpostSpec::default()));
        assert_eq!(a.len(), 1);
        let snap = a.snapshot();
        let (seq, cost) = snap.fetch(1).unwrap();
        assert_eq!(seq.len(), 49);
        assert_eq!(cost.seek_seconds, 90.0);
        assert_eq!(cost, Medium::remote_tape().access(49 * BYTES_PER_POINT), "seek + raw bytes");
        assert!(cost.total() >= 90.0);
        assert!(snap.fetch(99).is_none());
        assert_eq!(a.fetch_count(), 1, "a miss costs and counts nothing");
    }

    #[test]
    fn ids_sorted_and_get_is_free() {
        let mut a = ArchiveStore::new(Medium::local_disk());
        for id in [9u64, 2, 5] {
            a.put(id, goalpost(GoalpostSpec::default()));
        }
        assert_eq!(a.ids(), vec![2, 5, 9]);
        assert!(a.get(5).is_some());
        assert!(a.get(1).is_none());
        assert!(a.snapshot().get(5).is_some());
        assert_eq!(a.fetch_count(), 0, "get() must not touch the medium");
    }

    #[test]
    fn realtime_scale_sleeps_on_fetch() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec::default()));
        assert_eq!(a.realtime_scale(), 0.0);
        // Memory access costs ~1e-7 simulated seconds; a large scale makes
        // the sleep observable without slowing the suite.
        a.set_realtime_scale(2.0e5);
        let t = std::time::Instant::now();
        a.snapshot().fetch(1).unwrap();
        assert!(t.elapsed().as_secs_f64() >= 0.015, "fetch must really block");
    }

    #[test]
    #[should_panic(expected = "realtime scale")]
    fn negative_realtime_scale_rejected() {
        ArchiveStore::new(Medium::memory()).set_realtime_scale(-1.0);
    }

    #[test]
    fn generation_tracks_mutations_and_instances_differ() {
        let mut a = ArchiveStore::new(Medium::memory());
        let b = ArchiveStore::new(Medium::memory());
        assert_ne!(a.instance_id(), b.instance_id());
        assert_eq!(a.generation(), 0);
        a.put(1, goalpost(GoalpostSpec::default()));
        assert_eq!(a.generation(), 1);
        a.put(1, goalpost(GoalpostSpec::default()));
        assert_eq!(a.generation(), 2, "replacement counts as a mutation");
        // Reads don't bump.
        let _ = a.snapshot().fetch(1);
        let _ = a.get(1);
        let _ = a.ids();
        assert_eq!(a.generation(), 2);
        a.mark_all_changed();
        assert_eq!(a.generation(), 3, "a wildcard is a conservative mutation");
    }

    #[test]
    fn changed_since_reports_exact_dirty_ids() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(3, goalpost(GoalpostSpec::default()));
        a.put(1, goalpost(GoalpostSpec::default()));
        let g = a.generation();
        assert_eq!(a.changed_since(g), Some(vec![]), "no mutation since g");
        a.put(7, goalpost(GoalpostSpec::default()));
        a.put(1, goalpost(GoalpostSpec::default()));
        a.put(7, goalpost(GoalpostSpec::default()));
        assert_eq!(a.changed_since(g), Some(vec![1, 7]), "deduplicated, ascending");
        assert_eq!(a.changed_since(0), Some(vec![1, 3, 7]), "full history retained");
        assert_eq!(a.changed_since(a.generation() + 1), None, "future generations are unknown");
    }

    #[test]
    fn wildcard_mutations_poison_the_delta() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec::default()));
        let g = a.generation();
        a.mark_all_changed();
        a.put(2, goalpost(GoalpostSpec::default()));
        assert_eq!(a.changed_since(g), None, "a wildcard in the delta means unknown");
        assert_eq!(a.changed_since(a.generation()), Some(vec![]));
        let g = a.generation();
        a.mark_all_changed();
        assert_eq!(a.changed_since(g), None, "a lone wildcard is unknown too");
    }

    #[test]
    fn overflowing_the_mutation_log_degrades_to_unknown() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(0, goalpost(GoalpostSpec::default()));
        let g = a.generation();
        for i in 0..(super::MUTATION_LOG_CAP as u64 + 4) {
            a.put(i % 16, goalpost(GoalpostSpec::default()));
        }
        assert_eq!(a.changed_since(g), None, "delta fell off the bounded log");
        // Recent deltas still resolve.
        let recent = a.generation();
        a.put(99, goalpost(GoalpostSpec::default()));
        assert_eq!(a.changed_since(recent), Some(vec![99]));
    }

    #[test]
    fn repeated_same_id_puts_never_evict_other_deltas() {
        // Regression: k puts of one id used to consume k slots of the
        // bounded log, pushing unrelated ids' deltas off the front and
        // needlessly degrading changed_since to None.
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec::default()));
        a.put(2, goalpost(GoalpostSpec::default()));
        for _ in 0..(2 * super::MUTATION_LOG_CAP as u64) {
            a.put(7, goalpost(GoalpostSpec::default()));
        }
        assert_eq!(a.changed_since(2), Some(vec![7]), "the churned id coalesces into one entry");
        assert_eq!(a.changed_since(0), Some(vec![1, 2, 7]), "other ids' deltas survive the churn");
        assert_eq!(a.changed_since(1), Some(vec![2, 7]));
    }

    #[test]
    fn handle_clones_share_one_archive() {
        let mut a = ArchiveStore::new(Medium::memory());
        let b = a.clone();
        a.put(4, goalpost(GoalpostSpec::default()));
        assert_eq!(b.instance_id(), a.instance_id());
        assert_eq!(b.generation(), 1, "mutations are visible through every handle");
        assert_eq!(b.ids(), vec![4]);
        let _ = b.snapshot().fetch(4);
        assert_eq!(a.fetch_count(), 1, "counters are shared too");
    }

    #[test]
    fn snapshot_pins_contents_under_writes() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec { seed: 1, ..GoalpostSpec::default() }));
        a.put(2, goalpost(GoalpostSpec { seed: 2, ..GoalpostSpec::default() }));
        let snap = a.snapshot();
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.instance_id(), a.instance_id());

        let replacement = peaks(PeaksSpec { centers: vec![6.0, 12.0, 18.0], ..Default::default() });
        a.put(1, replacement.clone());
        a.put(9, goalpost(GoalpostSpec::default()));
        a.remove(2);

        // The live archive moved on...
        assert_eq!(a.generation(), 5);
        assert_eq!(a.ids(), vec![1, 9]);
        assert_eq!(a.get(1).unwrap().len(), replacement.len());
        // ...but the snapshot still reads generation 2 wholesale.
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.ids(), &[1, 2]);
        assert_eq!(snap.get(1).unwrap().len(), 49, "pre-replacement sequence");
        assert!(snap.get(2).is_some(), "removed id still visible");
        assert!(snap.get(9).is_none(), "later insert invisible");
        let (seq, _cost) = snap.fetch(2).unwrap();
        assert_eq!(seq.len(), 49);
        assert_eq!(a.fetch_count(), 1, "snapshot fetches account on the shared counter");
    }

    #[test]
    fn snapshot_changed_since_is_relative_to_its_generation() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec::default()));
        let g1 = a.generation();
        a.put(2, goalpost(GoalpostSpec::default()));
        let snap = a.snapshot();
        a.put(3, goalpost(GoalpostSpec::default()));
        assert_eq!(snap.changed_since(g1), Some(vec![2]), "the later put(3) is invisible");
        assert_eq!(snap.changed_since(snap.generation()), Some(vec![]));
        assert_eq!(a.changed_since(g1), Some(vec![2, 3]));
        assert_eq!(snap.changed_since(a.generation()), None, "future of the snapshot is unknown");
    }

    #[test]
    fn remove_is_a_tracked_mutation() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(5, goalpost(GoalpostSpec::default()));
        let g = a.generation();
        assert!(a.remove(5).is_some());
        assert_eq!(a.generation(), g + 1);
        assert_eq!(a.changed_since(g), Some(vec![5]));
        assert!(a.is_empty());
        assert!(a.remove(5).is_none(), "double remove finds nothing");
        assert_eq!(a.generation(), g + 2, "but still counts as a mutation");
    }

    #[test]
    fn dropping_the_last_snapshot_frees_superseded_state() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec::default()));
        let snap = a.snapshot();
        let probe = snap.probe();
        let snap2 = snap.clone();
        a.put(1, goalpost(GoalpostSpec { seed: 9, ..GoalpostSpec::default() }));
        assert!(probe.is_live(), "snapshots pin the superseded generation");
        drop(snap);
        assert!(probe.is_live(), "still pinned by the second snapshot");
        drop(snap2);
        assert!(!probe.is_live(), "last reference gone — generation freed");
        // The current generation is unaffected.
        assert_eq!(a.ids(), vec![1]);
    }

    #[test]
    fn fetch_count_tracks_successful_fetches() {
        let mut a = ArchiveStore::new(Medium::memory());
        a.put(1, goalpost(GoalpostSpec::default()));
        assert_eq!(a.fetch_count(), 0);
        let snap = a.snapshot();
        let _ = snap.fetch(1);
        let _ = snap.fetch(1);
        let _ = snap.fetch(99);
        assert_eq!(a.fetch_count(), 2, "misses don't count");
    }

    #[test]
    fn durable_archive_round_trips_across_reopen() {
        use saq_durable::MemoryBackend;
        let backend = MemoryBackend::new();
        let arc_backend: Arc<dyn saq_durable::Backend> = Arc::new(backend.clone());
        let (instance, generation);
        {
            let mut a = ArchiveStore::open_backend(
                Arc::clone(&arc_backend),
                Medium::memory(),
                DurabilityConfig::default(),
            )
            .unwrap();
            assert!(a.is_durable());
            assert!(a.is_empty());
            for i in 0..6u64 {
                a.put(i, goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() }));
            }
            a.remove(4);
            instance = a.instance_id();
            generation = a.generation();
            assert_eq!(generation, 7);
        }
        let a =
            ArchiveStore::open_backend(arc_backend, Medium::memory(), DurabilityConfig::default())
                .unwrap();
        assert_eq!(a.instance_id(), instance, "instance survives restart");
        assert_eq!(a.generation(), generation, "generation survives restart");
        assert_eq!(a.ids(), vec![0, 1, 2, 3, 5]);
        for i in [0u64, 1, 2, 3, 5] {
            let expect = goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() });
            assert_eq!(a.get(i).unwrap().points(), expect.points(), "sequence {i} bit-exact");
        }
        // The recovered mutation log still answers incremental deltas.
        assert_eq!(a.changed_since(generation), Some(vec![]));
        assert_eq!(a.changed_since(5), Some(vec![4, 5]));
        // A fresh in-memory archive can never reuse the recovered instance.
        assert_ne!(ArchiveStore::new(Medium::memory()).instance_id(), instance);
    }

    #[test]
    fn put_batch_group_commits_with_exact_generations() {
        let backend: Arc<dyn saq_durable::Backend> = Arc::new(saq_durable::MemoryBackend::new());
        let mut a = ArchiveStore::open_backend(
            Arc::clone(&backend),
            Medium::memory(),
            DurabilityConfig::default(),
        )
        .unwrap();
        a.put(0, goalpost(GoalpostSpec::default()));
        let g = a.generation();
        let batch: Vec<(u64, Sequence)> = (1..5u64)
            .map(|i| (i, goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() })))
            .collect();
        a.put_batch(batch);
        a.put_batch(Vec::new());
        assert_eq!(a.generation(), g + 4, "one generation per batched record");
        assert_eq!(a.wal_records(), 5);
        assert_eq!(a.changed_since(g), Some(vec![1, 2, 3, 4]), "deltas stay exact");
        assert_eq!(a.ids(), vec![0, 1, 2, 3, 4]);

        // Group commit changes how many appends reach the backend, not a
        // byte of what they write.
        let singly: Arc<dyn saq_durable::Backend> = Arc::new(saq_durable::MemoryBackend::new());
        let mut b = ArchiveStore::open_backend(
            Arc::clone(&singly),
            Medium::memory(),
            DurabilityConfig::default(),
        )
        .unwrap();
        for i in 0..5u64 {
            b.put(i, goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() }));
        }
        let wal = |backend: &Arc<dyn saq_durable::Backend>| {
            backend.get(saq_durable::wal::WAL_KEY).unwrap().expect("a WAL was written")
        };
        assert_eq!(wal(&backend), wal(&singly), "same WAL bytes as one-at-a-time puts");

        // Recovery replays the group exactly as individual appends would.
        drop(a);
        let a = ArchiveStore::open_backend(backend, Medium::memory(), DurabilityConfig::default())
            .unwrap();
        assert_eq!(a.generation(), g + 4);
        assert_eq!(a.ids(), vec![0, 1, 2, 3, 4]);
        for i in 1..5u64 {
            let expect = goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() });
            assert_eq!(a.get(i).unwrap().points(), expect.points(), "sequence {i} bit-exact");
        }
        assert_eq!(a.changed_since(g), Some(vec![1, 2, 3, 4]));
    }

    /// A [`saq_durable::MemoryBackend`] whose `append` fails while the
    /// switch is on — the write-ahead step failing on demand.
    #[derive(Default)]
    struct FailingAppends {
        inner: saq_durable::MemoryBackend,
        fail: std::sync::atomic::AtomicBool,
    }

    impl Backend for FailingAppends {
        fn get(&self, key: &str) -> saq_durable::Result<Option<Vec<u8>>> {
            self.inner.get(key)
        }
        fn put(&self, key: &str, value: &[u8]) -> saq_durable::Result<()> {
            self.inner.put(key, value)
        }
        fn append(&self, key: &str, bytes: &[u8]) -> saq_durable::Result<u64> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected append failure").into());
            }
            self.inner.append(key, bytes)
        }
        fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> saq_durable::Result<usize> {
            self.inner.read_at(key, offset, buf)
        }
        fn len(&self, key: &str) -> saq_durable::Result<Option<u64>> {
            self.inner.len(key)
        }
        fn truncate(&self, key: &str, len: u64) -> saq_durable::Result<()> {
            self.inner.truncate(key, len)
        }
        fn delete(&self, key: &str) -> saq_durable::Result<()> {
            self.inner.delete(key)
        }
        fn list(&self) -> saq_durable::Result<Vec<String>> {
            self.inner.list()
        }
        fn sync(&self) -> saq_durable::Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_failed_write_ahead_leaves_every_mutator_a_no_op() {
        let backend = Arc::new(FailingAppends::default());
        let open = || {
            ArchiveStore::open_backend(
                Arc::clone(&backend) as Arc<dyn Backend>,
                Medium::memory(),
                DurabilityConfig::default(),
            )
            .unwrap()
        };
        let mut a = open();
        let base = goalpost(GoalpostSpec::default());
        a.put(1, base.clone());
        a.put(2, goalpost(GoalpostSpec { seed: 2, ..GoalpostSpec::default() }));
        // Compact, then mutate once more, so there is a docs segment and
        // a non-empty WAL for a failure to disturb.
        a.compact().unwrap();
        let two = goalpost(GoalpostSpec { seed: 3, ..GoalpostSpec::default() });
        a.put(2, two.clone());
        let (g, wal) = (a.generation(), a.wal_records());
        assert_eq!(wal, 1);
        let docs = |a: &ArchiveStore| [1, 2].map(|id| a.snapshot().doc_arc(id).unwrap());
        let before = docs(&a);

        let seq = goalpost(GoalpostSpec { seed: 7, ..GoalpostSpec::default() });
        let wave = tail(&base, 3, 5);
        type Mutator<'a> = &'a dyn Fn(&mut ArchiveStore) -> Result<()>;
        let mutators: [(&str, Mutator); 5] = [
            ("try_put", &|a| a.try_put(1, seq.clone())),
            ("try_put_batch", &|a| a.try_put_batch(vec![(3, seq.clone()), (1, seq.clone())])),
            ("try_remove", &|a| a.try_remove(1).map(drop)),
            ("try_append_points", &|a| a.try_append_points(1, &wave).map(drop)),
            ("wildcard", &|a| a.commit(vec![Change::Wildcard]).map(drop)),
        ];
        backend.fail.store(true, Ordering::SeqCst);
        for (name, mutate) in mutators {
            assert!(mutate(&mut a).is_err(), "{name} surfaces the storage failure");
            assert_eq!(a.generation(), g, "{name}: no generation consumed");
            assert_eq!(a.ids(), vec![1, 2], "{name}: contents untouched");
            assert_eq!(a.get(1).unwrap().points(), base.points(), "{name}");
            assert_eq!(a.wal_records(), wal, "{name}: nothing counted as logged");
            assert_eq!(a.changed_since(g), Some(vec![]), "{name}: nothing in the delta log");
            let after = docs(&a);
            assert!(before.iter().zip(&after).all(|(x, y)| Arc::ptr_eq(x, y)), "{name}: docs kept");
        }

        // What was never acknowledged was never written: reopening lands
        // on the pre-failure generation and contents.
        drop(a);
        backend.fail.store(false, Ordering::SeqCst);
        let a = open();
        assert_eq!(a.generation(), g);
        assert_eq!(a.ids(), vec![1, 2]);
        assert_eq!(a.get(1).unwrap().points(), base.points());
        assert_eq!(a.get(2).unwrap().points(), two.points());
    }

    fn tail(seq: &Sequence, n: usize, seed: u64) -> Vec<Point> {
        let last = *seq.points().last().unwrap();
        (1..=n)
            .map(|i| {
                let wob = ((seed.wrapping_mul(i as u64) % 7) as f64 - 3.0) / 10.0;
                Point::new(last.t + i as f64, last.v + wob)
            })
            .collect()
    }

    #[test]
    fn append_points_is_one_exactly_tracked_wave() {
        let mut a = ArchiveStore::new(Medium::memory());
        let base = goalpost(GoalpostSpec::default());
        a.put(1, base.clone());
        a.put(2, goalpost(GoalpostSpec { seed: 2, ..GoalpostSpec::default() }));
        let g = a.generation();

        let wave = tail(&base, 5, 3);
        assert_eq!(a.append_points(1, &wave), base.len() + 5);
        assert_eq!(a.generation(), g + 1, "one generation per append wave");
        assert_eq!(a.changed_since(g), Some(vec![1]), "exact delta, only the appended id");
        let mut expect = base.points().to_vec();
        expect.extend_from_slice(&wave);
        assert_eq!(a.get(1).unwrap().points(), expect.as_slice());

        // Appending to an unknown id creates it (mirrors WAL replay).
        let fresh: Vec<Point> = (0..4).map(|i| Point::new(i as f64, 0.5)).collect();
        assert_eq!(a.append_points(9, &fresh), 4);
        assert_eq!(a.get(9).unwrap().points(), fresh.as_slice());

        // Rejected appends mutate nothing: not the state, not the log.
        let g = a.generation();
        assert!(a.try_append_points(1, &[]).is_err(), "empty wave");
        assert!(
            a.try_append_points(1, &[Point::new(0.0, 0.0)]).is_err(),
            "non-extending timestamp"
        );
        assert_eq!(a.generation(), g);
        assert_eq!(a.changed_since(g), Some(vec![]));
        assert_eq!(a.get(1).unwrap().points(), expect.as_slice());
    }

    #[test]
    fn durable_appends_replay_through_the_merge() {
        let backend: Arc<dyn saq_durable::Backend> = Arc::new(saq_durable::MemoryBackend::new());
        let base = goalpost(GoalpostSpec::default());
        let mut expect = base.points().to_vec();
        let generation;
        {
            let mut a = ArchiveStore::open_backend(
                Arc::clone(&backend),
                Medium::memory(),
                DurabilityConfig::default(),
            )
            .unwrap();
            a.put(1, base.clone());
            for wave in 0..7u64 {
                let seq = a.get(1).unwrap();
                let points = tail(&seq, 1 + (wave as usize % 4), wave + 11);
                a.append_points(1, &points);
                expect.extend_from_slice(&points);
            }
            // An append that *creates* an entry must also replay.
            a.append_points(5, &[Point::new(0.0, 1.0), Point::new(1.0, 2.0)]);
            generation = a.generation();
        }
        let a = ArchiveStore::open_backend(
            Arc::clone(&backend),
            Medium::memory(),
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(a.generation(), generation);
        assert_eq!(a.get(1).unwrap().points(), expect.as_slice(), "merged replay is bit-exact");
        assert_eq!(a.get(5).unwrap().len(), 2);
        assert_eq!(a.changed_since(generation - 1), Some(vec![5]));

        // Compaction folds the merged entry into the segment; appends
        // after it replay on top of the segment payload.
        drop(a);
        let mut a = ArchiveStore::open_backend(
            Arc::clone(&backend),
            Medium::memory(),
            DurabilityConfig::default(),
        )
        .unwrap();
        a.compact().unwrap();
        let seq = a.get(1).unwrap();
        let more = tail(&seq, 3, 99);
        a.append_points(1, &more);
        expect.extend_from_slice(&more);
        drop(a);
        let a = ArchiveStore::open_backend(backend, Medium::memory(), DurabilityConfig::default())
            .unwrap();
        assert_eq!(a.get(1).unwrap().points(), expect.as_slice());
    }

    #[test]
    fn append_dirties_cold_docs() {
        use saq_index::cold::DocPager as _;
        let backend: Arc<dyn saq_durable::Backend> = Arc::new(saq_durable::MemoryBackend::new());
        let mut a =
            ArchiveStore::open_backend(backend, Medium::memory(), DurabilityConfig::default())
                .unwrap();
        let base = goalpost(GoalpostSpec::default());
        a.put(1, base.clone());
        a.put(2, goalpost(GoalpostSpec { seed: 2, ..GoalpostSpec::default() }));
        a.compact().unwrap();
        let cold = a.cold_docs().unwrap();
        assert_eq!(cold.doc(1).as_ref(), a.snapshot().doc(1));
        a.append_points(1, &tail(&base, 2, 1));
        let snap = a.snapshot();
        let extended = compute_doc(snap.get(1).unwrap(), &StoreConfig::default()).unwrap();
        assert_eq!(snap.doc(1), Some(&extended), "the resident document follows the append");
        assert_ne!(cold.doc(1), Some(extended), "the segment keeps the compacted one");
        assert_eq!(cold.doc(2).as_ref(), snap.doc(2), "untouched id: segment and resident agree");
    }

    #[test]
    fn compaction_persists_cold_docs_and_mutations_dirty_them() {
        use saq_index::cold::DocPager as _;
        let backend: Arc<dyn saq_durable::Backend> = Arc::new(saq_durable::MemoryBackend::new());
        let mut a = ArchiveStore::open_backend(
            Arc::clone(&backend),
            Medium::memory(),
            DurabilityConfig::default(),
        )
        .unwrap();
        for i in 0..8u64 {
            a.put(i, goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() }));
        }
        a.put(8, Sequence::new(Vec::new()).unwrap());
        assert!(a.cold_docs().is_none(), "no docs segment before the first compaction");
        let snap = a.snapshot();
        assert!(snap.doc(8).is_none(), "the pipeline rejects an empty sequence: no document");
        for id in 0..8u64 {
            let expect = compute_doc(snap.get(id).unwrap(), &StoreConfig::default()).unwrap();
            assert_eq!(snap.doc(id), Some(&expect), "id {id}: resident from the put on");
        }
        a.compact().unwrap();
        let cold = a.cold_docs().expect("compaction writes the docs segment");
        for id in 0..9u64 {
            assert_eq!(cold.doc(id).as_ref(), snap.doc(id), "id {id}: the resident document");
        }

        // A mutation replaces the resident document; the segment keeps
        // what it was written with until the next compaction.
        a.put(3, peaks(PeaksSpec { centers: vec![9.0], ..PeaksSpec::default() }));
        assert_ne!(a.snapshot().doc(3), snap.doc(3));
        assert_eq!(cold.doc(3).as_ref(), snap.doc(3));
        a.compact().unwrap();
        assert_eq!(a.cold_docs().unwrap().doc(3).as_ref(), a.snapshot().doc(3));

        // Reopening decodes the documents back.
        let resident: Vec<_> = (0..9u64).map(|id| a.snapshot().doc(id).cloned()).collect();
        drop(a);
        let a = ArchiveStore::open_backend(backend, Medium::memory(), DurabilityConfig::default())
            .unwrap();
        let recovered: Vec<_> = (0..9u64).map(|id| a.snapshot().doc(id).cloned()).collect();
        assert_eq!(recovered, resident);
    }

    /// A [`saq_durable::MemoryBackend`] whose `append` parks until the
    /// test releases it — a write-ahead stuck in its fsync.
    #[derive(Default)]
    struct ParkedAppends {
        inner: saq_durable::MemoryBackend,
        parked: std::sync::Mutex<bool>,
        gate: std::sync::Condvar,
        park: std::sync::atomic::AtomicBool,
    }

    impl ParkedAppends {
        fn wait_until_parked(&self) {
            let mut parked = self.parked.lock().unwrap();
            while !*parked {
                parked = self.gate.wait(parked).unwrap();
            }
        }

        fn release(&self) {
            self.park.store(false, Ordering::SeqCst);
            *self.parked.lock().unwrap() = false;
            self.gate.notify_all();
        }
    }

    impl Backend for ParkedAppends {
        fn get(&self, key: &str) -> saq_durable::Result<Option<Vec<u8>>> {
            self.inner.get(key)
        }
        fn put(&self, key: &str, value: &[u8]) -> saq_durable::Result<()> {
            self.inner.put(key, value)
        }
        fn append(&self, key: &str, bytes: &[u8]) -> saq_durable::Result<u64> {
            if self.park.load(Ordering::SeqCst) {
                let mut parked = self.parked.lock().unwrap();
                *parked = true;
                self.gate.notify_all();
                while *parked {
                    parked = self.gate.wait(parked).unwrap();
                }
            }
            self.inner.append(key, bytes)
        }
        fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> saq_durable::Result<usize> {
            self.inner.read_at(key, offset, buf)
        }
        fn len(&self, key: &str) -> saq_durable::Result<Option<u64>> {
            self.inner.len(key)
        }
        fn truncate(&self, key: &str, len: u64) -> saq_durable::Result<()> {
            self.inner.truncate(key, len)
        }
        fn delete(&self, key: &str) -> saq_durable::Result<()> {
            self.inner.delete(key)
        }
        fn list(&self) -> saq_durable::Result<Vec<String>> {
            self.inner.list()
        }
        fn sync(&self) -> saq_durable::Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn readers_never_wait_for_a_write_ahead() {
        let backend = Arc::new(ParkedAppends::default());
        let mut a = ArchiveStore::open_backend(
            Arc::clone(&backend) as Arc<dyn Backend>,
            Medium::memory(),
            DurabilityConfig::default(),
        )
        .unwrap();
        a.put(1, goalpost(GoalpostSpec::default()));
        backend.park.store(true, Ordering::SeqCst);
        let mut writer = a.clone();
        let append = std::thread::spawn(move || {
            let base = writer.get(1).unwrap();
            writer.append_points(1, &tail(&base, 2, 4))
        });
        backend.wait_until_parked();

        // The append is inside its write-ahead; every read path answers.
        let (done, answered) = std::sync::mpsc::channel();
        let reader = a.clone();
        std::thread::spawn(move || {
            let snapshot = reader.snapshot();
            let _ = done.send((snapshot.generation(), reader.len(), reader.get(1).is_some()));
        });
        let seen = answered.recv_timeout(std::time::Duration::from_secs(10));
        backend.release();
        assert_eq!(seen, Ok((1, 1, true)), "reads answered the pre-append generation");
        assert_eq!(append.join().unwrap(), 51);
        assert_eq!(a.generation(), 2);
    }

    #[test]
    fn auto_compaction_triggers_on_wal_growth() {
        let backend: Arc<dyn saq_durable::Backend> = Arc::new(saq_durable::MemoryBackend::new());
        let mut a = ArchiveStore::open_backend(
            backend,
            Medium::memory(),
            DurabilityConfig { compact_after: 5, ..DurabilityConfig::default() },
        )
        .unwrap();
        for i in 0..5u64 {
            a.put(i, goalpost(GoalpostSpec { seed: i, ..GoalpostSpec::default() }));
        }
        assert_eq!(a.wal_records(), 0, "hitting the threshold compacts and empties the WAL");
        a.put(9, goalpost(GoalpostSpec { seed: 9, ..GoalpostSpec::default() }));
        assert_eq!(a.wal_records(), 1);
        assert!(a.cold_docs().is_some(), "the auto-compaction wrote the docs segment");
        assert_eq!(a.len(), 6);
    }
}
