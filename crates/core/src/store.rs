//! The representation store: what the paper's "database" holds (§4.4).
//!
//! "The stored sequences are represented as sequences of linear functions"
//! with two index structures maintained over them: the slope-sign pattern
//! index (§4.4) and the inverted-file index over inter-peak intervals
//! (§5.2, Fig. 10). Raw sequences may optionally be retained ("we don't
//! propose discarding the actual sequences; they can be stored archivally").
//!
//! [`SequenceStore`] is the writer; [`StoreSnapshot`] is the read surface
//! — both the pinned view readers query and the form the store keeps its
//! own state in (it dereferences to it), so each accessor exists once.

use crate::alphabet::{series_symbols, DEFAULT_THETA};
use crate::brk::{Breaker, LinearInterpolationBreaker, OnlineBreaker};
use crate::error::{Error, Result};
use crate::features::PeakTable;
use crate::repr::LinearSeries;
use saq_curves::{Line, RegressionFitter};
use saq_index::{IndexDoc, IndexSet, IndexSetProbe, IndexStats, SequenceIndex as _, ShardedCowMap};
use saq_sequence::Sequence;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes stores within a process so a `(instance, generation)`
/// pair never collides across two different stores.
static NEXT_STORE_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// Which breaking algorithm the ingestion pipeline runs.
///
/// The two produce different (both valid) segmentations; what matters
/// for streaming is *suffix stability*: [`BreakerKind::Online`] decides
/// each breakpoint from the points of the current segment only, so a
/// closed segment is final and appending points can re-break just the
/// open suffix ([`crate::streaming::append_entry`]) byte-identically to
/// a from-scratch run. The recursive offline template has no such
/// property — appending under it recomputes the whole sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerKind {
    /// The offline recursive interpolation template (Fig. 8) — the
    /// batch default used throughout the paper's experiments.
    #[default]
    Offline,
    /// The single-pass sliding-window breaker (§5.1) — suffix-stable,
    /// required for incremental appends.
    Online,
}

impl BreakerKind {
    /// A stable integer tag for persistence stamps (durable index
    /// documents record which breaker derived them, next to the ε/θ bit
    /// patterns). Never reorder: the tags are on disk in every manifest.
    pub fn tag(self) -> u64 {
        match self {
            BreakerKind::Offline => 0,
            BreakerKind::Online => 1,
        }
    }
}

/// Configuration of the ingestion pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Breaking tolerance ε.
    pub epsilon: f64,
    /// Slope-quantization threshold θ (the paper uses 0.25).
    pub theta: f64,
    /// Whether to retain the raw sequences alongside representations.
    pub keep_raw: bool,
    /// Which breaking algorithm ingestion runs (default offline).
    pub breaker: BreakerKind,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            epsilon: 1.0,
            theta: DEFAULT_THETA,
            keep_raw: true,
            breaker: BreakerKind::default(),
        }
    }
}

impl StoreConfig {
    /// The default configuration with the suffix-stable online breaker —
    /// what a streaming ingest wants (see [`BreakerKind`]).
    pub fn streaming() -> StoreConfig {
        StoreConfig { breaker: BreakerKind::Online, ..StoreConfig::default() }
    }
}

/// Everything stored for one ingested sequence.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// The piecewise-linear representation.
    pub series: LinearSeries,
    /// θ-quantized slope symbol ids.
    pub symbols: Vec<u8>,
    /// The peaks table (Table 1).
    pub peaks: PeakTable<Line>,
    /// The raw sequence, if retained. Shared, not copied: an entry built
    /// by [`StoredEntry::compute_shared`] points at its source's
    /// allocation (the archive's own copy, for the sequential archive
    /// scan).
    pub raw: Option<Arc<Sequence>>,
}

impl StoredEntry {
    /// Runs the full ingestion pipeline on one sequence: break → represent
    /// (regression lines) → quantize slopes → extract peaks. This is the
    /// single source of truth shared by [`SequenceStore::insert`] and the
    /// batch engine's on-demand feature computation, so a sequence always
    /// yields the same representation regardless of which path touched it.
    /// A retained raw sequence is a copy of `seq`.
    pub fn compute(seq: &Sequence, config: &StoreConfig) -> Result<StoredEntry> {
        StoredEntry::build(seq, config, || Arc::new(seq.clone()))
    }

    /// As [`StoredEntry::compute`], but a retained raw sequence shares
    /// `seq`'s allocation instead of copying it.
    pub fn compute_shared(seq: &Arc<Sequence>, config: &StoreConfig) -> Result<StoredEntry> {
        StoredEntry::build(seq, config, || Arc::clone(seq))
    }

    /// The pipeline both constructors run; `raw` is called only when
    /// `config.keep_raw` asks for the raw sequence.
    fn build(
        seq: &Sequence,
        config: &StoreConfig,
        raw: impl FnOnce() -> Arc<Sequence>,
    ) -> Result<StoredEntry> {
        if seq.is_empty() {
            return Err(Error::EmptyInput);
        }
        let ranges = match config.breaker {
            BreakerKind::Offline => {
                LinearInterpolationBreaker::new(config.epsilon).break_ranges(seq)
            }
            BreakerKind::Online => OnlineBreaker::new(config.epsilon).break_ranges(seq),
        };
        let series = LinearSeries::build(seq, &ranges, &RegressionFitter)?;
        let (symbols, peaks) = derive_features(&series, config.theta);
        Ok(StoredEntry { series, symbols, peaks, raw: config.keep_raw.then(raw) })
    }
}

/// Derives the indexed artifacts from a representation: θ-quantized slope
/// symbols and the peaks table. Single-sample segments have no defined
/// slope; their Flat symbol would split e.g. a `u+ d+` peak at its apex,
/// so they are dropped from the indexed symbol string. Shared by
/// [`StoredEntry::compute`] and the streaming splice
/// ([`crate::streaming::append_entry`]), so both paths always derive the
/// same features from the same series.
pub(crate) fn derive_features(series: &LinearSeries, theta: f64) -> (Vec<u8>, PeakTable<Line>) {
    let symbols: Vec<u8> = series_symbols(series, theta)
        .into_iter()
        .zip(series.segments())
        .filter(|(sym, seg)| !(seg.len() == 1 && *sym == crate::alphabet::SlopeSymbol::Flat))
        .map(|(sym, _)| sym.id())
        .collect();
    let peaks = PeakTable::extract(series, theta);
    (symbols, peaks)
}

/// A store of sequence representations with the paper's two indexes,
/// maintained as one [`IndexSet`]: every mutation — [`SequenceStore::insert`],
/// [`SequenceStore::remove`], [`SequenceStore::reinsert`] — routes through
/// the set's incremental insert/remove, so the indexes can never drift
/// from the entry map.
///
/// The store keeps its state *as* the [`StoreSnapshot`] it hands out and
/// dereferences to it, so every read accessor (`get`, `ids`, `len`,
/// `index_stats`, `pattern_index`, …) is defined once, on the snapshot.
/// Both the entry map and the index set are clone-on-write, and every
/// mutation advances the generation, so [`SequenceStore::snapshot`] is
/// cheap (a few `Arc` clones) and the view it returns is pinned to
/// `(instance, generation)` — later writes can never tear it.
#[derive(Debug)]
pub struct SequenceStore {
    next_id: u64,
    state: StoreSnapshot,
}

impl Default for SequenceStore {
    fn default() -> Self {
        SequenceStore::new(StoreConfig::default()).expect("default config is valid")
    }
}

impl std::ops::Deref for SequenceStore {
    type Target = StoreSnapshot;

    /// The live state, read through the snapshot's accessors.
    fn deref(&self) -> &StoreSnapshot {
        &self.state
    }
}

impl SequenceStore {
    /// An empty store with the given configuration.
    pub fn new(config: StoreConfig) -> Result<SequenceStore> {
        if !(config.epsilon.is_finite() && config.epsilon >= 0.0) {
            return Err(Error::BadConfig("epsilon must be finite and >= 0".into()));
        }
        if !(config.theta.is_finite() && config.theta >= 0.0) {
            return Err(Error::BadConfig("theta must be finite and >= 0".into()));
        }
        Ok(SequenceStore {
            next_id: 1,
            state: StoreSnapshot {
                config,
                instance: NEXT_STORE_INSTANCE.fetch_add(1, Ordering::Relaxed),
                generation: 0,
                entries: ShardedCowMap::new(),
                indexes: IndexSet::new(),
            },
        })
    }

    /// An immutable view of the store pinned to the current
    /// `(instance, generation)`: a few `Arc` clones, no entry or index
    /// copying. Later mutations clone-on-write only what they touch; the
    /// snapshot keeps the superseded structures alive until dropped.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.state.clone()
    }

    /// Ingests a sequence: break → represent (regression lines) → quantize
    /// slopes → extract peaks → index. Returns the assigned id.
    pub fn insert(&mut self, seq: &Sequence) -> Result<u64> {
        let entry = StoredEntry::compute(seq, &self.state.config)?;
        let id = self.next_id;
        self.next_id += 1;
        self.install(id, entry);
        Ok(id)
    }

    /// Removes a stored sequence, unindexing it everywhere; returns the
    /// evicted entry. Ids are never reused.
    pub fn remove(&mut self, id: u64) -> Result<StoredEntry> {
        let entry = self.state.entries.remove(id).ok_or(Error::UnknownSequence { id })?;
        self.state.indexes.remove_doc(id);
        self.state.generation += 1;
        // Snapshots may still share the entry; clone only in that case.
        Ok(Arc::try_unwrap(entry).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Extends the sequence stored under `id` with freshly arrived
    /// points, re-representing it and swapping its index postings — the
    /// streaming ingest path. Under [`BreakerKind::Online`] only the
    /// open suffix is re-broken and refitted
    /// ([`crate::streaming::append_entry`]); the offline breaker has no
    /// stable suffix, so the whole extended sequence is recomputed.
    /// Either way the resulting entry is byte-identical to re-ingesting
    /// the extended sequence from scratch. Requires `keep_raw` (the raw
    /// points are what gets extended); fails, leaving the store
    /// untouched, on unknown ids, non-monotonic timestamps, or an empty
    /// `points`. Returns how much work the splice did.
    pub fn append_points(
        &mut self,
        id: u64,
        points: &[saq_sequence::Point],
    ) -> Result<crate::streaming::SpliceReport> {
        let (next, report) =
            crate::streaming::append_entry(self.get(id)?, points, &self.state.config)?;
        self.install(id, next);
        Ok(report)
    }

    /// Replaces the sequence stored under an existing id, re-running the
    /// ingestion pipeline and incrementally swapping its index postings.
    /// Fails (leaving the store untouched) on unknown ids — fresh data
    /// goes through [`SequenceStore::insert`].
    pub fn reinsert(&mut self, id: u64, seq: &Sequence) -> Result<()> {
        self.get(id)?;
        let entry = StoredEntry::compute(seq, &self.state.config)?;
        self.install(id, entry);
        Ok(())
    }

    /// The one step that publishes an entry under `id`: its index
    /// mutation goes through the [`IndexSet`] (an upsert — old postings of
    /// `id`, if any, are dropped first), then the entry map and the
    /// generation follow, so the indexes cannot drift from the entries.
    fn install(&mut self, id: u64, entry: StoredEntry) {
        let buckets = entry.peaks.interval_buckets();
        self.state.indexes.insert_doc(
            id,
            &IndexDoc {
                symbols: &entry.symbols,
                interval_buckets: &buckets,
                peak_count: entry.peaks.len(),
            },
        );
        self.state.entries.insert(id, entry);
        self.state.generation += 1;
    }

    /// Aggregate compression across all stored representations.
    pub fn total_compression(&self) -> crate::repr::CompressionReport {
        let mut original = 0;
        let mut segments = 0;
        let mut parameters = 0;
        for (_, e) in self.state.entries.iter() {
            let r = e.series.compression();
            original += r.original_points;
            segments += r.segments;
            parameters += r.parameters;
        }
        crate::repr::CompressionReport { original_points: original, segments, parameters }
    }
}

/// An immutable view of a [`SequenceStore`] pinned to the
/// `(instance, generation)` it was taken at — and the one definition of
/// the store's read surface: the live store holds its state as a
/// `StoreSnapshot` and dereferences to it. Entries, indexes, and
/// statistics of a handed-out snapshot all read the pinned state, no
/// matter what the live store does afterwards — this is what makes
/// lock-free readers under live writers sound: a query evaluated against
/// a snapshot can never observe a torn mutation.
///
/// Snapshots are cheap to take ([`SequenceStore::snapshot`]) and to clone
/// (shared storage), and implement the full query surface: the algebra's
/// `QueryEngine` is implemented directly on `StoreSnapshot`.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    config: StoreConfig,
    instance: u64,
    generation: u64,
    entries: ShardedCowMap<StoredEntry>,
    indexes: IndexSet,
}

impl StoreSnapshot {
    /// The ingestion configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// A process-unique id for the store, so `(instance, generation)`
    /// identifies a snapshot globally.
    pub fn instance_id(&self) -> u64 {
        self.instance
    }

    /// The mutation counter this state is at: bumped by every successful
    /// [`SequenceStore::insert`] / [`SequenceStore::remove`] /
    /// [`SequenceStore::reinsert`] / append; fixed for a handed-out
    /// snapshot.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of stored sequences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no sequence is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entry for an id.
    pub fn get(&self, id: u64) -> Result<&StoredEntry> {
        self.entries.get(id).ok_or(Error::UnknownSequence { id })
    }

    /// All stored ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.sorted_ids()
    }

    /// The slope-pattern index (§4.4).
    pub fn pattern_index(&self) -> &saq_index::PatternIndex {
        self.indexes.pattern()
    }

    /// The inverted-file interval index (Fig. 10).
    pub fn interval_index(&self) -> &saq_index::InvertedIndex {
        self.indexes.interval()
    }

    /// The unified index layer over the stored representations.
    pub fn index_set(&self) -> &IndexSet {
        &self.indexes
    }

    /// Snapshots the per-index statistics (posting-list sizes, per-symbol
    /// prefix counts, interval and peak-count histograms) that drive the
    /// planner's cardinality estimates. On a handed-out snapshot they are
    /// byte-identical no matter how far the live store has moved on.
    pub fn index_stats(&self) -> IndexStats {
        self.indexes.stats()
    }

    /// A weak handle answering whether this snapshot's index structures
    /// are still reachable anywhere (see [`IndexSet::probe`]).
    pub fn index_probe(&self) -> IndexSetProbe {
        self.indexes.probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    fn store() -> SequenceStore {
        SequenceStore::new(StoreConfig::default()).unwrap()
    }

    #[test]
    fn insert_assigns_increasing_ids() {
        let mut s = store();
        let log = goalpost(GoalpostSpec::default());
        let a = s.insert(&log).unwrap();
        let b = s.insert(&log).unwrap();
        assert!(b > a);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), vec![a, b]);
    }

    #[test]
    fn empty_sequence_rejected() {
        let mut s = store();
        let empty = Sequence::new(vec![]).unwrap();
        assert!(matches!(s.insert(&empty), Err(Error::EmptyInput)));
    }

    #[test]
    fn entry_holds_all_artifacts() {
        let mut s = store();
        let log = goalpost(GoalpostSpec::default());
        let id = s.insert(&log).unwrap();
        let e = s.get(id).unwrap();
        assert!(e.series.segment_count() >= 4);
        assert!(!e.symbols.is_empty());
        assert_eq!(e.peaks.len(), 2);
        assert!(e.raw.is_some());
        assert!(s.get(999).is_err());
    }

    #[test]
    fn keep_raw_false_drops_raw() {
        let mut s =
            SequenceStore::new(StoreConfig { keep_raw: false, ..StoreConfig::default() }).unwrap();
        let id = s.insert(&goalpost(GoalpostSpec::default())).unwrap();
        assert!(s.get(id).unwrap().raw.is_none());
    }

    #[test]
    fn interval_index_populated() {
        let mut s = store();
        let three = peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() });
        let id = s.insert(&three).unwrap();
        // Two intervals of ~8h each.
        let hits = s.interval_index().matching_sequences(8, 2);
        assert_eq!(hits, vec![id]);
    }

    #[test]
    fn remove_unindexes_everywhere() {
        let mut s = store();
        let two = goalpost(GoalpostSpec::default());
        let three = peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() });
        let a = s.insert(&two).unwrap();
        let b = s.insert(&three).unwrap();
        assert_eq!(s.interval_index().matching_sequences(8, 1), vec![b]);
        let evicted = s.remove(b).unwrap();
        assert_eq!(evicted.peaks.len(), 3);
        assert_eq!(s.len(), 1);
        assert!(s.get(b).is_err());
        assert!(s.pattern_index().symbols_of(b).is_none());
        assert!(s.interval_index().matching_sequences(8, 1).is_empty());
        assert!(s.remove(b).is_err(), "double remove errors");
        // The survivor is untouched.
        assert!(s.pattern_index().symbols_of(a).is_some());
        // Ids are never reused.
        let c = s.insert(&two).unwrap();
        assert!(c > b);
    }

    #[test]
    fn reinsert_swaps_representation_and_postings() {
        let mut s = store();
        let id = s.insert(&goalpost(GoalpostSpec::default())).unwrap();
        assert_eq!(s.get(id).unwrap().peaks.len(), 2);
        let three = peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() });
        s.reinsert(id, &three).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id).unwrap().peaks.len(), 3);
        assert_eq!(s.interval_index().matching_sequences(8, 2), vec![id]);
        assert_eq!(s.index_stats().estimate_peak_count(2, 0), 0, "old histogram slot vacated");
        assert!(s.reinsert(999, &three).is_err(), "reinsert needs an existing id");
        // A failed recompute leaves the store untouched.
        let empty = Sequence::new(vec![]).unwrap();
        assert!(s.reinsert(id, &empty).is_err());
        assert_eq!(s.get(id).unwrap().peaks.len(), 3);
    }

    #[test]
    fn index_stats_follow_mutations() {
        let mut s = store();
        let a = s.insert(&goalpost(GoalpostSpec::default())).unwrap();
        let stats = s.index_stats();
        assert_eq!(stats.pattern.docs, 1);
        assert_eq!(stats.estimate_peak_count(2, 0), 1);
        assert!(stats.interval.postings >= 1);
        s.remove(a).unwrap();
        assert_eq!(s.index_stats(), saq_index::IndexStats::default());
    }

    #[test]
    fn bad_config_rejected() {
        assert!(SequenceStore::new(StoreConfig { epsilon: f64::NAN, ..StoreConfig::default() })
            .is_err());
        assert!(SequenceStore::new(StoreConfig { theta: -1.0, ..StoreConfig::default() }).is_err());
    }

    #[test]
    fn total_compression_aggregates() {
        let mut s = store();
        s.insert(&goalpost(GoalpostSpec::default())).unwrap();
        s.insert(&goalpost(GoalpostSpec::default())).unwrap();
        let r = s.total_compression();
        assert_eq!(r.original_points, 98);
        assert!(r.ratio() > 1.0);
    }
}
