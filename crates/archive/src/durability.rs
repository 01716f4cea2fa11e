//! The archive's durability bridge: payload codecs, the handle tying an
//! [`ArchiveStore`] to its [`DurableStore`], and
//! the staleness-aware cold-document pager.
//!
//! The durable layer stores opaque bytes; this module owns the two
//! encodings the archive commits to disk — raw sequences as WAL/segment
//! payloads ([`encode_sequence`]/[`decode_sequence`]) and precomputed
//! index documents ([`compute_doc`]) — plus [`ColdDocs`], the
//! [`DocPager`] that serves those documents back after a restart while
//! refusing any id mutated since they were computed.
//!
//! # Why refusal is always sound
//!
//! A document is exact for id `i` at the compaction base generation
//! `B`. [`ColdDocs`] marks `i` dirty on *every* later mutation of `i`
//! (and poisons itself entirely on a wildcard), so it serves `i` only
//! while the entry a query would compute from is byte-identical to the
//! one the document was derived from. The dirty set only ever grows
//! within one compaction era, and it is shared by *all* snapshots
//! holding this pager: a snapshot pinned at generation `G ≥ B` may see
//! ids marked dirty by mutations *after* `G` and refuse them
//! needlessly — costing a recompute from its pinned sequence, never a
//! wrong answer.

use crate::ArchiveStore;
use parking_lot::{Mutex, RwLock};
use saq_core::{Error, Result, StoreConfig, StoredEntry};
use saq_durable::codec::{self, Cursor};
use saq_durable::store::DocsReader;
use saq_durable::{DurableStore, SegmentReader};
use saq_index::cold::{DocPager, OwnedDoc};
use saq_sequence::{Point, Sequence};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How an [`ArchiveStore`] persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Auto-compact once this many WAL records accumulate (0 = only
    /// compact when [`ArchiveStore::compact`](crate::ArchiveStore::compact)
    /// is called explicitly).
    pub compact_after: u64,
    /// When set, compaction also persists precomputed index documents
    /// under this representation configuration, so reopening serves
    /// index-only queries without recomputing every entry. Use the same
    /// configuration the query engine ingests with.
    pub index_docs: Option<StoreConfig>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { compact_after: 1024, index_docs: Some(StoreConfig::default()) }
    }
}

/// The durable half of an archive: the open store, its configuration,
/// and the current cold-document pager. Lives behind the one mutex that
/// serializes WAL appends with compactions; the locking order is always
/// durable-handle first, then the archive state lock.
pub(crate) struct DurableHandle {
    pub(crate) store: Mutex<DurableStore>,
    pub(crate) config: DurabilityConfig,
    pub(crate) cold: RwLock<Option<Arc<ColdDocs>>>,
}

impl fmt::Debug for DurableHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableHandle").field("config", &self.config).finish_non_exhaustive()
    }
}

impl DurableHandle {
    /// Marks an id dirty (or poisons everything for a wildcard) in the
    /// current cold pager, if any.
    pub(crate) fn mark(&self, id: Option<u64>) {
        if let Some(cold) = self.cold.read().as_ref() {
            cold.mark(id);
        }
    }
}

// --- payload codecs ---------------------------------------------------

/// Encodes a raw sequence as a WAL/segment payload: point count, then
/// `(t, v)` IEEE-754 pairs.
pub fn encode_sequence(seq: &Sequence) -> Vec<u8> {
    let points = seq.points();
    let mut out = Vec::with_capacity(4 + points.len() * 16);
    codec::put_u32(&mut out, points.len() as u32);
    for p in points {
        codec::put_f64(&mut out, p.t);
        codec::put_f64(&mut out, p.v);
    }
    out
}

/// Decodes [`encode_sequence`] output back into a sequence.
pub fn decode_sequence(bytes: &[u8]) -> saq_durable::Result<Sequence> {
    let mut c = Cursor::new(bytes, "sequence payload");
    let count = c.get_u32()? as usize;
    let mut points = Vec::with_capacity(count.min(bytes.len() / 16 + 1));
    for _ in 0..count {
        let t = c.get_f64()?;
        let v = c.get_f64()?;
        points.push(Point::new(t, v));
    }
    c.finish()?;
    Sequence::new(points)
        .map_err(|e| saq_durable::Error::corrupt(format!("sequence payload rejected: {e}")))
}

/// The archive's [`saq_durable::AppendMerge`]: folds an append-delta
/// payload into the prior entry payload during WAL replay. Decoding both
/// sides re-validates what the live path validated before logging — a
/// delta whose first timestamp doesn't extend the prior sequence is
/// corruption, not data.
pub(crate) fn merge_append(prior: Option<&[u8]>, delta: &[u8]) -> saq_durable::Result<Vec<u8>> {
    let delta_seq = decode_sequence(delta)?;
    match prior {
        // The append created the entry: the delta is the whole payload.
        None => Ok(delta.to_vec()),
        Some(prior) => {
            let merged = decode_sequence(prior)?.concat(&delta_seq).map_err(|e| {
                saq_durable::Error::corrupt(format!("append payload rejected: {e}"))
            })?;
            Ok(encode_sequence(&merged))
        }
    }
}

/// Runs the ingestion pipeline for one sequence and captures the index
/// document the engine would derive from it. The document never reads
/// the raw samples, so none are retained (`keep_raw` is ignored).
pub fn compute_doc(seq: &Sequence, config: &StoreConfig) -> Result<OwnedDoc> {
    let entry = StoredEntry::compute(seq, &StoreConfig { keep_raw: false, ..*config })?;
    Ok(OwnedDoc {
        interval_buckets: entry.peaks.interval_buckets(),
        peak_count: entry.peaks.len(),
        symbols: entry.symbols,
    })
}

/// Maps a durable-layer failure into the stack-wide error type.
pub fn storage_error(e: saq_durable::Error) -> Error {
    Error::from(e)
}

// --- the cold pager ---------------------------------------------------

/// A [`DocPager`] over the index documents persisted by the last
/// compaction, refusing ids mutated since (see the module docs for the
/// soundness argument).
pub struct ColdDocs {
    reader: SegmentReader,
    epsilon_bits: u64,
    theta_bits: u64,
    breaker_tag: u64,
    base_generation: u64,
    dirty: RwLock<HashSet<u64>>,
    poisoned: AtomicBool,
}

impl fmt::Debug for ColdDocs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColdDocs")
            .field("base_generation", &self.base_generation)
            .field("dirty", &self.dirty.read().len())
            .field("poisoned", &self.poisoned.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ColdDocs {
    pub(crate) fn new(pager: DocsReader) -> ColdDocs {
        ColdDocs {
            reader: pager.reader,
            epsilon_bits: pager.epsilon_bits,
            theta_bits: pager.theta_bits,
            breaker_tag: pager.breaker_tag,
            base_generation: pager.base_generation,
            dirty: RwLock::new(HashSet::new()),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks `id` dirty; `None` (a wildcard mutation) poisons the whole
    /// pager — every future request is refused.
    pub(crate) fn mark(&self, id: Option<u64>) {
        match id {
            Some(id) => {
                self.dirty.write().insert(id);
            }
            None => self.poisoned.store(true, Ordering::Release),
        }
    }

    /// Whether these documents were computed under the same
    /// representation parameters (bit-exact ε and θ, and the same
    /// breaking algorithm — the two breakers produce different valid
    /// segmentations, so documents from one must never serve the other)
    /// as `config`.
    pub fn matches_config(&self, config: &StoreConfig) -> bool {
        self.epsilon_bits == config.epsilon.to_bits()
            && self.theta_bits == config.theta.to_bits()
            && self.breaker_tag == config.breaker.tag()
    }

    /// The generation the documents are exact at.
    pub fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// Documents currently refused because their id mutated after the
    /// compaction that wrote them.
    pub fn dirty_count(&self) -> usize {
        self.dirty.read().len()
    }

    /// Segment pages fetched so far — cold-open experiments use this to
    /// show queries page in O(needed), not O(archive).
    pub fn pages_read(&self) -> u64 {
        self.reader.pages_read()
    }
}

impl DocPager for ColdDocs {
    fn doc(&self, id: u64) -> Option<OwnedDoc> {
        if self.poisoned.load(Ordering::Acquire) || self.dirty.read().contains(&id) {
            return None;
        }
        let bytes = self.reader.get(id).ok()??;
        OwnedDoc::decode(&bytes).ok()
    }

    fn ids(&self) -> Vec<u64> {
        if self.poisoned.load(Ordering::Acquire) {
            return Vec::new();
        }
        let dirty = self.dirty.read();
        match self.reader.keys() {
            Ok(keys) => keys.into_iter().filter(|id| !dirty.contains(id)).collect(),
            Err(_) => Vec::new(),
        }
    }
}

/// Seeds a fresh [`ColdDocs`] from recovery: ids mutated between the
/// docs' base generation and the recovered head start out dirty, and a
/// replayed wildcard poisons the pager, exactly as if the mutations had
/// happened live.
pub(crate) fn seed_cold(pager: DocsReader, mutations: &[(u64, Option<u64>)]) -> ColdDocs {
    let base = pager.base_generation;
    let cold = ColdDocs::new(pager);
    for (generation, id) in mutations {
        if *generation > base {
            cold.mark(*id);
        }
    }
    cold
}

/// `(id, encoded bytes)` rows bound for one segment.
pub(crate) type SegmentRows = Vec<(u64, Vec<u8>)>;

/// Builds the compaction inputs for `entries` visible in a state:
/// encoded sequences sorted by id, plus (when configured) their encoded
/// index documents. A sequence the ingestion pipeline rejects simply
/// gets no document — it will be recomputed (and rejected) at query
/// time, same as today.
pub(crate) fn compaction_payload(
    ids: &[u64],
    get: impl Fn(u64) -> Option<Arc<Sequence>>,
    docs_config: Option<&StoreConfig>,
) -> (SegmentRows, Option<SegmentRows>) {
    let mut entries = Vec::with_capacity(ids.len());
    let mut docs = docs_config.map(|_| Vec::with_capacity(ids.len()));
    for &id in ids {
        let Some(seq) = get(id) else { continue };
        entries.push((id, encode_sequence(&seq)));
        if let (Some(docs), Some(config)) = (docs.as_mut(), docs_config) {
            if let Ok(doc) = compute_doc(&seq, config) {
                docs.push((id, doc.encode()));
            }
        }
    }
    (entries, docs)
}

/// Convenience re-export: opens a directory-backed archive. See
/// [`ArchiveStore::open`].
pub fn open_dir(
    path: impl Into<std::path::PathBuf>,
    medium: crate::Medium,
    config: DurabilityConfig,
) -> Result<ArchiveStore> {
    let backend = saq_durable::FileBackend::open(path.into()).map_err(storage_error)?;
    ArchiveStore::open_backend(Arc::new(backend), medium, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_sequence::generators::{goalpost, GoalpostSpec};

    #[test]
    fn sequence_payload_round_trips_bit_exactly() {
        let seq = goalpost(GoalpostSpec { seed: 3, noise: 0.2, ..GoalpostSpec::default() });
        let decoded = decode_sequence(&encode_sequence(&seq)).unwrap();
        assert_eq!(seq.points(), decoded.points());
        // Corruption surfaces as errors, not empty sequences.
        let mut bytes = encode_sequence(&seq);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_sequence(&bytes).is_err());
        assert!(decode_sequence(&[9, 9, 9]).is_err());
    }

    #[test]
    fn computed_docs_match_the_ingestion_pipeline() {
        let seq = goalpost(GoalpostSpec { seed: 9, ..GoalpostSpec::default() });
        let config = StoreConfig::default();
        let doc = compute_doc(&seq, &config).unwrap();
        let entry = StoredEntry::compute(&seq, &config).unwrap();
        assert_eq!(doc.symbols, entry.symbols);
        assert_eq!(doc.interval_buckets, entry.peaks.interval_buckets());
        assert_eq!(doc.peak_count, entry.peaks.len());
        let roundtrip = OwnedDoc::decode(&doc.encode()).unwrap();
        assert_eq!(roundtrip, doc);
    }
}
