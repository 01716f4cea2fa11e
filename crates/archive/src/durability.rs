//! The archive's durability bridge: payload codecs, the handle tying an
//! [`ArchiveStore`] to its [`DurableStore`], and feature documents
//! through compaction and recovery.
//!
//! The durable layer stores opaque bytes; this module owns the two
//! encodings the archive commits to disk — raw sequences as WAL/segment
//! payloads ([`encode_sequence`]/[`decode_sequence`]) and feature
//! documents ([`compute_doc`], [`OwnedDoc::encode`]) in the docs
//! segment.
//!
//! The archive keeps every id's document resident and current, so the
//! docs segment is only a way to skip recomputing them at open:
//! compaction writes the resident documents, and recovery decodes them
//! for every id the WAL tail left alone. No persisted document is used
//! without that check, so there is no staleness to track.

use crate::ArchiveStore;
use parking_lot::{Mutex, RwLock};
use saq_core::{Error, Result, StoreConfig, StoredEntry};
use saq_durable::codec::{self, Cursor};
use saq_durable::store::DocsReader;
use saq_durable::{DurableStore, SegmentReader};
use saq_index::cold::{DocPager, OwnedDoc};
use saq_index::ShardedCowMap;
use saq_sequence::{Point, Sequence};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// How an [`ArchiveStore`] persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Auto-compact once this many WAL records accumulate (0 = only
    /// compact when [`ArchiveStore::compact`](crate::ArchiveStore::compact)
    /// is called explicitly).
    pub compact_after: u64,
    /// The representation parameters (ε, θ, breaker) the archive derives
    /// its feature documents with; `keep_raw` is ignored.
    pub representation: StoreConfig,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { compact_after: 1024, representation: StoreConfig::default() }
    }
}

/// The durable half of an archive: the open store and the view over
/// its current docs segment. The store's mutex serializes WAL appends
/// with compactions; the locking order is always durable handle first,
/// then the archive state lock.
pub(crate) struct DurableHandle {
    pub(crate) store: Mutex<DurableStore>,
    pub(crate) cold: RwLock<Option<Arc<ColdDocs>>>,
}

impl fmt::Debug for DurableHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableHandle").finish_non_exhaustive()
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

/// Runs the ingestion pipeline for one sequence and captures its
/// feature document. The document never reads the raw samples, so none
/// are retained (`keep_raw` is ignored). Fails as the pipeline does: an
/// empty sequence is archivable but has no document.
pub fn compute_doc(seq: &Sequence, config: &StoreConfig) -> Result<OwnedDoc> {
    let entry = StoredEntry::compute(seq, &StoreConfig { keep_raw: false, ..*config })?;
    Ok(OwnedDoc {
        interval_buckets: entry.peaks.interval_buckets(),
        peak_count: entry.peaks.len(),
        steepness: entry.peaks.steepness_range(),
        symbols: entry.symbols,
    })
}

/// Maps a durable-layer failure into the stack-wide error type.
pub fn storage_error(e: saq_durable::Error) -> Error {
    Error::from(e)
}

// --- the docs segment -------------------------------------------------

/// A read-only view over the docs segment the last compaction wrote (or
/// recovery found). Queries never read it — the archive's resident
/// documents answer them; it only reports what the segment holds.
pub struct ColdDocs {
    reader: SegmentReader,
}

impl fmt::Debug for ColdDocs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColdDocs").field("pages_read", &self.pages_read()).finish_non_exhaustive()
    }
}

impl ColdDocs {
    pub(crate) fn new(pager: DocsReader) -> ColdDocs {
        ColdDocs { reader: pager.reader }
    }

    /// Segment pages fetched so far through this view.
    pub fn pages_read(&self) -> u64 {
        self.reader.pages_read()
    }
}

impl DocPager for ColdDocs {
    /// The document the segment holds for `id`, if its pages read and
    /// decode cleanly. It is exact at the compaction that wrote it.
    fn doc(&self, id: u64) -> Option<OwnedDoc> {
        let bytes = self.reader.get(id).ok()??;
        OwnedDoc::decode(&bytes).ok()
    }
}

/// Whether a docs segment was written under `config`: bit-exact ε and θ,
/// and the same breaker (the two breakers produce different valid
/// segmentations, so documents from one never serve the other).
fn stamped_with(docs: &DocsReader, config: &StoreConfig) -> bool {
    docs.epsilon_bits == config.epsilon.to_bits()
        && docs.theta_bits == config.theta.to_bits()
        && docs.breaker_tag == config.breaker.tag()
}

/// The resident documents of a recovered archive. Documents come from
/// the docs segment, one page at a time, for every id whose entry the WAL
/// tail did not touch after the segment's base; a page that fails its
/// check serves nothing. Every other id — touched, missing from the
/// segment, on a damaged page, or all of them when there is no segment
/// or its stamp differs from `config` — is computed from its sequence.
pub(crate) fn recover_docs(
    docs: Option<&DocsReader>,
    config: &StoreConfig,
    sequences: &ShardedCowMap<Sequence>,
    mutations: &[(u64, Option<u64>)],
) -> ShardedCowMap<OwnedDoc> {
    let mut out = ShardedCowMap::new();
    if let Some(docs) = docs.filter(|d| stamped_with(d, config)) {
        let touched: HashSet<u64> = mutations
            .iter()
            .filter(|(generation, _)| *generation > docs.base_generation)
            .filter_map(|(_, id)| *id)
            .collect();
        docs.reader.scan_intact(&mut |id, bytes| {
            if sequences.contains(id) && !touched.contains(&id) {
                if let Ok(doc) = OwnedDoc::decode(bytes) {
                    out.insert(id, doc);
                }
            }
        });
    }
    for (id, seq) in sequences.iter() {
        if !out.contains(id) {
            if let Ok(doc) = compute_doc(seq, config) {
                out.insert(id, doc);
            }
        }
    }
    out
}

/// `(id, encoded bytes)` rows bound for one segment.
pub(crate) type SegmentRows = Vec<(u64, Vec<u8>)>;

/// Builds the compaction inputs for the ids of one state: encoded
/// sequences and encoded resident documents, both sorted by id. An id
/// the pipeline rejected has no document.
pub(crate) fn compaction_payload(
    ids: &[u64],
    sequences: &ShardedCowMap<Sequence>,
    docs: &ShardedCowMap<OwnedDoc>,
) -> (SegmentRows, SegmentRows) {
    let entries =
        ids.iter().filter_map(|&id| Some((id, encode_sequence(sequences.get(id)?)))).collect();
    let docs = ids.iter().filter_map(|&id| Some((id, docs.get(id)?.encode()))).collect();
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
        assert_eq!(doc.steepness, entry.peaks.steepness_range());
        assert!(doc.steepness.is_some(), "a goalpost has peaks");
        let roundtrip = OwnedDoc::decode(&doc.encode()).unwrap();
        assert_eq!(roundtrip, doc);
    }
}
