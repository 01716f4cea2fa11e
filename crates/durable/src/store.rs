//! The durable store: manifest + WAL + segments, tied together by the
//! recovery protocol.
//!
//! # Layout
//!
//! A store occupies four well-known keys in a [`Backend`]:
//!
//! | key          | contents                                             |
//! |--------------|------------------------------------------------------|
//! | `manifest`   | one frame: instance id, base generation, segment refs |
//! | `wal`        | framed [`WalRecord`]s for generations past the base   |
//! | `seg-<G>`    | the entry B-tree segment compacted at generation `G`  |
//! | `docs-<G>`   | optional index-document segment for the same `G`      |
//!
//! # The commit protocol
//!
//! Writes append to the WAL *before* the in-memory apply. Compaction
//! folds the current contents into fresh `seg-<G>`/`docs-<G>` values,
//! then commits by atomically replacing the manifest, then truncates
//! the WAL and deletes the previous generation's segments. The manifest
//! `put` is the linearization point: a crash before it recovers from
//! the old manifest plus the full WAL (the half-built segments are
//! garbage, rewritten next time); a crash after it recovers from the
//! new segments, skipping any WAL records at or below the new base
//! generation that the interrupted truncate left behind.
//!
//! # Recovery
//!
//! [`DurableStore::open`] reads the manifest (absent = fresh store:
//! mint an instance id and write it down), scans the entry segment,
//! then replays the WAL's clean prefix: records must carry strictly
//! ascending generations, records at or below the base are skipped,
//! and the first torn, CRC-failing, or out-of-order record ends the
//! replay — the log is truncated back to the clean prefix so the next
//! append extends known-good bytes. The result is the exact
//! `(instance, generation)` the store last exposed, plus the replayed
//! `(generation, id)` mutation history for the archive's coalescing
//! change log.

use crate::backend::Backend;
use crate::codec::{self, Cursor};
use crate::error::{Error, Result};
use crate::segment::{SegmentBuilder, SegmentMeta, SegmentReader};
use crate::wal::{self, WalRecord, WAL_KEY};
use std::sync::Arc;

/// The backend key the manifest lives under.
pub const MANIFEST_KEY: &str = "manifest";

const MANIFEST_MAGIC: &[u8; 4] = b"SAQM";
const MANIFEST_VERSION: u32 = 2;

/// The entry-segment key for base generation `g`.
pub fn segment_key(g: u64) -> String {
    format!("seg-{g}")
}

/// The docs-segment key for base generation `g`.
pub fn docs_key(g: u64) -> String {
    format!("docs-{g}")
}

/// Tuning for a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Compact once this many WAL records have accumulated since the
    /// last compaction; `0` disables the size trigger (manual only).
    pub compact_after: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig { compact_after: 1024 }
    }
}

/// One segment reference inside the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentRef {
    key: String,
    meta: SegmentMeta,
}

/// The decoded manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    instance: u64,
    base_generation: u64,
    entries: Option<SegmentRef>,
    docs: Option<(SegmentRef, u64, u64, u64)>, // (ref, epsilon_bits, theta_bits, breaker_tag)
}

fn put_segment_ref(out: &mut Vec<u8>, r: &SegmentRef) {
    codec::put_bytes(out, r.key.as_bytes());
    codec::put_u64(out, r.meta.root_offset);
    codec::put_u32(out, r.meta.root_len);
    codec::put_u64(out, r.meta.entry_count);
}

fn get_segment_ref(c: &mut Cursor<'_>) -> Result<SegmentRef> {
    let key = String::from_utf8(c.get_bytes()?.to_vec())
        .map_err(|_| Error::corrupt("manifest: segment key is not utf-8"))?;
    let root_offset = c.get_u64()?;
    let root_len = c.get_u32()?;
    let entry_count = c.get_u64()?;
    Ok(SegmentRef { key, meta: SegmentMeta { root_offset, root_len, entry_count } })
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(MANIFEST_MAGIC);
        codec::put_u32(&mut body, MANIFEST_VERSION);
        codec::put_u64(&mut body, self.instance);
        codec::put_u64(&mut body, self.base_generation);
        body.push(self.entries.is_some() as u8);
        if let Some(r) = &self.entries {
            put_segment_ref(&mut body, r);
        }
        body.push(self.docs.is_some() as u8);
        if let Some((r, eps, theta, breaker)) = &self.docs {
            put_segment_ref(&mut body, r);
            codec::put_u64(&mut body, *eps);
            codec::put_u64(&mut body, *theta);
            codec::put_u64(&mut body, *breaker);
        }
        codec::frame(&body)
    }

    fn decode(bytes: &[u8]) -> Result<Manifest> {
        let body = codec::read_single_frame(bytes, "manifest")?;
        let mut c = Cursor::new(body, "manifest");
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = c.get_u8()?;
        }
        if &magic != MANIFEST_MAGIC {
            return Err(Error::corrupt("manifest: bad magic"));
        }
        let version = c.get_u32()?;
        if version != MANIFEST_VERSION {
            return Err(Error::corrupt(format!("manifest: unsupported version {version}")));
        }
        let instance = c.get_u64()?;
        let base_generation = c.get_u64()?;
        let entries = if c.get_u8()? != 0 { Some(get_segment_ref(&mut c)?) } else { None };
        let docs = if c.get_u8()? != 0 {
            let r = get_segment_ref(&mut c)?;
            let eps = c.get_u64()?;
            let theta = c.get_u64()?;
            let breaker = c.get_u64()?;
            Some((r, eps, theta, breaker))
        } else {
            None
        };
        c.finish()?;
        Ok(Manifest { instance, base_generation, entries, docs })
    }
}

/// Index documents to durably attach to a compaction, stamped with the
/// representation parameters they were computed under (f64 bit
/// patterns, so exact-match checks need no float comparisons).
pub struct DocsSpec<'a> {
    /// `epsilon.to_bits()` of the ingest configuration.
    pub epsilon_bits: u64,
    /// `theta.to_bits()` of the ingest configuration.
    pub theta_bits: u64,
    /// Which breaker broke the sequences (0 = offline recursive, 1 =
    /// online sliding-window); opaque here, compared bit-exactly like
    /// the float parameters.
    pub breaker_tag: u64,
    /// Encoded documents, sorted by id (same order as the entries).
    pub docs: &'a [(u64, Vec<u8>)],
}

/// A reader over the docs segment of the current base generation.
pub struct DocsReader {
    /// The pageable segment of encoded index documents.
    pub reader: SegmentReader,
    /// `epsilon.to_bits()` the docs were computed under.
    pub epsilon_bits: u64,
    /// `theta.to_bits()` the docs were computed under.
    pub theta_bits: u64,
    /// The breaker tag the docs were computed under (see
    /// [`DocsSpec::breaker_tag`]).
    pub breaker_tag: u64,
    /// The generation the docs are exact at.
    pub base_generation: u64,
}

/// Everything [`DurableStore::open`] recovered.
pub struct Recovered {
    /// The instance id minted at first open and preserved since.
    pub instance: u64,
    /// The generation the store last exposed before shutdown.
    pub generation: u64,
    /// The compacted base generation (WAL records at or below it were
    /// skipped during replay).
    pub base_generation: u64,
    /// The full store contents: segment scan + WAL replay, by id.
    pub entries: Vec<(u64, Vec<u8>)>,
    /// The replayed `(generation, id)` mutation history past the base
    /// (`None` = wildcard), for rebuilding a coalescing change log.
    pub mutations: Vec<(u64, Option<u64>)>,
    /// True when a torn or corrupt WAL tail was discarded.
    pub tail_discarded: bool,
    /// A pager over the durable index documents, when present.
    pub docs: Option<DocsReader>,
}

/// An open durable store; see the module docs for the protocol.
pub struct DurableStore {
    backend: Arc<dyn Backend>,
    config: DurableConfig,
    manifest: Manifest,
    wal_records: u64,
}

/// How recovery folds a [`wal::WalOp::Append`] record into the entry it
/// extends: `merge(prior_payload, delta_payload)` must return the merged
/// payload. `prior` is `None` when the append created the entry. The
/// durable layer stays payload-opaque; the layer that wrote the payloads
/// supplies the merge (e.g. the archive concatenates point encodings).
pub type AppendMerge<'a> = &'a dyn Fn(Option<&[u8]>, &[u8]) -> Result<Vec<u8>>;

/// The [`AppendMerge`] used by [`DurableStore::open`]: plain byte
/// concatenation of the prior payload and the delta.
fn concat_merge(prior: Option<&[u8]>, delta: &[u8]) -> Result<Vec<u8>> {
    let mut merged = prior.map(<[u8]>::to_vec).unwrap_or_default();
    merged.extend_from_slice(delta);
    Ok(merged)
}

impl DurableStore {
    /// Opens (or creates) the store in `backend` and runs recovery.
    /// `fresh_instance` mints the instance id for a brand-new store.
    /// Replayed [`wal::WalOp::Append`] records merge by byte
    /// concatenation; stores whose payloads need a structure-aware merge
    /// use [`DurableStore::open_with_merge`].
    pub fn open(
        backend: Arc<dyn Backend>,
        config: DurableConfig,
        fresh_instance: impl FnOnce() -> u64,
    ) -> Result<(DurableStore, Recovered)> {
        DurableStore::open_with_merge(backend, config, fresh_instance, &concat_merge)
    }

    /// As [`DurableStore::open`], with a caller-supplied merge for
    /// replaying [`wal::WalOp::Append`] records. A merge failure aborts
    /// recovery: the payloads decoded cleanly (frames passed CRC), so a
    /// merge that cannot interpret them signals a mis-configured caller,
    /// not crash damage to silently truncate away.
    pub fn open_with_merge(
        backend: Arc<dyn Backend>,
        config: DurableConfig,
        fresh_instance: impl FnOnce() -> u64,
        merge: AppendMerge<'_>,
    ) -> Result<(DurableStore, Recovered)> {
        let manifest = match backend.get(MANIFEST_KEY)? {
            Some(bytes) => Manifest::decode(&bytes)?,
            None => {
                let manifest = Manifest {
                    instance: fresh_instance(),
                    base_generation: 0,
                    entries: None,
                    docs: None,
                };
                backend.put(MANIFEST_KEY, &manifest.encode())?;
                manifest
            }
        };
        let base = manifest.base_generation;

        // Materialize the compacted contents.
        let mut entries: Vec<(u64, Vec<u8>)> = match &manifest.entries {
            Some(r) => SegmentReader::new(Arc::clone(&backend), &r.key, r.meta)
                .scan()
                .map_err(|e| Error::corrupt(format!("recovery: entry segment {}: {e}", r.key)))?,
            None => Vec::new(),
        };

        // Replay the WAL's clean prefix over them.
        let wal_bytes = backend.get(WAL_KEY)?.unwrap_or_default();
        let readback = wal::read_wal_bytes(&wal_bytes);
        let mut tail_discarded = readback.tail_discarded;
        let mut clean_len = readback.clean_len;
        let mut generation = base;
        let mut mutations = Vec::new();
        let mut wal_records = 0u64;
        let mut last_gen = 0u64;
        for (record, end) in readback.records.iter().zip(&readback.ends) {
            // Out-of-order generations mean the log bytes are not the
            // log we wrote: keep the prefix before the violation.
            if record.generation <= last_gen {
                tail_discarded = true;
                clean_len = *end - record.encode().len() as u64;
                break;
            }
            last_gen = record.generation;
            if record.generation <= base {
                // Left behind by a compaction that committed its
                // manifest but didn't finish truncating the log.
                continue;
            }
            match &record.op {
                wal::WalOp::Put { id, payload } => {
                    match entries.binary_search_by_key(id, |(k, _)| *k) {
                        Ok(i) => entries[i].1 = payload.clone(),
                        Err(i) => entries.insert(i, (*id, payload.clone())),
                    }
                }
                wal::WalOp::Remove { id } => {
                    if let Ok(i) = entries.binary_search_by_key(id, |(k, _)| *k) {
                        entries.remove(i);
                    }
                }
                wal::WalOp::Wildcard => {}
                wal::WalOp::Append { id, payload } => {
                    match entries.binary_search_by_key(id, |(k, _)| *k) {
                        Ok(i) => entries[i].1 = merge(Some(&entries[i].1), payload)?,
                        Err(i) => entries.insert(i, (*id, merge(None, payload)?)),
                    }
                }
            }
            mutations.push((record.generation, record.op.id()));
            generation = record.generation;
            wal_records += 1;
        }
        if wal_bytes.len() as u64 > clean_len {
            backend.truncate(WAL_KEY, clean_len)?;
            backend.sync()?;
        }

        let docs = manifest.docs.as_ref().map(|(r, eps, theta, breaker)| DocsReader {
            reader: SegmentReader::new(Arc::clone(&backend), &r.key, r.meta),
            epsilon_bits: *eps,
            theta_bits: *theta,
            breaker_tag: *breaker,
            base_generation: base,
        });
        let recovered = Recovered {
            instance: manifest.instance,
            generation,
            base_generation: base,
            entries,
            mutations,
            tail_discarded,
            docs,
        };
        Ok((DurableStore { backend, config, manifest, wal_records }, recovered))
    }

    /// The backend this store lives in.
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// The instance id recorded in the manifest.
    pub fn instance(&self) -> u64 {
        self.manifest.instance
    }

    /// The current base generation (last committed compaction).
    pub fn base_generation(&self) -> u64 {
        self.manifest.base_generation
    }

    /// WAL records accumulated since the last compaction.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Current WAL length in bytes.
    pub fn wal_bytes(&self) -> Result<u64> {
        Ok(self.backend.len(WAL_KEY)?.unwrap_or(0))
    }

    /// Appends one record to the WAL. This is the write-ahead step:
    /// call it *before* applying the mutation in memory.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends a group of records as one framed write: the frames are
    /// concatenated and handed to the backend in a single `append`, so
    /// file backends pay one write and one fsync for the whole batch —
    /// group commit. Each record keeps its own
    /// frame and CRC, so recovery replays the batch exactly as if the
    /// records had been appended one at a time; a torn tail still
    /// truncates at the last whole frame, not the last whole batch.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut framed = Vec::new();
        for record in records {
            framed.extend_from_slice(&record.encode());
        }
        self.backend.append(WAL_KEY, &framed)?;
        self.wal_records += records.len() as u64;
        Ok(())
    }

    /// True once enough WAL records accumulated to justify compaction.
    pub fn should_compact(&self) -> bool {
        self.config.compact_after > 0 && self.wal_records >= self.config.compact_after
    }

    /// Folds `entries` (the complete current contents, sorted by id, as
    /// of `generation`) into a fresh segment set, commits the manifest,
    /// truncates the WAL, and deletes the previous generation's
    /// segments. Returns the pager for the new docs segment, if one was
    /// written.
    pub fn compact(
        &mut self,
        generation: u64,
        entries: &[(u64, Vec<u8>)],
        docs: Option<DocsSpec<'_>>,
    ) -> Result<Option<DocsReader>> {
        let old = self.manifest.clone();
        let seg_key = segment_key(generation);
        let mut builder = SegmentBuilder::new(self.backend.as_ref(), &seg_key)?;
        for (id, payload) in entries {
            builder.push(*id, payload)?;
        }
        let seg_meta = builder.finish()?;

        let docs_ref = match &docs {
            Some(spec) => {
                let key = docs_key(generation);
                let mut builder = SegmentBuilder::new(self.backend.as_ref(), &key)?;
                for (id, doc) in spec.docs {
                    builder.push(*id, doc)?;
                }
                let meta = builder.finish()?;
                Some((
                    SegmentRef { key, meta },
                    spec.epsilon_bits,
                    spec.theta_bits,
                    spec.breaker_tag,
                ))
            }
            None => None,
        };

        let manifest = Manifest {
            instance: old.instance,
            base_generation: generation,
            entries: Some(SegmentRef { key: seg_key, meta: seg_meta }),
            docs: docs_ref,
        };
        // The commit point: everything before this is invisible garbage
        // on crash, everything after is cleanup that recovery tolerates
        // losing.
        self.backend.put(MANIFEST_KEY, &manifest.encode())?;
        self.backend.truncate(WAL_KEY, 0)?;
        let stale_docs = old.docs.as_ref().map(|(r, ..)| r.clone());
        for r in old.entries.iter().chain(stale_docs.iter()) {
            if r.key != segment_key(generation) && r.key != docs_key(generation) {
                self.backend.delete(&r.key)?;
            }
        }
        self.backend.sync()?;
        self.manifest = manifest;
        self.wal_records = 0;
        Ok(self.manifest.docs.as_ref().map(|(r, eps, theta, breaker)| DocsReader {
            reader: SegmentReader::new(Arc::clone(&self.backend), &r.key, r.meta),
            epsilon_bits: *eps,
            theta_bits: *theta,
            breaker_tag: *breaker,
            base_generation: generation,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::wal::WalOp;

    fn put(gen: u64, id: u64, text: &str) -> WalRecord {
        WalRecord { generation: gen, op: WalOp::Put { id, payload: text.as_bytes().to_vec() } }
    }

    fn open(backend: &MemoryBackend) -> (DurableStore, Recovered) {
        DurableStore::open(Arc::new(backend.clone()), DurableConfig::default(), || 42).unwrap()
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            instance: 7,
            base_generation: 19,
            entries: Some(SegmentRef {
                key: segment_key(19),
                meta: SegmentMeta { root_offset: 128, root_len: 64, entry_count: 5 },
            }),
            docs: Some((
                SegmentRef {
                    key: docs_key(19),
                    meta: SegmentMeta { root_offset: 0, root_len: 33, entry_count: 5 },
                },
                0.05f64.to_bits(),
                1.0f64.to_bits(),
                1,
            )),
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let bare = Manifest { instance: 1, base_generation: 0, entries: None, docs: None };
        assert_eq!(Manifest::decode(&bare.encode()).unwrap(), bare);
        assert!(Manifest::decode(b"junk").is_err());
        let mut torn = m.encode();
        torn.truncate(torn.len() - 3);
        assert!(Manifest::decode(&torn).is_err());
    }

    #[test]
    fn a_version_1_manifest_is_refused() {
        // Hand-built: v1 carried no breaker tag after the docs stamp.
        let mut body = Vec::new();
        body.extend_from_slice(MANIFEST_MAGIC);
        codec::put_u32(&mut body, 1);
        codec::put_u64(&mut body, 7); // instance
        codec::put_u64(&mut body, 19); // base generation
        body.push(0); // no entry segment
        body.push(1);
        let docs = SegmentRef {
            key: docs_key(19),
            meta: SegmentMeta { root_offset: 0, root_len: 33, entry_count: 5 },
        };
        put_segment_ref(&mut body, &docs);
        codec::put_u64(&mut body, 0.05f64.to_bits());
        codec::put_u64(&mut body, 1.0f64.to_bits());
        match Manifest::decode(&codec::frame(&body)) {
            Err(Error::Corrupt { context }) => {
                assert!(context.contains("unsupported version 1"), "{context}");
            }
            other => panic!("expected a corrupt-manifest error, got {other:?}"),
        }
    }

    #[test]
    fn fresh_open_mints_and_persists_the_instance() {
        let backend = MemoryBackend::new();
        let (_store, recovered) = open(&backend);
        assert_eq!(recovered.instance, 42);
        assert_eq!(recovered.generation, 0);
        assert!(recovered.entries.is_empty());
        // Reopening must NOT mint again, even with a different closure.
        let (store, recovered) =
            DurableStore::open(Arc::new(backend.clone()), DurableConfig::default(), || {
                panic!("instance already persisted")
            })
            .unwrap();
        assert_eq!(recovered.instance, 42);
        assert_eq!(store.instance(), 42);
    }

    #[test]
    fn wal_replay_reconstructs_contents_and_history() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        store.append(&put(1, 5, "five")).unwrap();
        store.append(&put(2, 9, "nine")).unwrap();
        store.append(&put(3, 5, "five-v2")).unwrap();
        store.append(&WalRecord { generation: 4, op: WalOp::Remove { id: 9 } }).unwrap();
        store.append(&WalRecord { generation: 5, op: WalOp::Wildcard }).unwrap();
        drop(store);

        let (store, recovered) = open(&backend);
        assert_eq!(recovered.generation, 5);
        assert_eq!(recovered.entries, vec![(5, b"five-v2".to_vec())]);
        assert_eq!(
            recovered.mutations,
            vec![(1, Some(5)), (2, Some(9)), (3, Some(5)), (4, Some(9)), (5, None)]
        );
        assert!(!recovered.tail_discarded);
        assert_eq!(store.wal_records(), 5);
    }

    #[test]
    fn append_records_merge_on_replay() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        store.append(&put(1, 5, "five")).unwrap();
        store
            .append(&WalRecord {
                generation: 2,
                op: WalOp::Append { id: 5, payload: b"-more".to_vec() },
            })
            .unwrap();
        // An append may also create the entry (first write via append).
        store
            .append(&WalRecord {
                generation: 3,
                op: WalOp::Append { id: 9, payload: b"nine".to_vec() },
            })
            .unwrap();
        drop(store);

        // Default merge: byte concatenation.
        let (_store, recovered) = open(&backend);
        assert_eq!(recovered.generation, 3);
        assert_eq!(recovered.entries, vec![(5, b"five-more".to_vec()), (9, b"nine".to_vec())]);
        assert_eq!(recovered.mutations, vec![(1, Some(5)), (2, Some(5)), (3, Some(9))]);

        // A custom merge sees the prior payload (None when creating).
        let merge = |prior: Option<&[u8]>, delta: &[u8]| -> Result<Vec<u8>> {
            let mut out = prior.map(<[u8]>::to_vec).unwrap_or_else(|| b"fresh:".to_vec());
            out.extend_from_slice(b"+");
            out.extend_from_slice(delta);
            Ok(out)
        };
        let (_store, recovered) = DurableStore::open_with_merge(
            Arc::new(backend),
            DurableConfig::default(),
            || 1,
            &merge,
        )
        .unwrap();
        assert_eq!(
            recovered.entries,
            vec![(5, b"five+-more".to_vec()), (9, b"fresh:+nine".to_vec())]
        );
    }

    #[test]
    fn batched_appends_replay_like_individual_ones() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        store.append(&put(1, 5, "five")).unwrap();
        store.append_batch(&[put(2, 9, "nine"), put(3, 5, "five-v2"), put(4, 7, "seven")]).unwrap();
        store.append_batch(&[]).unwrap();
        assert_eq!(store.wal_records(), 4);
        drop(store);

        let (_store, recovered) = open(&backend);
        assert_eq!(recovered.generation, 4);
        assert_eq!(
            recovered.mutations,
            vec![(1, Some(5)), (2, Some(9)), (3, Some(5)), (4, Some(7))]
        );
        assert_eq!(
            recovered.entries,
            vec![(5, b"five-v2".to_vec()), (7, b"seven".to_vec()), (9, b"nine".to_vec())]
        );
    }

    #[test]
    fn torn_tail_inside_a_batch_keeps_the_whole_frames() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        store.append_batch(&[put(1, 1, "one"), put(2, 2, "two")]).unwrap();
        drop(store);
        // Tear mid-way through the second frame: recovery keeps the
        // first record — frame granularity, not batch granularity.
        let wal = backend.get(WAL_KEY).unwrap().unwrap();
        backend.put(WAL_KEY, &wal[..wal.len() - 3]).unwrap();

        let (store, recovered) = open(&backend);
        assert!(recovered.tail_discarded);
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.entries, vec![(1, b"one".to_vec())]);
        assert_eq!(store.wal_records(), 1);
    }

    #[test]
    fn compaction_folds_the_log_and_survives_reopen() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        for i in 0..10u64 {
            store.append(&put(i + 1, i, &format!("v{i}"))).unwrap();
        }
        let entries: Vec<(u64, Vec<u8>)> =
            (0..10u64).map(|i| (i, format!("v{i}").into_bytes())).collect();
        store.compact(10, &entries, None).unwrap();
        assert_eq!(store.base_generation(), 10);
        assert_eq!(store.wal_bytes().unwrap(), 0);
        // Post-compaction writes land in the (now empty) WAL.
        store.append(&put(11, 99, "late")).unwrap();
        drop(store);

        let (_store, recovered) = open(&backend);
        assert_eq!(recovered.base_generation, 10);
        assert_eq!(recovered.generation, 11);
        assert_eq!(recovered.entries.len(), 11);
        assert_eq!(recovered.mutations, vec![(11, Some(99))]);
        // Only the current generation's segment remains.
        let keys = backend.list().unwrap();
        assert!(keys.contains(&segment_key(10)), "{keys:?}");
        assert_eq!(keys.iter().filter(|k| k.starts_with("seg-")).count(), 1, "{keys:?}");
    }

    #[test]
    fn interrupted_wal_truncate_after_commit_is_skipped_on_replay() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        store.append(&put(1, 1, "one")).unwrap();
        store.append(&put(2, 2, "two")).unwrap();
        let stale_wal = backend.get(WAL_KEY).unwrap().unwrap();
        store.compact(2, &[(1, b"one".to_vec()), (2, b"two".to_vec())], None).unwrap();
        // Simulate the crash: the pre-compaction WAL bytes come back.
        backend.put(WAL_KEY, &stale_wal).unwrap();
        store.append(&put(3, 3, "three")).unwrap();
        drop(store);

        let (_store, recovered) = open(&backend);
        assert_eq!(recovered.generation, 3);
        assert_eq!(recovered.entries.len(), 3);
        // Only the post-base mutation replays; the stale ones are skipped.
        assert_eq!(recovered.mutations, vec![(3, Some(3))]);
        assert!(!recovered.tail_discarded);
    }

    #[test]
    fn out_of_order_generations_cut_the_log() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        store.append(&put(1, 1, "one")).unwrap();
        store.append(&put(5, 2, "two")).unwrap();
        store.append(&put(4, 3, "backwards")).unwrap();
        store.append(&put(6, 4, "after")).unwrap();
        drop(store);
        let (store, recovered) = open(&backend);
        assert_eq!(recovered.generation, 5);
        assert_eq!(recovered.entries.len(), 2);
        assert!(recovered.tail_discarded);
        // The log was truncated back to the clean prefix on open.
        drop(store);
        let (_, again) = open(&backend);
        assert_eq!(again.generation, 5);
        assert!(!again.tail_discarded);
    }

    #[test]
    fn docs_segment_round_trips_with_its_stamps() {
        let backend = MemoryBackend::new();
        let (mut store, _) = open(&backend);
        let entries = vec![(3u64, b"e3".to_vec()), (8, b"e8".to_vec())];
        let docs = vec![(3u64, b"d3".to_vec()), (8, b"d8".to_vec())];
        let spec = DocsSpec {
            epsilon_bits: 0.1f64.to_bits(),
            theta_bits: 2.0f64.to_bits(),
            breaker_tag: 1,
            docs: &docs,
        };
        let pager = store.compact(7, &entries, Some(spec)).unwrap().unwrap();
        assert_eq!(pager.reader.get(8).unwrap().unwrap(), b"d8");
        assert_eq!(pager.base_generation, 7);
        drop(store);

        let (_store, recovered) = open(&backend);
        let pager = recovered.docs.expect("docs survive reopen");
        assert_eq!(pager.epsilon_bits, 0.1f64.to_bits());
        assert_eq!(pager.theta_bits, 2.0f64.to_bits());
        assert_eq!(pager.breaker_tag, 1);
        assert_eq!(pager.reader.get(3).unwrap().unwrap(), b"d3");
        assert_eq!(pager.reader.get(4).unwrap(), None);
    }

    #[test]
    fn compaction_trigger_counts_records() {
        let backend = MemoryBackend::new();
        let (mut store, _) =
            DurableStore::open(Arc::new(backend.clone()), DurableConfig { compact_after: 3 }, || 1)
                .unwrap();
        assert!(!store.should_compact());
        for g in 1..=3 {
            store.append(&put(g, g, "x")).unwrap();
        }
        assert!(store.should_compact());
        store.compact(3, &[], None).unwrap();
        assert!(!store.should_compact());
        // Disabled trigger never fires.
        let (mut store, _) = DurableStore::open(
            Arc::new(MemoryBackend::new()),
            DurableConfig { compact_after: 0 },
            || 1,
        )
        .unwrap();
        for g in 1..=100 {
            store.append(&put(g, g, "x")).unwrap();
        }
        assert!(!store.should_compact());
    }
}
