//! The sequential [`QueryEngine`] over a raw [`ArchiveStore`].
//!
//! This is the "application program scans the archive" baseline of §1,
//! lifted onto the query algebra: every needed sequence is fetched from
//! the (simulated slow) medium, broken and represented on the fly, and the
//! shared plan executor composes the per-leaf results. No index structures
//! exist over raw archives, so every entry leaf takes the scan path; only
//! id-range leaves are index-grade. For the sharded parallel counterpart
//! see `saq_engine::QueryEngine::bind`.

use crate::store::{ArchiveSnapshot, ArchiveStore};
use saq_core::algebra::{
    AccessPath, ExecStats, IndexCaps, LeafSource, MatchSet, MatchTier, Planner, Pred, PreparedPred,
    QueryEngine,
};
use saq_core::request::{self, QueryRequest, QueryResponse, SnapshotRef};
use saq_core::store::{StoreConfig, StoredEntry};
use saq_core::{Error, Result};
use std::collections::HashMap;
use std::rc::Rc;

/// A sequential query engine over a raw archive: fetch → break →
/// represent per sequence (memoized within one execution), with the
/// algebra's composition semantics on top.
///
/// ```
/// use saq_archive::{ArchiveScanEngine, ArchiveStore, Medium};
/// use saq_core::algebra::{QueryEngine, QueryExpr};
/// use saq_core::store::StoreConfig;
/// use saq_sequence::generators::{goalpost, GoalpostSpec};
///
/// let mut archive = ArchiveStore::new(Medium::memory());
/// archive.put(7, goalpost(GoalpostSpec::default()));
/// let engine = ArchiveScanEngine::new(&archive, StoreConfig::default());
/// let out = engine.execute(&QueryExpr::peak_count(2, 0)).unwrap();
/// assert_eq!(out.exact, vec![7]);
/// ```
#[derive(Debug)]
pub struct ArchiveScanEngine<'a> {
    target: ScanTarget<'a>,
    config: StoreConfig,
}

/// What an execution reads: a live archive (each run captures a fresh
/// snapshot) or one pinned generation (every run reads the same state).
#[derive(Debug)]
enum ScanTarget<'a> {
    Live(&'a ArchiveStore),
    Pinned(ArchiveSnapshot),
}

impl<'a> ArchiveScanEngine<'a> {
    /// An engine over `archive`, representing sequences with the given
    /// ingestion parameters (raw retention is forced on — value-band
    /// leaves need the raw samples). Each execution captures a snapshot up
    /// front and runs entirely against it, so a query racing a writer sees
    /// one consistent generation.
    pub fn new(archive: &'a ArchiveStore, config: StoreConfig) -> ArchiveScanEngine<'a> {
        ArchiveScanEngine {
            target: ScanTarget::Live(archive),
            config: StoreConfig { keep_raw: true, ..config },
        }
    }

    /// An engine pinned to one [`ArchiveSnapshot`]: every execution reads
    /// that generation, no matter how far the live archive has moved on.
    pub fn pinned(snapshot: ArchiveSnapshot, config: StoreConfig) -> ArchiveScanEngine<'static> {
        ArchiveScanEngine {
            target: ScanTarget::Pinned(snapshot),
            config: StoreConfig { keep_raw: true, ..config },
        }
    }
}

impl ArchiveScanEngine<'_> {
    fn capture(&self) -> ArchiveSnapshot {
        match &self.target {
            ScanTarget::Live(archive) => archive.snapshot(),
            ScanTarget::Pinned(snapshot) => snapshot.clone(),
        }
    }
}

impl QueryEngine for ArchiveScanEngine<'_> {
    /// One snapshot, captured before the pin check, serves every fetch of
    /// the request. No index structures exist over a raw archive, so the
    /// planner puts every entry leaf on the scan path.
    fn request(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let snap = self.capture();
        let current = SnapshotRef::new(snap.instance_id(), snap.generation());
        let mut source = ScanSource { snap: &snap, config: self.config, entries: HashMap::new() };
        request::answer(req, current, |_| Planner::new(IndexCaps::none()), &mut source)
    }
}

/// Leaf evaluation by scanning one pinned archive generation, memoizing
/// each sequence's computed entry so a multi-leaf expression fetches and
/// represents it once.
struct ScanSource<'a> {
    snap: &'a ArchiveSnapshot,
    config: StoreConfig,
    entries: HashMap<u64, Rc<StoredEntry>>,
}

impl ScanSource<'_> {
    fn entry(&mut self, id: u64) -> Result<Rc<StoredEntry>> {
        if let Some(entry) = self.entries.get(&id) {
            return Ok(entry.clone());
        }
        let (seq, _cost) = self.snap.fetch(id).ok_or(Error::UnknownSequence { id })?;
        let entry = Rc::new(StoredEntry::compute_shared(&seq, &self.config)?);
        self.entries.insert(id, entry.clone());
        Ok(entry)
    }
}

impl LeafSource for ScanSource<'_> {
    fn universe(&mut self) -> Result<Vec<u64>> {
        Ok(self.snap.ids().to_vec())
    }

    fn eval_leaf(
        &mut self,
        _ix: usize,
        pred: &PreparedPred,
        path: AccessPath,
        candidates: Option<&[u64]>,
        stats: &mut ExecStats,
    ) -> Result<MatchSet> {
        let ids = match candidates {
            Some(c) => c.to_vec(),
            None => self.snap.ids().to_vec(),
        };
        if path == AccessPath::IdFilter {
            stats.index_leaves += 1;
            let Pred::IdRange { lo, hi } = *pred.pred() else {
                return Err(Error::BadConfig("id-filter path on a non-id-range leaf".into()));
            };
            return Ok(MatchSet::from_exact(ids.into_iter().filter(|id| (lo..=hi).contains(id))));
        }
        stats.scan_leaves += 1;
        let mut set = MatchSet::new();
        for id in ids {
            let entry = self.entry(id)?;
            stats.entries_scanned += 1;
            if let Some(m) = pred.matches(id, Some(&entry)) {
                set.insert(id, MatchTier::from_match(m));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::Medium;
    use saq_core::algebra::QueryExpr;
    use saq_core::store::SequenceStore;
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    fn corpus() -> (SequenceStore, ArchiveStore) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut archive = ArchiveStore::new(Medium::memory());
        for seq in [
            peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }),
            goalpost(GoalpostSpec::default()),
            peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() }),
        ] {
            let id = store.insert(&seq).unwrap();
            archive.put(id, seq);
        }
        (store, archive)
    }

    #[test]
    fn agrees_with_the_store_engine() {
        let (store, archive) = corpus();
        let exprs = [
            QueryExpr::peak_count(2, 1).and(QueryExpr::peak_interval(8, 2)),
            QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*").or(QueryExpr::peak_count(1, 0)),
            QueryExpr::peak_count(2, 1).negate(),
            QueryExpr::peak_count(2, 1).top_k(2),
        ];
        let store_engine = saq_core::algebra::StoreEngine::new(&store);
        let scan = ArchiveScanEngine::new(&archive, StoreConfig::default());
        for expr in exprs {
            assert_eq!(
                scan.execute(&expr).unwrap(),
                store_engine.execute(&expr).unwrap(),
                "{expr:?}"
            );
        }
    }

    #[test]
    fn memoizes_fetches_across_leaves() {
        let (_, archive) = corpus();
        let scan = ArchiveScanEngine::new(&archive, StoreConfig::default());
        // Three scan leaves over three sequences: each sequence is fetched
        // once, not once per leaf.
        let expr = QueryExpr::peak_count(2, 1)
            .and(QueryExpr::min_steepness(0.1, 0.0))
            .and(QueryExpr::has_steep_peak(0.1, 0.0));
        let (_, stats) = scan.execute_with_stats(&expr).unwrap();
        assert!(stats.entries_scanned >= 3, "{stats:?}");
        let before = archive.fetch_count();
        scan.execute(&expr).unwrap();
        assert_eq!(archive.fetch_count() - before, archive.len() as u64, "one fetch per id");
    }

    #[test]
    fn id_range_prunes_fetches() {
        let (_, archive) = corpus();
        let scan = ArchiveScanEngine::new(&archive, StoreConfig::default());
        let expr = QueryExpr::id_range(1, 1).and(QueryExpr::peak_count(1, 0));
        let (out, stats) = scan.execute_with_stats(&expr).unwrap();
        assert_eq!(out.exact, vec![1]);
        assert_eq!(stats.entries_scanned, 1, "only the id-range survivor is fetched");
        assert_eq!(archive.fetch_count(), 1);
    }
}
