//! Set-up: the life of a durable archive from empty directory to first
//! answers over the socket. Its steps are the storage side's end-to-end operations, so
//! each is timed on the way; the whole is `setup_s`.
//!
//! The steps are fsync-bound and last milliseconds to tenths of a second,
//! so single readings differ by tens of percent from run to run on a
//! shared disk. Only their sum, `setup_s`, is an end-to-end metric; the
//! steps are printed beside it and measured again, as per-layer metrics,
//! by the traced run.

use crate::gen::{self, CorpusMix};
use saq_archive::{ArchiveStore, DurabilityConfig, Medium};
use saq_core::QueryRequest;
use saq_sequence::Sequence;
use saq_server::{SaqClient, Saqd, SaqdConfig};
use std::path::Path;
use std::time::Instant;

/// Sequences per `put_batch`: one write-ahead append and one fsync each.
pub const INGEST_BATCH: usize = 64;
/// Batches per ingest-rate reading.
const BATCHES_PER_READING: usize = 4;
/// Set-up ends when the server has answered its first scan and its first
/// index query: the lazy part of starting up (representing every sequence
/// into the feature cache, paging cold documents, building shard-local
/// indexes) is set-up too, so work moved between open and first use shows
/// as no change. It also keeps `setup_s` from being fsync latency alone,
/// which on a shared disk drifts by tens of percent within the hour.
const FIRST_QUERIES: [&str; 2] = ["peaks = 1 tol 0", "interval = 34 tol 2"];

/// Opens the archive under test with the given durability settings. The
/// end-to-end run opens the directory the way `saqd --data-dir` does; the
/// traced run opens it over a counting backend.
pub type Opener<'a> = &'a dyn Fn(DurabilityConfig) -> saq_core::Result<ArchiveStore>;

/// Opens `dir` as shipped: `ArchiveStore::open` on a `FileBackend`, fsync on.
pub fn open_dir(dir: &Path, config: DurabilityConfig) -> saq_core::Result<ArchiveStore> {
    ArchiveStore::open(dir, Medium::memory(), config)
}

/// Durability while ingesting: no auto-compaction, so the WAL holds every
/// record until the timed compaction.
pub fn ingest_config() -> DurabilityConfig {
    DurabilityConfig { compact_after: 0, ..DurabilityConfig::default() }
}

/// One pass through set-up.
#[derive(Debug, Clone, Default)]
pub struct SetUp {
    /// Corpus generation, ingest, cold open, compaction, warm open, server
    /// start and the first scan and index answers.
    pub setup_s: f64,
    /// Sequences made durable per second (median over blocks of batches).
    pub ingest_seqs_s: f64,
    pub open_wal_s: f64,
    pub compact_s: f64,
    pub open_segments_s: f64,
    pub disk_bytes_per_user_byte: f64,
    /// Recovery checks made, and what the failed ones found.
    pub checks: u64,
    pub failures: Vec<String>,
}

/// A compacted archive being served at the shipped defaults.
pub struct Served {
    pub archive: ArchiveStore,
    pub server: Saqd,
}

/// Durable group-commit ingest of every sequence, [`INGEST_BATCH`] to a
/// `put_batch`; returns `(sequences, seconds)` per block of batches.
pub fn ingest(open: Opener, corpus: &[(u64, Sequence)]) -> saq_core::Result<Vec<(usize, f64)>> {
    let mut archive = open(ingest_config())?;
    let mut blocks = Vec::new();
    for block in corpus.chunks(INGEST_BATCH * BATCHES_PER_READING) {
        let start = Instant::now();
        for batch in block.chunks(INGEST_BATCH) {
            archive.try_put_batch(batch.to_vec())?;
        }
        blocks.push((block.len(), start.elapsed().as_secs_f64()));
    }
    Ok(blocks)
}

/// Sequences per second: the median over the blocks' own rates, so one
/// stalled fsync does not set the figure.
pub fn ingest_rate(blocks: &[(usize, f64)]) -> f64 {
    let mut rates: Vec<f64> = blocks.iter().map(|(n, seconds)| *n as f64 / seconds).collect();
    crate::stats::median(&mut rates)
}

/// Reopens the archive, timing the open, and checks that it recovered
/// `sequences` sequences at generation `generation`.
pub fn reopen(
    open: Opener,
    config: DurabilityConfig,
    sequences: usize,
    generation: u64,
    report: &mut SetUp,
) -> saq_core::Result<(ArchiveStore, f64)> {
    let start = Instant::now();
    let archive = open(config)?;
    let seconds = start.elapsed().as_secs_f64();
    report.checks += 1;
    if archive.len() != sequences || archive.generation() != generation {
        report.failures.push(format!(
            "reopen recovered {} sequences at generation {}, acknowledged {sequences} at {generation}",
            archive.len(),
            archive.generation()
        ));
    }
    Ok((archive, seconds))
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Generates the corpus and takes a fresh `dir` through ingest, cold open
/// (WAL replay), compaction, warm open (segments), server start and the
/// first answers.
pub fn set_up(
    dir: &Path,
    seed: u64,
    sequences: usize,
    mix: CorpusMix,
) -> saq_core::Result<(SetUp, Served)> {
    let mut report = SetUp::default();
    let start = Instant::now();
    let corpus = gen::corpus(seed, sequences, mix);
    let user_bytes = 16 * gen::corpus_points(&corpus);
    let open = |config| open_dir(dir, config);
    let generation = sequences as u64;

    let blocks = ingest(&open, &corpus)?;
    drop(corpus);
    report.ingest_seqs_s = ingest_rate(&blocks);

    let (mut archive, seconds) =
        reopen(&open, ingest_config(), sequences, generation, &mut report)?;
    report.open_wal_s = seconds;

    let compacting = Instant::now();
    archive.compact()?;
    report.compact_s = compacting.elapsed().as_secs_f64();
    drop(archive);
    report.disk_bytes_per_user_byte = dir_bytes(dir)? as f64 / user_bytes as f64;

    let (archive, seconds) =
        reopen(&open, DurabilityConfig::default(), sequences, generation, &mut report)?;
    report.open_segments_s = seconds;

    let server = Saqd::spawn(archive.clone(), SaqdConfig::default())?;
    let mut client = SaqClient::connect(server.addr())?;
    for saql in FIRST_QUERIES {
        client.query(&QueryRequest::saql(saql))?;
    }
    report.setup_s = start.elapsed().as_secs_f64();
    Ok((report, Served { archive, server }))
}
