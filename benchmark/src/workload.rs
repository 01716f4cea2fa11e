//! The workloads and the metric catalogue. `BENCHMARK.json` at the
//! repository root states the same names; a test holds the two together.

use crate::gen::CorpusMix;

/// One set of inputs. Every workload runs the same skeleton — set up a
/// durable archive (ingest, cold open, compact, warm open, serve), then a
/// closed-loop socket phase — and differs only in what it is given.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it exists and which layer it leaves idle.
    pub why: &'static str,
    pub sequences: usize,
    /// Corpus size under `--smoke`.
    pub smoke_sequences: usize,
    pub mix: CorpusMix,
    /// Analyst connections (each alternates scan and index queries). Every
    /// workload also has one feeder and one watcher connection.
    pub analysts: usize,
    /// How many times set-up is repeated; medians are reported.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ward_warm",
        why: "768 sequences fit the 1024-entry feature cache, so engine work is sub-millisecond and latency is the server layer; a kernel or storage change must show no change in its query latencies",
        sequences: 768,
        smoke_sequences: 64,
        mix: CorpusMix::Ward,
        analysts: 2,
        setups: 12,
    },
    Workload {
        name: "archive_cold",
        why: "4096 sequences are 4x the feature cache, so every scan refetches and re-represents the archive and every index query pages cold documents; a framing fix moves it by a constant, not a ratio",
        sequences: 4096,
        smoke_sequences: 256,
        mix: CorpusMix::Ward,
        analysts: 2,
        setups: 5,
    },
    Workload {
        name: "feed_mixed",
        why: "768 live feeds with as many appends as queries, so WAL delta records, incremental cache invalidation and the subscription pump run beside reads; a read-path gain that costs the write path shows here",
        sequences: 768,
        smoke_sequences: 64,
        mix: CorpusMix::Feeds,
        analysts: 1,
        setups: 12,
    },
    Workload {
        name: "ingest_recover",
        why: "8192 sequences, the largest archive: durable ingest, WAL replay and compaction run longest here, so setup_s and the archive.* set-up steps are read here; query-path work must leave them flat",
        sequences: 8192,
        smoke_sequences: 256,
        mix: CorpusMix::Ward,
        analysts: 2,
        setups: 4,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median it may worsen by before it counts.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: false, bound }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: true, bound }
}

pub const END_TO_END: [EndToEnd; 11] = [
    lower("setup_s", "s", 0.25),
    lower("scan_p50_ms", "ms", 0.15),
    lower("scan_p90_ms", "ms", 0.20),
    lower("index_p50_ms", "ms", 0.25),
    lower("index_p90_ms", "ms", 0.25),
    higher("query_qps", "1/s", 0.15),
    lower("append_p50_ms", "ms", 0.15),
    lower("append_p90_ms", "ms", 0.25),
    lower("delta_lag_p50_ms", "ms", 0.25),
    lower("disk_bytes_per_user_byte", "B/B", 0.01),
    lower("peak_rss_mib", "MiB", 0.20),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric (layer = crate name before the dot): name, unit,
/// direction, and which end-to-end metric it should move, where.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, higher_is_better, moves }
}

const SOCKET: &str = "every socket latency by the same absolute amount: dominant on ward_warm and feed_mixed, a constant offset on archive_cold and ingest_recover";
const OVERHEAD: &str = "ward_warm and feed_mixed scan/index/append p50 (it is most of them today)";
const CODEC: &str = "archive_cold and ingest_recover scan_p50_ms (thousands of ids per reply); negligible on ward_warm";
const ENGINE: &str = "archive_cold and ingest_recover scan/index latencies and query_qps; under 1 ms and flat on ward_warm and feed_mixed";
const PUMP: &str = "delta_lag_p50_ms and append_p90_ms, most on feed_mixed";
const PARSE: &str =
    "ward_warm and feed_mixed query latencies only (microseconds against milliseconds elsewhere)";
const REPRESENT: &str = "archive_cold scan_p50_ms (about this times fetches_per_query over workers), archive.compact_s, setup_s; flat on ward_warm";
const GUARD: &str =
    "guard: a faster breaker that emits more segments shows here and in disk_bytes_per_user_byte";
const EMBEDDED: &str = "no socket metric: the embedded path's own trend, and the level engine.run_index_ms should approach";
const INDEX: &str = "archive_cold and ingest_recover index_p50_ms (insert_doc runs once per sequence per wave today)";
const SETUP: &str =
    "setup_s: these steps are most of it, most of all on ingest_recover; nothing on a socket latency";
const INGEST: &str =
    "archive.ingest_seqs_s, archive.open_wal_s, archive.open_segments_s and through them setup_s";
const FEED: &str = "append_p50_ms, append_p90_ms and delta_lag_p50_ms, most on feed_mixed";
const COLD: &str =
    "archive_cold and ingest_recover scan_p50_ms (fetch) and index_p50_ms (cold documents)";
const DEVICE: &str = "setup_s through the archive.* set-up steps; read cost, write cost and space are reported together so a trade shows";

pub const PER_LAYER: [PerLayer; 65] = [
    layer("server.ping_rtt_ms", "ms", false, SOCKET),
    layer("server.overhead_scan_ms", "ms", false, OVERHEAD),
    layer("server.overhead_index_ms", "ms", false, OVERHEAD),
    layer("server.overhead_append_ms", "ms", false, OVERHEAD),
    layer("server.encode_request_us", "us", false, CODEC),
    layer("server.decode_request_us", "us", false, CODEC),
    layer("server.encode_response_us", "us", false, CODEC),
    layer("server.decode_response_us", "us", false, CODEC),
    layer("server.response_bytes", "B", false, CODEC),
    layer(
        "server.queries_per_wave",
        "count",
        true,
        "query_qps on archive_cold and ingest_recover (a coalesced wave shares one sharded pass)",
    ),
    layer("server.delta_frames_per_append", "count", false, "delta_lag_p50_ms"),
    layer("server.errors", "count", false, "none: must be 0"),
    layer("engine.run_scan_ms", "ms", false, ENGINE),
    layer("engine.run_index_ms", "ms", false, ENGINE),
    layer("engine.run_wave2_ms", "ms", false, ENGINE),
    layer(
        "engine.fetches_per_query",
        "count",
        false,
        "archive_cold scan_p50_ms (the whole archive per query today); 0 on ward_warm once warm",
    ),
    layer("engine.cache_hit_rate", "ratio", true, "as engine.fetches_per_query"),
    layer("engine.cache_evictions_per_query", "count", false, "as engine.fetches_per_query"),
    layer("engine.entries_scanned_per_result", "count", false, "scan latency on every workload"),
    layer("engine.pump_ms", "ms", false, PUMP),
    layer("engine.pump_evaluated_share", "ratio", false, PUMP),
    layer(
        "engine.refetch_per_append",
        "count",
        false,
        "scan_p50_ms beside appends (1 when invalidation is incremental)",
    ),
    layer("core.parse_us", "us", false, PARSE),
    layer("core.plan_us", "us", false, PARSE),
    layer("pattern.compile_us", "us", false, PARSE),
    layer("core.represent_us_per_seq", "us", false, REPRESENT),
    layer("core.represent_mpoints_s", "Mpt/s", true, REPRESENT),
    layer("core.segments_per_kpoint", "count", false, GUARD),
    layer("core.compression_ratio", "ratio", true, GUARD),
    layer("core.store_insert_us_per_seq", "us", false, EMBEDDED),
    layer("core.store_scan_query_us", "us", false, EMBEDDED),
    layer("core.store_index_query_us", "us", false, EMBEDDED),
    layer(
        "core.append_splice_us",
        "us",
        false,
        "append_p50_ms once the archive splices instead of re-representing",
    ),
    layer("core.rebroken_points_per_appended", "count", false, "as core.append_splice_us"),
    layer("index.insert_doc_us", "us", false, INDEX),
    layer("index.pattern_match_us", "us", false, INDEX),
    layer("index.interval_lookup_us", "us", false, INDEX),
    layer("archive.ingest_seqs_s", "1/s", true, SETUP),
    layer("archive.open_wal_s", "s", false, SETUP),
    layer("archive.compact_s", "s", false, SETUP),
    layer("archive.open_segments_s", "s", false, SETUP),
    layer("archive.put_us", "us", false, INGEST),
    layer("archive.put_batch_us_per_seq", "us", false, INGEST),
    layer("archive.encode_seq_us", "us", false, INGEST),
    layer("archive.decode_seq_us", "us", false, INGEST),
    layer("archive.append_points_us", "us", false, FEED),
    layer("archive.snapshot_us", "us", false, FEED),
    layer(
        "archive.compactions",
        "count",
        false,
        "append_p90_ms (an inline compaction stalls the append that triggers it)",
    ),
    layer("archive.fetch_us", "us", false, COLD),
    layer("archive.cold_doc_us", "us", false, COLD),
    layer("archive.cold_pages_per_doc", "count", false, COLD),
    layer("durable.wal_append_us", "us", false, "archive.ingest_seqs_s and append_p50_ms"),
    layer(
        "durable.wal_append_batch_us_per_record",
        "us",
        false,
        "archive.ingest_seqs_s (set-up ingests in groups of 64)",
    ),
    layer("durable.replay_records_s", "1/s", true, "archive.open_wal_s"),
    layer(
        "durable.segment_get_us",
        "us",
        false,
        "archive_cold index_p50_ms (cold documents are segment gets)",
    ),
    layer("durable.segment_pages_per_get", "count", false, "as durable.segment_get_us"),
    layer("durable.segment_scan_s", "s", false, "archive.open_segments_s"),
    layer("durable.backend_appends_per_put", "count", false, DEVICE),
    layer("durable.backend_syncs_per_put", "count", false, DEVICE),
    layer("durable.backend_bytes_per_user_byte", "B/B", false, DEVICE),
    layer("durable.backend_read_calls_per_open", "count", false, DEVICE),
    layer("durable.backend_bytes_read_per_open", "B", false, DEVICE),
    layer("durable.compact_bytes_per_live_byte", "B/B", false, DEVICE),
    layer("durable.backend_busy_share", "ratio", false, DEVICE),
    layer("bench.trace_overhead_share", "ratio", false, "none: must stay under 0.05"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
