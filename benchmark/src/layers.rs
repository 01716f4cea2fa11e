//! The traced run: every layer measured from outside, by timing and
//! counting calls into its public functions on the workload's own corpus.
//!
//! Four parts: (1) set-up over a [`CountingBackend`], which yields the
//! device counts; (2) a fixed seeded script on one connection — first
//! untraced, then traced, each socket round trip followed by the paired
//! in-process replay of the same request on the same snapshot, so that
//! `server.overhead_*` is round trip minus replay; (3) direct probes of
//! each crate's functions; (4) a short burst of the workload's concurrent
//! traffic for the server's own counters. End-to-end numbers never come
//! from here.

use crate::counting::{CountingBackend, Counts, Method};
use crate::gen::{self, Class, Query, Rng};
use crate::lifecycle::{self, Served, SetUp};
use crate::oracle::{digest, Oracle};
use crate::run::{Options, Outcome, Scratch, Value};
use crate::serve::{self, ServePlan};
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workload::{self, Workload};
use saq_archive::{decode_sequence, encode_sequence, ArchiveStore, DurabilityConfig, Medium};
use saq_core::algebra::{
    IndexCaps, Planner, PreparedPred, QueryEngine as _, QueryExpr, StoreEngine,
};
use saq_core::{QueryRequest, SequenceStore, StoreConfig, StoredEntry, SubscriptionRegistry};
use saq_durable::{
    Backend, DurableConfig, DurableStore, FileBackend, SegmentBuilder, SegmentReader, WalOp,
    WalRecord,
};
use saq_engine::{EngineConfig, QueryEngine};
use saq_index::{DocPager as _, IndexDoc, IndexSet, SequenceIndex as _};
use saq_sequence::{Point, Sequence};
use saq_server::protocol::{WireRequest, WireResponse};
use saq_server::{SaqClient, Saqd, SaqdConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sequences the local-store, codec and segment probes take from the
/// corpus — enough for stable medians, small enough to hold twice.
const PROBE_SEQUENCES: usize = 4096;
/// Durable puts whose backend calls are recorded as spans.
const TRACED_PUTS: usize = 256;

/// Microseconds `f` takes; its result is dropped after the clock stops.
fn micros<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    black_box(out);
    elapsed.as_secs_f64() * 1e6
}

/// Collected `name → (value, samples)`, emitted in catalogue order.
#[derive(Default)]
struct Readings(BTreeMap<&'static str, (f64, usize)>);

impl Readings {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    /// The median of `samples`.
    fn med(&mut self, name: &'static str, mut samples: Vec<f64>) {
        let n = samples.len();
        self.set(name, median(&mut samples), n);
    }

    fn into_values(self) -> Vec<Value> {
        workload::PER_LAYER
            .iter()
            .map(|m| {
                let (value, samples) = self
                    .0
                    .get(m.name)
                    .copied()
                    .unwrap_or_else(|| panic!("the traced run took no reading of {}", m.name));
                Value { name: m.name.into(), value, unit: m.unit, samples, spread: 0.0 }
            })
            .collect()
    }
}

/// Part 1: set-up through a counting backend.
struct CountedSetUp {
    served: Served,
    setup: SetUp,
}

fn counted_set_up(
    dir: &Path,
    corpus: &[(u64, Sequence)],
    tracer: &Arc<Tracer>,
    out: &mut Readings,
) -> saq_core::Result<CountedSetUp> {
    let files: Arc<dyn Backend> =
        Arc::new(FileBackend::open(dir).map_err(saq_archive::durability::storage_error)?);
    let counting = Arc::new(CountingBackend::new(files.clone()).traced(tracer.clone()));
    let open = |config: DurabilityConfig| {
        ArchiveStore::open_backend(counting.clone(), Medium::memory(), config)
    };
    let sequences = corpus.len();
    let user_bytes = (16 * gen::corpus_points(corpus)) as f64;
    let mut setup = SetUp::default();
    let wall = Instant::now();
    let step = |from: &Counts| counting.counts().since(from);

    // Spans for the first puts only: one per backend call adds up.
    let before = counting.counts();
    let traced_puts = corpus.len().min(TRACED_PUTS);
    let mut blocks =
        tracer.span("archive.put", || lifecycle::ingest(&open, &corpus[..traced_puts]))?;
    tracer.set_enabled(false);
    blocks.extend(lifecycle::ingest(&open, &corpus[traced_puts..])?);
    tracer.set_enabled(true);
    let ingest = step(&before);
    out.set("archive.ingest_seqs_s", lifecycle::ingest_rate(&blocks), blocks.len());
    out.set(
        "durable.backend_appends_per_put",
        ingest.of(Method::Append).calls as f64 / sequences as f64,
        sequences,
    );
    out.set(
        "durable.backend_syncs_per_put",
        ingest.of(Method::Sync).calls as f64 / sequences as f64,
        sequences,
    );

    // The durable layer alone replaying the WAL the ingest just wrote.
    let replay = Instant::now();
    let (_, recovered) =
        DurableStore::open(files.clone(), DurableConfig { compact_after: 0 }, || 0)
            .map_err(saq_archive::durability::storage_error)?;
    let seconds = replay.elapsed().as_secs_f64();
    out.set(
        "durable.replay_records_s",
        recovered.entries.len() as f64 / seconds,
        recovered.entries.len(),
    );
    drop(recovered);

    let generation = sequences as u64;
    let (mut archive, seconds) = tracer.span("archive.open_wal", || {
        lifecycle::reopen(&open, lifecycle::ingest_config(), sequences, generation, &mut setup)
    })?;
    out.set("archive.open_wal_s", seconds, 1);

    let before = counting.counts();
    let compacting = Instant::now();
    tracer.span("archive.compact", || archive.compact())?;
    out.set("archive.compact_s", compacting.elapsed().as_secs_f64(), 1);
    let compact = step(&before);
    drop(archive);
    out.set("durable.compact_bytes_per_live_byte", compact.bytes_written() as f64 / user_bytes, 1);
    out.set(
        "durable.backend_bytes_per_user_byte",
        (ingest.bytes_written() + compact.bytes_written()) as f64 / user_bytes,
        1,
    );

    let before = counting.counts();
    let (archive, seconds) = tracer.span("archive.open_segments", || {
        lifecycle::reopen(&open, DurabilityConfig::default(), sequences, generation, &mut setup)
    })?;
    out.set("archive.open_segments_s", seconds, 1);
    let warm_open = step(&before);
    out.set("durable.backend_read_calls_per_open", warm_open.reads().calls as f64, 1);
    out.set("durable.backend_bytes_read_per_open", warm_open.reads().bytes as f64, 1);
    let busy = counting.counts().busy_nanos() as f64 / wall.elapsed().as_nanos() as f64;
    out.set("durable.backend_busy_share", busy, 1);

    let server = Saqd::spawn(archive.clone(), SaqdConfig::default())?;
    Ok(CountedSetUp { served: Served { archive, server }, setup })
}

/// One operation of the traced script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Shape {
    Scan,
    Index,
    Append,
}

/// What the script needs to keep across operations.
struct ScriptState<'a> {
    archive: &'a ArchiveStore,
    client: SaqClient,
    engine: QueryEngine,
    registry: SubscriptionRegistry,
    last_pumped: u64,
    oracle: Oracle,
    /// Accepted query indices per class.
    scan: Vec<usize>,
    index: Vec<usize>,
    rng: Rng,
    sequences: u64,
    failures: Vec<String>,
    attempted: u64,
    /// Ids appended since the replay engine's last scan, and its cache
    /// miss count when the first of them was appended.
    dirty_since_scan: Vec<u64>,
    misses_at_first_dirty: Option<u64>,
}

/// Per-operation readings the spans do not carry.
#[derive(Default)]
struct ScriptReadings {
    round_trip_ms: BTreeMap<Shape, Vec<f64>>,
    overhead_ms: BTreeMap<Shape, Vec<f64>>,
    fetches: Vec<f64>,
    hits: u64,
    misses: u64,
    evictions: Vec<f64>,
    entries_scanned: u64,
    results: u64,
    refetch_per_append: Vec<f64>,
    response_bytes: Vec<f64>,
    pumps: u64,
}

impl ScriptState<'_> {
    fn next_tail(&mut self, id: u64) -> Vec<Point> {
        let (last, dt) = self.oracle.tail_of(id).expect("scripts append to corpus ids");
        let amp = (self.rng.range(3.0, 6.0) * 100.0).round() / 100.0;
        gen::spike_tail(last, dt, 4 + self.rng.below(9) as u8, amp)
    }

    /// One socket operation, and — when `tracer` is on — its in-process
    /// replay. Returns the round trip in milliseconds.
    fn operation(
        &mut self,
        shape: Shape,
        tracer: &Tracer,
        traced: bool,
        readings: &mut ScriptReadings,
    ) {
        self.attempted += 1;
        tracer.next_op();
        match shape {
            Shape::Scan | Shape::Index => {
                let pool = if shape == Shape::Scan { &self.scan } else { &self.index };
                let ix = pool[self.rng.below(pool.len() as u64) as usize];
                let request =
                    QueryRequest::saql(self.oracle.queries()[ix].saql.clone()).with_stats();
                tracer.span(if shape == Shape::Scan { "op.scan" } else { "op.index" }, || {
                    let sent = Instant::now();
                    let reply = tracer.span("server.round_trip", || self.client.query(&request));
                    let round_trip = sent.elapsed().as_secs_f64() * 1e3;
                    let reply = match reply {
                        Ok(reply) => reply,
                        Err(e) => return self.failures.push(format!("query: {e}")),
                    };
                    if digest(&reply.outcome) != digest(&self.oracle.expected(ix)) {
                        self.failures.push(format!(
                            "`{}` disagrees with the oracle",
                            request_text(&request)
                        ));
                    }
                    readings.round_trip_ms.entry(shape).or_default().push(round_trip);
                    if traced {
                        let replayed = Instant::now();
                        self.replay_query(shape, &request, &reply, tracer, readings);
                        let replay = replayed.elapsed().as_secs_f64() * 1e3;
                        readings.overhead_ms.entry(shape).or_default().push(round_trip - replay);
                    }
                });
            }
            Shape::Append => {
                let id = self.rng.below(self.sequences);
                let tail = self.next_tail(id);
                tracer.span("op.append", || {
                    let sent = Instant::now();
                    let reply = tracer.span("server.round_trip", || self.client.append(id, &tail));
                    let round_trip = sent.elapsed().as_secs_f64() * 1e3;
                    self.oracle.apply_append(id, &tail);
                    if reply.as_ref().ok() != Some(&self.oracle.len_of(id)) {
                        self.failures.push(format!("append to {id} acknowledged {reply:?}"));
                    }
                    self.dirty_since_scan.push(id);
                    readings.round_trip_ms.entry(shape).or_default().push(round_trip);
                    if traced {
                        self.misses_at_first_dirty.get_or_insert(self.engine.cache_stats().misses);
                        let tail = self.next_tail(id);
                        let replayed = Instant::now();
                        let appended = tracer.span("replay", || {
                            tracer.span("archive.append_points", || {
                                self.archive.clone().try_append_points(id, &tail)
                            })
                        });
                        let replay = replayed.elapsed().as_secs_f64() * 1e3;
                        readings.overhead_ms.entry(shape).or_default().push(round_trip - replay);
                        self.oracle.apply_append(id, &tail);
                        if appended.ok() != Some(self.oracle.len_of(id)) {
                            self.failures.push(format!("in-process append to {id} failed"));
                        }
                        // The first snapshot after a mutation sorts the ids anew.
                        let snapshot = tracer.span("archive.snapshot", || {
                            let snapshot = self.archive.snapshot();
                            black_box(snapshot.ids().len());
                            snapshot
                        });
                        let pumped = tracer.span("engine.pump", || {
                            self.engine.pump_subscriptions(
                                &snapshot,
                                &mut self.registry,
                                self.last_pumped,
                            )
                        });
                        self.last_pumped = snapshot.generation();
                        readings.pumps += 1;
                        if let Err(e) = pumped {
                            self.failures.push(format!("pump: {e}"));
                        }
                    }
                });
            }
        }
    }

    /// The same request, in process, on the snapshot the server answered
    /// from: wire decode, parse, plan, snapshot, run, wire encode/decode.
    fn replay_query(
        &mut self,
        shape: Shape,
        request: &QueryRequest,
        reply: &saq_core::QueryResponse,
        tracer: &Tracer,
        readings: &mut ScriptReadings,
    ) {
        let replayed = tracer.span("replay", || -> saq_core::Result<saq_core::QueryResponse> {
            let wire = tracer.span("server.encode_request", || {
                WireRequest::from_request(request).map(|w| w.render())
            })?;
            let request = tracer
                .span("server.decode_request", || WireRequest::parse(&wire)?.to_request(None))?;
            let expr = tracer
                .span("core.parse", || saq_core::lang::saql::parse(request_text(&request)))?;
            tracer.span("core.plan", || Planner::new(IndexCaps::all()).plan(&expr))?;
            let snapshot = tracer.span("archive.snapshot", || self.archive.snapshot());
            let (fetches, cache) = (self.archive.fetch_count(), self.engine.cache_stats());
            let response = tracer
                .span("engine.run_requests", || {
                    self.engine.run_requests(&snapshot, std::slice::from_ref(&request))
                })?
                .remove(0)?;
            if shape == Shape::Scan {
                let fetched = (self.archive.fetch_count() - fetches) as f64;
                let after = self.engine.cache_stats();
                readings.fetches.push(fetched);
                readings.hits += after.hits - cache.hits;
                readings.misses += after.misses - cache.misses;
                readings.evictions.push((after.evictions - cache.evictions) as f64);
                if let Some(stats) = &response.stats {
                    readings.entries_scanned += stats.entries_scanned;
                    readings.results += response.ids().len() as u64;
                }
                // What the appends since the last scan cost this engine's
                // cache, through the pump and this scan.
                self.dirty_since_scan.sort_unstable();
                self.dirty_since_scan.dedup();
                if let Some(mark) = self.misses_at_first_dirty.take() {
                    let refetched = (after.misses - mark) as f64;
                    readings
                        .refetch_per_append
                        .push(refetched / self.dirty_since_scan.len() as f64);
                }
                self.dirty_since_scan.clear();
            }
            let wire = tracer.span("server.encode_response", || {
                WireResponse::from_response(&response, 1).render()
            });
            readings.response_bytes.push(wire.len() as f64);
            tracer.span("server.decode_response", || WireResponse::parse(&wire)?.to_response())
        });
        match replayed {
            Ok(replayed)
                if replayed.outcome == reply.outcome && replayed.snapshot == reply.snapshot => {}
            Ok(_) => self.failures.push(format!(
                "replay of `{}` differs from the socket reply",
                request_text(request)
            )),
            Err(e) => self.failures.push(format!("replay: {e}")),
        }
    }
}

fn request_text(request: &QueryRequest) -> &str {
    match &request.query {
        saq_core::QueryBody::Saql(text) => text,
        saq_core::QueryBody::Expr(_) => "",
    }
}

/// Part 2: the script, untraced then traced.
fn script(
    served: &Served,
    tracer: &Arc<Tracer>,
    opts: &Options,
    sequences: u64,
    out: &mut Readings,
) -> Result<(u64, Vec<String>, Vec<Query>), String> {
    let archive = &served.archive;
    let mut client = SaqClient::connect(served.server.addr()).map_err(|e| e.to_string())?;
    let pings: Vec<f64> = (0..30)
        .map(|_| {
            let sent = Instant::now();
            let _ = client.ping();
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.med("server.ping_rtt_ms", pings);

    let config = StoreConfig::default();
    let base = archive.snapshot();
    let mut tracked = serve::draw_queries(&base, config, opts.seed, sequences);
    let drawn = tracked.len();
    let standing = gen::subscriptions(sequences);
    tracked.extend(standing.iter().cloned());
    let oracle = Oracle::new(base.clone(), config, tracked);
    let of_class = |class: Class| -> Vec<usize> {
        (0..drawn)
            .filter(|&ix| oracle.queries()[ix].class == class && oracle.base_len(ix) > 0)
            .collect()
    };
    let (scan, index) = (of_class(Class::Scan), of_class(Class::Index));
    if scan.is_empty() || index.is_empty() {
        return Err("the generator produced no usable query for a class".into());
    }

    // The replay side: the server's engine configuration, and the
    // watcher's standing queries in a registry of its own.
    let engine = QueryEngine::new(EngineConfig::default()).map_err(|e| e.to_string())?;
    let mut registry = SubscriptionRegistry::new();
    for sub in &standing {
        registry.register_saql(&sub.saql).map_err(|e| e.to_string())?;
    }
    engine
        .pump_subscriptions(&base, &mut registry, base.generation())
        .map_err(|e| e.to_string())?;
    let evaluated_at_baseline = registry.counters().evaluated;

    let mut state = ScriptState {
        archive,
        client,
        engine,
        registry,
        last_pumped: base.generation(),
        oracle,
        scan,
        index,
        rng: Rng::lane(opts.seed, 0x7ace),
        sequences,
        failures: Vec::new(),
        attempted: 0,
        dirty_since_scan: Vec::new(),
        misses_at_first_dirty: None,
    };
    let ops = ((5.0 * opts.seconds) as usize).max(9);
    let shapes = [Shape::Scan, Shape::Index, Shape::Append];
    let off = Tracer::new(false);
    let mut untraced = ScriptReadings::default();
    for k in 0..ops {
        state.operation(shapes[k % 3], &off, false, &mut untraced);
    }
    let mut readings = ScriptReadings::default();
    for k in 0..ops {
        state.operation(shapes[k % 3], tracer, true, &mut readings);
    }

    // Tracing overhead: the same socket operations with and without spans.
    let total = |r: &ScriptReadings| r.round_trip_ms.values().flatten().sum::<f64>();
    out.set("bench.trace_overhead_share", total(&readings) / total(&untraced) - 1.0, ops);

    let recorded = tracer.spans();
    let ms = |name: &str| {
        spans::durations_of(&recorded, name).into_iter().map(|ns| ns / 1e6).collect::<Vec<f64>>()
    };
    let us = |name: &str| {
        spans::durations_of(&recorded, name).into_iter().map(|ns| ns / 1e3).collect::<Vec<f64>>()
    };
    let mut take = |shape| readings.overhead_ms.remove(&shape).unwrap_or_default();
    out.med("server.overhead_scan_ms", take(Shape::Scan));
    out.med("server.overhead_index_ms", take(Shape::Index));
    out.med("server.overhead_append_ms", take(Shape::Append));
    out.med("server.encode_request_us", us("server.encode_request"));
    out.med("server.decode_request_us", us("server.decode_request"));
    out.med("server.encode_response_us", us("server.encode_response"));
    out.med("server.decode_response_us", us("server.decode_response"));
    let bytes = readings.response_bytes.len();
    out.set(
        "server.response_bytes",
        readings.response_bytes.iter().sum::<f64>() / bytes.max(1) as f64,
        bytes,
    );

    // engine.run_requests spans, split by the class of their operation.
    let class_of_op: BTreeMap<u64, &str> =
        recorded.iter().filter(|s| s.parent.is_none()).map(|s| (s.op, s.name)).collect();
    let runs = |class: &str| -> Vec<f64> {
        recorded
            .iter()
            .filter(|s| s.name == "engine.run_requests" && class_of_op.get(&s.op) == Some(&class))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    out.med("engine.run_scan_ms", runs("op.scan"));
    out.med("engine.run_index_ms", runs("op.index"));
    let scans = readings.fetches.len();
    out.med("engine.fetches_per_query", readings.fetches);
    let lookups = (readings.hits + readings.misses).max(1);
    out.set("engine.cache_hit_rate", readings.hits as f64 / lookups as f64, lookups as usize);
    out.med("engine.cache_evictions_per_query", readings.evictions);
    out.set(
        "engine.entries_scanned_per_result",
        readings.entries_scanned as f64 / readings.results.max(1) as f64,
        scans,
    );
    out.med("engine.refetch_per_append", readings.refetch_per_append);
    out.med("engine.pump_ms", ms("engine.pump"));
    let evaluated = state.registry.counters().evaluated - evaluated_at_baseline;
    let offered = (standing.len() as u64 * readings.pumps).max(1);
    out.set(
        "engine.pump_evaluated_share",
        evaluated as f64 / offered as f64,
        readings.pumps as usize,
    );
    out.med("core.parse_us", us("core.parse"));
    out.med("core.plan_us", us("core.plan"));
    out.med("archive.append_points_us", us("archive.append_points"));
    out.med("archive.snapshot_us", us("archive.snapshot"));

    // A two-request wave: one scan and one index query in one pass.
    let snapshot = archive.snapshot();
    let waves: Vec<f64> = (0..10)
        .map(|k| {
            let wave = [
                QueryRequest::saql(
                    state.oracle.queries()[state.scan[k % state.scan.len()]].saql.clone(),
                ),
                QueryRequest::saql(
                    state.oracle.queries()[state.index[k % state.index.len()]].saql.clone(),
                ),
            ];
            micros(|| state.engine.run_requests(&snapshot, &wave)) / 1e3
        })
        .collect();
    out.med("engine.run_wave2_ms", waves);
    let drawn = state.oracle.queries()[..drawn].to_vec();
    Ok((state.attempted, state.failures, drawn))
}

/// Part 3a: `core`, `pattern` and `index` probes over the corpus.
fn probe_core(
    corpus: &[(u64, Sequence)],
    queries: &[Query],
    out: &mut Readings,
) -> Result<(), String> {
    let config = StoreConfig::default();
    let points = gen::corpus_points(corpus);
    let start = Instant::now();
    let entries: Vec<StoredEntry> = corpus
        .iter()
        .map(|(_, seq)| StoredEntry::compute(seq, &config))
        .collect::<saq_core::Result<_>>()
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    out.set("core.represent_us_per_seq", seconds * 1e6 / corpus.len() as f64, corpus.len());
    out.set("core.represent_mpoints_s", points as f64 / 1e6 / seconds, points);
    let segments: usize = entries.iter().map(|e| e.series.compression().segments).sum();
    out.set("core.segments_per_kpoint", segments as f64 * 1e3 / points as f64, points);

    let mut set = IndexSet::new();
    let inserts: Vec<f64> = entries
        .iter()
        .zip(corpus)
        .map(|(entry, (id, _))| {
            let buckets = entry.peaks.interval_buckets();
            let doc = IndexDoc {
                symbols: &entry.symbols,
                interval_buckets: &buckets,
                peak_count: entry.peaks.len(),
            };
            micros(|| set.insert_doc(*id, &doc))
        })
        .collect();
    out.med("index.insert_doc_us", inserts);
    drop(entries);
    let shapes: Vec<&str> = queries.iter().filter_map(|q| q.saql.split('"').nth(1)).collect();
    let mut compiles = Vec::new();
    let mut matches = Vec::new();
    for pattern in gen::SHAPES.iter().copied().chain(shapes) {
        let leaf = saq_core::lang::saql::parse(&format!("shape \"{pattern}\""))
            .map_err(|e| e.to_string())?;
        let QueryExpr::Leaf(pred) = leaf else {
            return Err("a shape query parses to one leaf".into());
        };
        let mut prepared = None;
        compiles.push(micros(|| prepared = PreparedPred::new(&pred).ok()));
        let prepared = prepared.ok_or("a generated shape does not compile")?;
        let regex = prepared.regex().ok_or("a shape leaf holds a regex")?;
        matches.push(micros(|| set.pattern().full_matches(regex)));
    }
    out.med("pattern.compile_us", compiles);
    out.med("index.pattern_match_us", matches);
    let lookups: Vec<f64> = [7i64, 9, 11, 34, 90, 100, 110, 120]
        .iter()
        .map(|key| micros(|| set.interval().matching_sequences(*key, 2)))
        .collect();
    out.med("index.interval_lookup_us", lookups);
    drop(set);

    // The paper's local-representation path: a store with persistent indexes.
    let local = &corpus[..corpus.len().min(PROBE_SEQUENCES)];
    let mut store = SequenceStore::new(config).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for (_, seq) in local {
        store.insert(seq).map_err(|e| e.to_string())?;
    }
    out.set(
        "core.store_insert_us_per_seq",
        start.elapsed().as_secs_f64() * 1e6 / local.len() as f64,
        local.len(),
    );
    out.set("core.compression_ratio", store.total_compression().ratio(), local.len());
    let engine = StoreEngine::new(&store);
    let mut timings: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for query in queries.iter().filter(|q| !q.saql.contains("id in")) {
        let request = QueryRequest::saql(query.saql.clone());
        for _ in 0..5 {
            timings.entry(query.class).or_default().push(micros(|| engine.request(&request)));
        }
    }
    out.med("core.store_scan_query_us", timings.remove(&Class::Scan).unwrap_or_default());
    out.med("core.store_index_query_us", timings.remove(&Class::Index).unwrap_or_default());
    drop(store);

    // Streaming splice: the online breaker re-breaks only the open suffix.
    let mut streaming = SequenceStore::new(StoreConfig::streaming()).map_err(|e| e.to_string())?;
    let feeds = &corpus[..corpus.len().min(256)];
    let ids: Vec<u64> = feeds
        .iter()
        .map(|(_, seq)| streaming.insert(seq))
        .collect::<saq_core::Result<_>>()
        .map_err(|e| e.to_string())?;
    let (mut splices, mut rebroken, mut appended) = (Vec::new(), 0usize, 0usize);
    for (id, (_, seq)) in ids.iter().zip(feeds) {
        let tail = gen::spike_tail(*seq.last().ok_or("empty feed")?, gen::spacing(seq), 8, 4.0);
        let mut report = None;
        splices.push(micros(|| report = streaming.append_points(*id, &tail).ok()));
        rebroken += report.ok_or("a streaming append failed")?.rebroken_points;
        appended += tail.len();
    }
    out.med("core.append_splice_us", splices);
    out.set("core.rebroken_points_per_appended", rebroken as f64 / appended as f64, appended);
    Ok(())
}

/// Part 3b: `archive` and `durable` probes, on scratch storage.
fn probe_storage(dir: &Path, corpus: &[(u64, Sequence)], out: &mut Readings) -> Result<(), String> {
    let text = |e: saq_durable::Error| e.to_string();
    let local = &corpus[..corpus.len().min(PROBE_SEQUENCES)];
    let mut payloads = Vec::with_capacity(local.len());
    let encodes: Vec<f64> =
        local.iter().map(|(_, seq)| micros(|| payloads.push(encode_sequence(seq)))).collect();
    out.med("archive.encode_seq_us", encodes);
    let decodes: Vec<f64> =
        payloads.iter().map(|bytes| micros(|| decode_sequence(bytes))).collect();
    out.med("archive.decode_seq_us", decodes);

    // One write-ahead append and fsync per sequence, then per 64.
    let scratch = |name: &str| {
        lifecycle::open_dir(&dir.join(name), lifecycle::ingest_config()).map_err(|e| e.to_string())
    };
    let mut store = scratch("probe-put")?;
    let singles: Vec<f64> = local[..local.len().min(256)]
        .iter()
        .map(|(id, seq)| {
            let seq = seq.clone();
            micros(|| store.put(*id, seq))
        })
        .collect();
    out.med("archive.put_us", singles);
    let mut store = scratch("probe-batch")?;
    let per_seq: Vec<f64> = local[..local.len().min(1024)]
        .chunks(lifecycle::INGEST_BATCH)
        .map(|chunk| {
            let items = chunk.to_vec();
            micros(|| store.put_batch(items)) / chunk.len() as f64
        })
        .collect();
    out.med("archive.put_batch_us_per_seq", per_seq);
    drop(store);

    // The WAL alone.
    let backend: Arc<dyn Backend> =
        Arc::new(FileBackend::open(dir.join("probe-wal")).map_err(text)?);
    let (mut wal, _) =
        DurableStore::open(backend.clone(), DurableConfig { compact_after: 0 }, || 1)
            .map_err(text)?;
    let record = |k: usize| WalRecord {
        generation: k as u64 + 1,
        op: WalOp::Put { id: k as u64, payload: payloads[k % payloads.len()].clone() },
    };
    let singles: Vec<f64> = (0..256)
        .map(|k| {
            let record = record(k);
            micros(|| wal.append(&record).expect("probe WAL append"))
        })
        .collect();
    out.med("durable.wal_append_us", singles);
    let groups: Vec<f64> = (0..8)
        .map(|g| {
            let group: Vec<WalRecord> = (0..64).map(|k| record(256 + g * 64 + k)).collect();
            micros(|| wal.append_batch(&group).expect("probe WAL append")) / 64.0
        })
        .collect();
    out.med("durable.wal_append_batch_us_per_record", groups);
    drop(wal);

    // A segment of the encoded sequences: point gets, then a full scan.
    let mut builder = SegmentBuilder::new(backend.as_ref(), "probe-seg").map_err(text)?;
    for (k, bytes) in payloads.iter().enumerate() {
        builder.push(k as u64, bytes).map_err(text)?;
    }
    let meta = builder.finish().map_err(text)?;
    let reader = SegmentReader::new(backend.clone(), "probe-seg", meta);
    let mut rng = Rng::new(payloads.len() as u64);
    let gets: Vec<f64> = (0..512)
        .map(|_| {
            let id = rng.below(payloads.len() as u64);
            micros(|| reader.get(id))
        })
        .collect();
    out.set(
        "durable.segment_pages_per_get",
        reader.pages_read() as f64 / gets.len() as f64,
        gets.len(),
    );
    out.med("durable.segment_get_us", gets);
    let fresh = SegmentReader::new(backend, "probe-seg", meta);
    out.set("durable.segment_scan_s", micros(|| fresh.scan()) / 1e6, payloads.len());
    Ok(())
}

/// Part 3c: the served archive's read path — taken right after the warm
/// open, before any traffic, so the segment reader's page cache is fresh
/// and the page count repeats exactly.
fn probe_read_path(archive: &ArchiveStore, out: &mut Readings) -> Result<(), String> {
    let snapshot = archive.snapshot();
    let ids: Vec<u64> = snapshot.ids().iter().copied().take(PROBE_SEQUENCES).collect();
    let fetches: Vec<f64> = ids.iter().map(|id| micros(|| snapshot.fetch(*id))).collect();
    out.med("archive.fetch_us", fetches);
    let cold = snapshot.cold_docs().ok_or("a compacted archive has cold documents")?;
    let pages = cold.pages_read();
    let docs: Vec<f64> = ids.iter().map(|id| micros(|| cold.doc(*id))).collect();
    out.set(
        "archive.cold_pages_per_doc",
        (cold.pages_read() - pages) as f64 / docs.len() as f64,
        docs.len(),
    );
    out.med("archive.cold_doc_us", docs);
    Ok(())
}

/// Runs the traced run of one workload; returns its values and the trace
/// file's contents.
pub fn trace(
    workload: &'static Workload,
    opts: &Options,
) -> Result<(Outcome, crate::json::Json), String> {
    let scratch = Scratch::new(&opts.out, workload.name).map_err(|e| e.to_string())?;
    let sequences = opts.sequences(workload);
    let corpus = gen::corpus(opts.seed, sequences, workload.mix);
    let tracer = Arc::new(Tracer::new(true));
    let mut out = Readings::default();
    let dir = scratch.path().join("archive");

    let CountedSetUp { served, setup } =
        counted_set_up(&dir, &corpus, &tracer, &mut out).map_err(|e| format!("set-up: {e}"))?;
    let mut failures = setup.failures.clone();
    let mut attempted = setup.checks;
    probe_read_path(&served.archive, &mut out)?;

    let (ops, failed, queries) = script(&served, &tracer, opts, sequences as u64, &mut out)?;
    attempted += ops;
    failures.extend(failed);
    probe_core(&corpus, &queries, &mut out)?;
    probe_storage(scratch.path(), &corpus, &mut out)?;
    drop(corpus);

    // Part 4: the workload's concurrent traffic, for the server's counters.
    let plan = ServePlan {
        seed: opts.seed,
        sequences,
        analysts: workload.analysts,
        warmup: Duration::from_millis(500),
        timed: Duration::from_secs_f64((opts.seconds / 4.0).max(1.0)),
        corrupt_oracle: opts.corrupt_oracle,
    };
    let burst = serve::serve(served, &dir, &plan)?;
    attempted += burst.attempted;
    failures.extend(burst.failures.iter().cloned());
    let counters = burst.counters;
    out.set(
        "server.queries_per_wave",
        counters.queries as f64 / counters.waves.max(1) as f64,
        counters.waves as usize,
    );
    out.set(
        "server.delta_frames_per_append",
        counters.deltas as f64 / counters.appends.max(1) as f64,
        counters.appends as usize,
    );
    out.set(
        "server.errors",
        counters.errors as f64,
        (counters.queries + counters.appends) as usize,
    );
    out.set("archive.compactions", counters.compactions as f64, counters.appends as usize);

    let outcome = Outcome {
        workload: workload.name,
        values: out.into_values(),
        extras: Vec::new(),
        attempted,
        failures,
    };
    Ok((outcome, spans::to_json(&tracer.spans())))
}
