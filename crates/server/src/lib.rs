//! # saq-server — `saqd`, a networked SAQL server with batch coalescing
//!
//! The paper's setting is many analysts posing approximate queries over
//! one large archive of sequences. This crate puts the sharded engine
//! behind a socket so those analysts can be actual concurrent clients:
//! `saqd` listens on TCP, speaks the hand-framed [`protocol`] (SAQL text
//! in, results/explain/stats out), and — the part that makes a shared
//! server worth having — **coalesces concurrent queries into engine
//! waves**.
//!
//! ## One snapshot per coalesced wave
//!
//! Every connection gets its own reader thread, but queries do not run
//! where they arrive: connection threads enqueue jobs to a single
//! dispatcher, which drains whatever has accumulated (up to
//! [`SaqdConfig::max_wave`], waiting at most [`SaqdConfig::wave_window`]
//! for stragglers), captures **one archive snapshot**, and hands the
//! whole wave to `saq_engine`'s `run_requests`. The engine dedups shared
//! leaves across the wave and makes a single sharded pass over the
//! archive, so N clients asking related questions cost one scan's worth
//! of fetches instead of N — and every answer in the wave is
//! snapshot-consistent with every other. Per-request failures (a SAQL
//! typo, a stale pin) come back to their own client; the rest of the
//! wave is unaffected.
//!
//! Writes and standing queries stay off the dispatcher, so neither waits
//! behind a wave's scan. A session commits its own `APPEND` (sessions
//! share one writer lock, so each reply names its own generation) and
//! wakes the **pump**: one thread that owns the subscription registry,
//! re-evaluates it against a fresh snapshot and pushes the `DELTA`
//! frames. Appends that land while a pump runs are covered by the next
//! one.
//!
//! ## Sessions and pins
//!
//! A connection is a session. `PIN` records the current snapshot ref and
//! stamps it on subsequent queries; once a writer moves the archive on,
//! those queries refuse with [`saq_core::Error::SnapshotMismatch`]'s stable code
//! rather than silently answering from newer data. `UNPIN` returns the
//! session to read-latest.
//!
//! ```
//! use saq_archive::{ArchiveStore, Medium};
//! use saq_sequence::generators::{goalpost, GoalpostSpec};
//! use saq_server::{SaqClient, Saqd, SaqdConfig};
//!
//! let mut archive = ArchiveStore::new(Medium::memory());
//! archive.put(7, goalpost(GoalpostSpec::default()));
//! let server = Saqd::spawn(archive, SaqdConfig::default()).unwrap();
//! let mut client = SaqClient::connect(server.addr()).unwrap();
//! let resp = client.query(&saq_core::QueryRequest::saql("peaks = 2")).unwrap();
//! assert_eq!(resp.outcome.exact, vec![7]);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;

pub use client::{RemoteEngine, SaqClient};
pub use protocol::DeltaFrame;

use parking_lot::Mutex;
use protocol::{parse_points, read_frame, write_frame, Verb, WireRequest, WireResponse};
use saq_archive::ArchiveStore;
use saq_core::subscribe::{SubscriptionId, SubscriptionRegistry};
use saq_core::{Error, QueryRequest, QueryResponse, Result, SnapshotRef};
use saq_engine::{EngineConfig, QueryEngine};
use saq_sequence::Point;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one `saqd` instance.
#[derive(Debug, Clone)]
pub struct SaqdConfig {
    /// Listen address; port 0 picks a free port (see [`Saqd::addr`]).
    pub addr: String,
    /// Most queries one dispatch wave may coalesce.
    pub max_wave: usize,
    /// How long the dispatcher holds an open wave for stragglers after
    /// the first query arrives. Zero disables coalescing (every query is
    /// its own wave) — the serial baseline the load experiment compares
    /// against.
    pub wave_window: Duration,
    /// Configuration for the sharded engine the dispatcher drives.
    pub engine: EngineConfig,
}

impl Default for SaqdConfig {
    fn default() -> Self {
        SaqdConfig {
            addr: "127.0.0.1:0".into(),
            max_wave: 16,
            wave_window: Duration::from_millis(2),
            engine: EngineConfig::default(),
        }
    }
}

/// Monotonic counters a running server maintains; snapshot them through
/// [`Saqd::metrics`] or the `STATS` verb.
#[derive(Debug, Default)]
struct Metrics {
    connections: AtomicU64,
    queries: AtomicU64,
    waves: AtomicU64,
    errors: AtomicU64,
    max_wave: AtomicU64,
    appends: AtomicU64,
    deltas: AtomicU64,
    subscriptions: AtomicU64,
}

/// A point-in-time copy of a server's [`Saqd::metrics`] counters, and
/// what [`SaqClient::stats`] reads back from a `STATS` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Queries executed (successfully or not).
    pub queries: u64,
    /// Dispatch waves run; `queries / waves` is the realized coalescing.
    pub waves: u64,
    /// Failures counted one each: queries that returned an error
    /// (malformed `QUERY` payloads included), refused `SUBSCRIBE` and
    /// `APPEND` calls, failed subscription pumps, and replies refused for
    /// exceeding the frame cap.
    pub errors: u64,
    /// Largest wave coalesced so far.
    pub max_wave: u64,
    /// Append waves applied through the `APPEND` verb.
    pub appends: u64,
    /// `DELTA` frames pushed to subscribed sessions.
    pub deltas: u64,
    /// Currently live subscriptions (a gauge, not a counter).
    pub subscriptions: u64,
}

/// Selects one counter of a [`MetricsSnapshot`].
type Counter = fn(&mut MetricsSnapshot) -> &mut u64;

/// The `STATS` reply's counter headers in wire order, each with the
/// [`MetricsSnapshot`] field it carries: the one list the server renders
/// from and [`MetricsSnapshot::from_reply`] parses with.
const STATS_HEADERS: [(&str, Counter); 8] = [
    ("connections", |m| &mut m.connections),
    ("queries", |m| &mut m.queries),
    ("waves", |m| &mut m.waves),
    ("errors", |m| &mut m.errors),
    ("max-wave", |m| &mut m.max_wave),
    ("appends", |m| &mut m.appends),
    ("deltas", |m| &mut m.deltas),
    ("subscriptions", |m| &mut m.subscriptions),
];

impl MetricsSnapshot {
    /// Reads a `STATS` reply. Every counter must be present and numeric:
    /// a malformed reply is an [`Error::Protocol`] naming the header,
    /// never a silent zero.
    pub fn from_reply(reply: &WireResponse) -> Result<MetricsSnapshot> {
        if !reply.ok {
            return Err(reply.to_error());
        }
        let mut snapshot = Metrics::default().snapshot();
        for (key, field) in STATS_HEADERS {
            let value = reply.header(key).ok_or_else(|| {
                Error::Protocol(format!("STATS reply is missing the `{key}` header"))
            })?;
            *field(&mut snapshot) = value.parse().map_err(|_| {
                Error::Protocol(format!("STATS reply header `{key}` is not a count: `{value}`"))
            })?;
        }
        Ok(snapshot)
    }
}

impl Metrics {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            max_wave: self.max_wave.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
            subscriptions: self.subscriptions.load(Ordering::Relaxed),
        }
    }
}

/// The write half of one session's socket, shared between its reader
/// thread (responses) and the pump (pushed `DELTA` frames).
type Sink = Arc<Mutex<TcpStream>>;

/// The archive handle every session appends through. Holding its lock
/// across the commit and the generation read makes each reply's
/// generation that append's own.
type Writer = Arc<Mutex<ArchiveStore>>;

/// One unit of dispatcher work.
enum Job {
    /// A query from some connection; the answer, tagged with the size of
    /// the wave that served it, goes back through `reply`.
    Query { req: QueryRequest, reply: SyncSender<WireResult<(QueryResponse, u64)>> },
    /// Stop the dispatch loop.
    Shutdown,
}

/// One unit of pump work. The subscription registry lives on the pump
/// thread, so registering, dropping and re-evaluating standing queries
/// all go through here, in arrival order.
enum PumpJob {
    /// Register a standing SAQL query; membership changes push to `sink`.
    Subscribe { saql: String, sink: Sink, reply: SyncSender<WireResult<u64>> },
    /// Drop a subscription; answers whether it was live.
    Unsubscribe { id: u64, reply: SyncSender<WireResult<bool>> },
    /// The archive has moved on: pump against a fresh snapshot.
    Moved,
    /// Stop the pump loop.
    Shutdown,
}

/// A result whose error half is already wire-shaped `(code, message)`:
/// `Error` is not `Clone`, and a wave-level failure must fan out to every
/// member.
type WireResult<T> = std::result::Result<T, (u16, String)>;

/// A running `saqd` server: an acceptor, one reader thread per
/// connection, the single coalescing dispatcher, and the subscription
/// pump. Dropping the handle without calling [`Saqd::shutdown`] leaves
/// the threads serving until process exit.
#[derive(Debug)]
pub struct Saqd {
    addr: SocketAddr,
    jobs: Sender<Job>,
    pumps: Sender<PumpJob>,
    writer: Writer,
    stopping: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    acceptor: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
    pumper: JoinHandle<()>,
}

impl Saqd {
    /// Binds, spawns the acceptor, dispatcher and pump, and returns once
    /// the server is reachable. The server reads through its own handle
    /// onto the shared `archive`; keep another handle to keep writing.
    pub fn spawn(archive: ArchiveStore, config: SaqdConfig) -> Result<Saqd> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(QueryEngine::new(config.engine)?);
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let (pumps_tx, pumps_rx) = mpsc::channel::<PumpJob>();
        let writer: Writer = Arc::new(Mutex::new(archive.clone()));
        let stopping = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::default());

        let dispatcher = {
            let (engine, archive, metrics) = (engine.clone(), archive.clone(), metrics.clone());
            let (config, pumps) = (config.clone(), pumps_tx.clone());
            std::thread::spawn(move || {
                dispatch_loop(&engine, &archive, &config, &jobs_rx, &pumps, &metrics)
            })
        };

        let pumper = {
            let (archive, metrics) = (archive.clone(), metrics.clone());
            std::thread::spawn(move || pump_loop(&engine, &archive, &pumps_rx, &metrics))
        };

        let acceptor = {
            let (jobs, pumps, writer) = (jobs_tx.clone(), pumps_tx.clone(), writer.clone());
            let stopping = stopping.clone();
            let metrics = metrics.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    metrics.connections.fetch_add(1, Ordering::Relaxed);
                    let session = Session {
                        jobs: jobs.clone(),
                        pumps: pumps.clone(),
                        writer: writer.clone(),
                        stopping: stopping.clone(),
                        metrics: metrics.clone(),
                        archive: archive.clone(),
                        pin: None,
                        subs: Vec::new(),
                    };
                    std::thread::spawn(move || session.serve(stream));
                }
            })
        };

        Ok(Saqd {
            addr,
            jobs: jobs_tx,
            pumps: pumps_tx,
            writer,
            stopping,
            metrics,
            acceptor,
            dispatcher,
            pumper,
        })
    }

    /// The address the server is listening on (with the real port when
    /// the config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Blocks until some client's `SHUTDOWN` verb stops the dispatcher,
    /// then joins the threads — the `saqd` binary's serve-forever loop.
    pub fn shutdown_when_asked(self) {
        let _ = self.dispatcher.join();
        stop_writes(&self.stopping, &self.writer);
        let _ = self.pumps.send(PumpJob::Shutdown);
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let _ = self.pumper.join();
    }

    /// Stops accepting and appending, drains the dispatcher and the pump,
    /// and joins their threads. Open sessions see a "server is stopping"
    /// error on their next query or append and are left to disconnect on
    /// their own.
    pub fn shutdown(self) {
        stop_writes(&self.stopping, &self.writer);
        let _ = self.jobs.send(Job::Shutdown);
        let _ = self.pumps.send(PumpJob::Shutdown);
        // The acceptor is parked in accept(); a throwaway connection
        // unblocks it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let _ = self.dispatcher.join();
        let _ = self.pumper.join();
    }
}

/// Raises the stopping flag, then waits out any append in flight:
/// sessions check the flag under the writer lock, so no append commits
/// once this returns.
fn stop_writes(stopping: &AtomicBool, writer: &Writer) {
    stopping.store(true, Ordering::SeqCst);
    drop(writer.lock());
}

/// The wave loop: take one query, hold the wave open for the configured
/// window (or until full), then run the accumulated queries against
/// **one** archive snapshot. Appends and subscriptions never pass
/// through here, so they never wait behind a wave's scan. A wave that
/// finds the archive moved on wakes the pump, which is how a write made
/// through another handle reaches the subscribers.
fn dispatch_loop(
    engine: &QueryEngine,
    archive: &ArchiveStore,
    config: &SaqdConfig,
    jobs: &Receiver<Job>,
    pumps: &Sender<PumpJob>,
    metrics: &Metrics,
) {
    let mut seen = archive.generation();
    loop {
        let mut wave = Vec::new();
        let mut stop_after = false;
        // Unset until the query that opens the wave has been taken: the
        // window counts from there.
        let mut deadline: Option<Instant> = None;
        while !stop_after && wave.len() < config.max_wave.max(1) {
            let job = match deadline {
                None => match jobs.recv() {
                    Ok(job) => job,
                    Err(_) => return,
                },
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    match jobs.recv_timeout(left) {
                        Ok(job) => job,
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => {
                            stop_after = true;
                            break;
                        }
                    }
                }
            };
            match job {
                Job::Query { req, reply } => wave.push((req, reply)),
                Job::Shutdown => stop_after = true,
            }
            deadline.get_or_insert_with(|| Instant::now() + config.wave_window);
        }

        if !wave.is_empty() {
            let snapshot = archive.snapshot();
            if snapshot.generation() != seen {
                seen = snapshot.generation();
                let _ = pumps.send(PumpJob::Moved);
            }
            let size = wave.len() as u64;
            metrics.waves.fetch_add(1, Ordering::Relaxed);
            metrics.queries.fetch_add(size, Ordering::Relaxed);
            metrics.max_wave.fetch_max(size, Ordering::Relaxed);

            let requests: Vec<QueryRequest> = wave.iter().map(|(req, _)| req.clone()).collect();
            match engine.run_requests(&snapshot, &requests) {
                Ok(results) => {
                    for ((_, reply), result) in wave.into_iter().zip(results) {
                        let result = result.map(|resp| (resp, size)).map_err(|e| {
                            metrics.errors.fetch_add(1, Ordering::Relaxed);
                            (e.code(), e.to_string())
                        });
                        let _ = reply.send(result);
                    }
                }
                Err(e) => {
                    // A wave-level failure (not attributable to one request)
                    // fans out to every member with the same code + message.
                    let code = e.code();
                    let message = e.to_string();
                    metrics.errors.fetch_add(size, Ordering::Relaxed);
                    for (_, reply) in wave {
                        let _ = reply.send(Err((code, message.clone())));
                    }
                }
            }
        }
        if stop_after {
            return;
        }
    }
}

/// The pump loop: take one job and every job already queued behind it,
/// apply them in order, then pump the subscription registry against one
/// fresh snapshot and push the resulting `DELTA` frames. A burst of
/// appends that lands while a pump runs costs one more pump, not one
/// each.
fn pump_loop(
    engine: &QueryEngine,
    archive: &ArchiveStore,
    jobs: &Receiver<PumpJob>,
    metrics: &Metrics,
) {
    let mut registry = SubscriptionRegistry::new();
    let mut sinks: HashMap<u64, Sink> = HashMap::new();
    let mut last_pumped = archive.generation();
    while let Ok(first) = jobs.recv() {
        for job in std::iter::once(first).chain(jobs.try_iter()) {
            match job {
                PumpJob::Subscribe { saql, sink, reply } => {
                    let result = registry
                        .register_saql(&saql)
                        .map(|id| {
                            sinks.insert(id.raw(), sink);
                            metrics.subscriptions.fetch_add(1, Ordering::Relaxed);
                            id.raw()
                        })
                        .map_err(|e| {
                            metrics.errors.fetch_add(1, Ordering::Relaxed);
                            (e.code(), e.to_string())
                        });
                    let _ = reply.send(result);
                }
                PumpJob::Unsubscribe { id, reply } => {
                    let live = registry.unregister(SubscriptionId::from_raw(id));
                    sinks.remove(&id);
                    if live {
                        metrics.subscriptions.fetch_sub(1, Ordering::Relaxed);
                    }
                    let _ = reply.send(Ok(live));
                }
                PumpJob::Moved => {}
                PumpJob::Shutdown => return,
            }
        }
        if registry.is_empty() {
            continue;
        }
        // The dirty set comes from `changed_since(last_pumped)` inside
        // the engine — a wildcard (`None`) re-evaluates everything.
        let snapshot = archive.snapshot();
        match engine.pump_subscriptions(&snapshot, &mut registry, last_pumped) {
            Ok(deltas) => {
                last_pumped = snapshot.generation();
                let current = SnapshotRef::new(snapshot.instance_id(), snapshot.generation());
                let mut dead = Vec::new();
                for (id, delta) in deltas {
                    let Some(sink) = sinks.get(&id.raw()) else { continue };
                    let frame =
                        DeltaFrame { subscription: id.raw(), delta, snapshot: Some(current) };
                    if write_frame(&mut *sink.lock(), &frame.to_wire().render()).is_ok() {
                        metrics.deltas.fetch_add(1, Ordering::Relaxed);
                    } else {
                        dead.push(id);
                    }
                }
                // A sink that refuses writes is a gone session; its
                // subscriptions die with it.
                for id in dead {
                    if registry.unregister(id) {
                        metrics.subscriptions.fetch_sub(1, Ordering::Relaxed);
                    }
                    sinks.remove(&id.raw());
                }
            }
            Err(_) => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Per-connection state: the reader thread's view of one session.
struct Session {
    jobs: Sender<Job>,
    pumps: Sender<PumpJob>,
    writer: Writer,
    stopping: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    archive: ArchiveStore,
    pin: Option<SnapshotRef>,
    /// Subscriptions this session registered, for cleanup on disconnect.
    subs: Vec<u64>,
}

impl Session {
    fn serve(mut self, stream: TcpStream) {
        // Every frame is one write, so Nagle has nothing to coalesce and
        // would only hold replies back until the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(read_half);
        // The write half is shared with the pump, which pushes
        // `DELTA` frames between (or interleaved with) responses; the
        // mutex keeps whole frames atomic on the wire.
        let writer: Sink = Arc::new(Mutex::new(stream));
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let response = match WireRequest::parse(&payload) {
                Ok(request) => self.respond(&request, &writer),
                Err(e) => WireResponse::err(e.code(), &e.to_string()),
            };
            let mut sent = write_frame(&mut *writer.lock(), &response.render());
            if let Err(e @ Error::Protocol(_)) = &sent {
                // An over-cap response is refused before a byte is written,
                // so the stream is still in frame: say so and keep serving.
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let refusal = WireResponse::err(e.code(), &e.to_string());
                sent = write_frame(&mut *writer.lock(), &refusal.render());
            }
            if sent.is_err() {
                break;
            }
        }
        // The socket is closing: drop this session's subscriptions so the
        // pump stops evaluating (and pushing) for a gone peer.
        for id in std::mem::take(&mut self.subs) {
            let (reply, _) = mpsc::sync_channel(1);
            let _ = self.pumps.send(PumpJob::Unsubscribe { id, reply });
        }
    }

    /// The snapshot ref the archive is currently at.
    fn current(&self) -> SnapshotRef {
        SnapshotRef::new(self.archive.instance_id(), self.archive.generation())
    }

    fn respond(&mut self, request: &WireRequest, writer: &Sink) -> WireResponse {
        match request.verb {
            Verb::Query => match request.to_request(self.pin) {
                Ok(req) => match ask(&self.jobs, &self.stopping, |reply| Job::Query { req, reply })
                {
                    Ok((resp, wave)) => WireResponse::from_response(&resp, wave),
                    Err(e) => wire_err(e),
                },
                Err(e) => {
                    self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    WireResponse::err(e.code(), &e.to_string())
                }
            },
            Verb::Ping => WireResponse::ok().with("snapshot", self.current()),
            Verb::Stats => {
                let mut m = self.metrics.snapshot();
                STATS_HEADERS
                    .iter()
                    .fold(WireResponse::ok(), |reply, (key, field)| reply.with(key, *field(&mut m)))
                    .with("snapshot", self.current())
            }
            Verb::Subscribe => {
                let (saql, sink) = (request.body.trim().to_string(), writer.clone());
                match ask(&self.pumps, &self.stopping, |reply| PumpJob::Subscribe {
                    saql,
                    sink,
                    reply,
                }) {
                    Ok(id) => {
                        self.subs.push(id);
                        WireResponse::ok().with("subscription", id)
                    }
                    Err(e) => wire_err(e),
                }
            }
            Verb::Unsubscribe => {
                let id = match request.header("subscription").map(str::parse::<u64>) {
                    Some(Ok(id)) => id,
                    _ => {
                        return WireResponse::err(
                            9,
                            "protocol error: UNSUBSCRIBE needs a numeric `subscription` header",
                        )
                    }
                };
                // Subscription ids are global; a session may only drop its
                // own, so a foreign id never reaches the registry.
                if !self.subs.contains(&id) {
                    return WireResponse::ok().with("known", false);
                }
                match ask(&self.pumps, &self.stopping, |reply| PumpJob::Unsubscribe { id, reply }) {
                    Ok(live) => {
                        self.subs.retain(|&s| s != id);
                        WireResponse::ok().with("known", live)
                    }
                    Err(e) => wire_err(e),
                }
            }
            Verb::Append => {
                let id = match request.header("id").map(str::parse::<u64>) {
                    Some(Ok(id)) => id,
                    _ => {
                        return WireResponse::err(
                            9,
                            "protocol error: APPEND needs a numeric `id` header",
                        )
                    }
                };
                let points = match parse_points(&request.body) {
                    Ok(points) => points,
                    Err(e) => return WireResponse::err(e.code(), &e.to_string()),
                };
                match self.append(id, &points) {
                    Ok((generation, total)) => WireResponse::ok()
                        .with("total", total)
                        .with("snapshot", SnapshotRef::new(self.archive.instance_id(), generation)),
                    Err(e) => wire_err(e),
                }
            }
            Verb::Delta => {
                WireResponse::err(9, "protocol error: DELTA frames are server-push only")
            }
            Verb::Pin => {
                let pin = match request.header("snapshot").map(str::parse::<SnapshotRef>) {
                    Some(Ok(explicit)) => explicit,
                    Some(Err(e)) => return WireResponse::err(e.code(), &e.to_string()),
                    None => self.current(),
                };
                self.pin = Some(pin);
                WireResponse::ok().with("snapshot", pin)
            }
            Verb::Unpin => {
                self.pin = None;
                WireResponse::ok()
            }
            Verb::Shutdown => {
                self.stopping.store(true, Ordering::SeqCst);
                let _ = self.jobs.send(Job::Shutdown);
                WireResponse::ok()
            }
        }
    }

    /// Commits an append on this reader thread, so it never waits
    /// behind a wave, then wakes the pump. The shared writer lock is held
    /// across the commit and the generation read, and the stopping flag
    /// is checked under it (see [`Saqd::shutdown`]).
    fn append(&self, id: u64, points: &[Point]) -> WireResult<(u64, usize)> {
        let committed = {
            let mut archive = self.writer.lock();
            if self.stopping.load(Ordering::SeqCst) {
                return Err(stopping_err());
            }
            archive.try_append_points(id, points).map(|total| (archive.generation(), total))
        };
        match committed {
            Ok(done) => {
                self.metrics.appends.fetch_add(1, Ordering::Relaxed);
                let _ = self.pumps.send(PumpJob::Moved);
                Ok(done)
            }
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Err((e.code(), e.to_string()))
            }
        }
    }
}

/// One round trip to the dispatcher or the pump: refuse while stopping,
/// send the job `build` makes around the reply sender, wait for its
/// answer. A loop that is gone answers like a stopping one.
fn ask<J, T>(
    to: &Sender<J>,
    stopping: &AtomicBool,
    build: impl FnOnce(SyncSender<WireResult<T>>) -> J,
) -> WireResult<T> {
    let (reply, answer) = mpsc::sync_channel(1);
    if stopping.load(Ordering::SeqCst) || to.send(build(reply)).is_err() {
        return Err(stopping_err());
    }
    answer.recv().map_err(|_| stopping_err())?
}

fn stopping_err() -> (u16, String) {
    (9, "protocol error: server is stopping".to_string())
}

fn wire_err((code, message): (u16, String)) -> WireResponse {
    WireResponse::err(code, &message)
}

/// Convenience re-export: the error type everything in this crate
/// returns.
pub use saq_core::Error as ServerError;

#[cfg(test)]
mod tests {
    use super::*;
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    fn demo_archive() -> ArchiveStore {
        let mut archive = ArchiveStore::new(saq_archive::Medium::memory());
        for i in 0..8u64 {
            let seq = match i % 2 {
                0 => goalpost(GoalpostSpec { seed: i, noise: 0.1, ..GoalpostSpec::default() }),
                _ => peaks(PeaksSpec {
                    centers: vec![12.0],
                    seed: i,
                    noise: 0.1,
                    ..PeaksSpec::default()
                }),
            };
            archive.put(i, seq);
        }
        archive
    }

    #[test]
    fn serves_queries_stats_and_pins_over_a_real_socket() {
        let archive = demo_archive();
        let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
        let mut client = SaqClient::connect(server.addr()).unwrap();

        let resp = client.query(&QueryRequest::saql("peaks = 2").with_stats()).unwrap();
        assert_eq!(resp.outcome.exact, vec![0, 2, 4, 6]);
        assert!(resp.stats.unwrap().universe == 8);
        let snap = resp.snapshot.unwrap();
        assert_eq!(client.ping().unwrap(), snap);

        // Pin, advance the archive through a second handle, and watch the
        // pinned session refuse while an unpinned query reads the new data.
        assert_eq!(client.pin().unwrap(), snap);
        let mut writer = archive.clone();
        writer.put(100, goalpost(GoalpostSpec { seed: 99, ..GoalpostSpec::default() }));
        let err = client.query(&QueryRequest::saql("peaks = 2")).unwrap_err();
        assert_eq!(err.code(), 8, "pinned session refuses the moved archive: {err}");
        client.unpin().unwrap();
        let resp = client.query(&QueryRequest::saql("peaks = 2")).unwrap();
        assert_eq!(resp.outcome.exact, vec![0, 2, 4, 6, 100]);

        let stats = client.stats().unwrap();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.errors, 1);
        assert!(stats.connections >= 1);
        server.shutdown();
    }

    #[test]
    fn subscriptions_stream_deltas_as_appends_arrive() {
        let archive = demo_archive();
        let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
        let mut client = SaqClient::connect(server.addr()).unwrap();

        let sub = client.subscribe("peaks = 2").unwrap();
        // The baseline membership arrives as the first pushed frame.
        let frame = client.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!(frame.subscription, sub);
        assert_eq!(frame.delta.entered, vec![0, 2, 4, 6]);
        assert!(frame.delta.left.is_empty());

        // Creating a goalpost by append brings its id into the set.
        let seq = goalpost(GoalpostSpec { seed: 42, ..GoalpostSpec::default() });
        assert_eq!(client.append(50, seq.points()).unwrap(), seq.len());
        let frame = client.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!(frame.subscription, sub);
        assert_eq!(frame.delta.entered, vec![50]);
        assert!(frame.delta.left.is_empty());

        // Ordinary queries interleave with the pushed frames.
        let resp = client.query(&QueryRequest::saql("peaks = 2")).unwrap();
        assert_eq!(resp.outcome.exact, vec![0, 2, 4, 6, 50]);

        // After UNSUBSCRIBE nothing is pushed, even though the archive
        // keeps moving (the query gives the dispatcher a wave to pump on).
        client.unsubscribe(sub).unwrap();
        let mut writer = archive.clone();
        writer.remove(0);
        client.query(&QueryRequest::saql("peaks = 2")).unwrap();
        assert!(client.next_delta_within(Duration::from_millis(200)).unwrap().is_none());

        let stats = client.stats().unwrap();
        assert_eq!(stats.appends, 1);
        assert!(stats.deltas >= 2, "baseline + append delta: {stats:?}");
        server.shutdown();
    }

    #[test]
    fn subscribe_and_append_errors_come_back_as_wire_errors() {
        let server = Saqd::spawn(demo_archive(), SaqdConfig::default()).unwrap();
        let mut client = SaqClient::connect(server.addr()).unwrap();
        let err = client.subscribe("peaks = ").unwrap_err();
        assert_eq!(err.code(), 7, "SAQL parse errors keep their code: {err}");
        // Appending before the stored suffix is a sequence-order error; a
        // rejected append mutates nothing.
        let err = client.append(0, &[saq_sequence::Point::new(0.0, 1.0)]).unwrap_err();
        assert!(err.to_string().contains("increasing"), "{err}");
        let resp = client.query(&QueryRequest::saql("peaks = 2")).unwrap();
        assert_eq!(resp.outcome.exact, vec![0, 2, 4, 6]);
        assert_eq!(client.stats().unwrap().appends, 0);
        server.shutdown();
    }

    #[test]
    fn disconnecting_drops_the_sessions_subscriptions() {
        let archive = demo_archive();
        let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
        let mut subscriber = SaqClient::connect(server.addr()).unwrap();
        subscriber.subscribe("peaks = 2").unwrap();
        subscriber.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();
        drop(subscriber);

        // The reader thread unregisters on disconnect; appends afterwards
        // must not evaluate for (or push to) the gone session.
        let mut client = SaqClient::connect(server.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.stats().unwrap().subscriptions != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.stats().unwrap().subscriptions, 0, "disconnect cleans up");
        let seq = goalpost(GoalpostSpec { seed: 9, ..GoalpostSpec::default() });
        client.append(60, seq.points()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.stats().unwrap().deltas != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.stats().unwrap().deltas, 1, "only the baseline was ever pushed");
        server.shutdown();
    }

    #[test]
    fn unsubscribe_cannot_reach_another_sessions_subscription() {
        let server = Saqd::spawn(demo_archive(), SaqdConfig::default()).unwrap();
        let mut a = SaqClient::connect(server.addr()).unwrap();
        let mut b = SaqClient::connect(server.addr()).unwrap();
        let sub = a.subscribe("peaks = 2").unwrap();
        a.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();

        // Ids are global, so B can name A's subscription — and must get
        // nowhere with it.
        b.unsubscribe(sub).unwrap();
        assert_eq!(b.stats().unwrap().subscriptions, 1, "A's standing query is still live");
        let seq = goalpost(GoalpostSpec { seed: 42, ..GoalpostSpec::default() });
        b.append(50, seq.points()).unwrap();
        let frame = a.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!((frame.subscription, frame.delta.entered), (sub, vec![50]));
        server.shutdown();
    }

    #[test]
    fn a_write_through_another_handle_reaches_subscribers_at_the_next_wave() {
        let archive = demo_archive();
        let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
        let mut client = SaqClient::connect(server.addr()).unwrap();
        let sub = client.subscribe("peaks = 2").unwrap();
        client.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();

        // No APPEND wakes the pump for this write; the wave that first
        // reads its generation does.
        let mut writer = archive.clone();
        writer.put(100, goalpost(GoalpostSpec { seed: 99, ..GoalpostSpec::default() }));
        let resp = client.query(&QueryRequest::saql("peaks = 2")).unwrap();
        assert_eq!(resp.outcome.exact, vec![0, 2, 4, 6, 100]);
        let frame = client.next_delta_within(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!((frame.subscription, frame.delta.entered), (sub, vec![100]));
        server.shutdown();
    }

    #[test]
    fn concurrent_appends_each_reply_with_their_own_generation() {
        let archive = demo_archive();
        let base = archive.generation();
        let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
        let (sessions, appends) = (3u64, 20u64);
        let workers: Vec<_> = (0..sessions)
            .map(|s| {
                let addr = server.addr();
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut generations = Vec::new();
                    for k in 0..appends {
                        let mut request = WireRequest::new(Verb::Append);
                        request.headers.push(("id".into(), (200 + s).to_string()));
                        request.body = protocol::render_points(&[Point::new(k as f64, 1.0)]);
                        write_frame(&mut stream, &request.render()).unwrap();
                        let reply = WireResponse::parse(&read_frame(&mut stream).unwrap().unwrap());
                        let snapshot: SnapshotRef =
                            reply.unwrap().header("snapshot").unwrap().parse().unwrap();
                        generations.push(snapshot.generation);
                    }
                    generations
                })
            })
            .collect();
        let mut generations: Vec<u64> =
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        generations.sort_unstable();
        let expected: Vec<u64> = (base + 1..=base + sessions * appends).collect();
        assert_eq!(generations, expected, "every commit's generation is named exactly once");
        server.shutdown();
    }

    #[test]
    fn saql_errors_reach_the_client_with_carets() {
        let server = Saqd::spawn(demo_archive(), SaqdConfig::default()).unwrap();
        let mut client = SaqClient::connect(server.addr()).unwrap();
        let err = client.query(&QueryRequest::saql("peaks == 2")).unwrap_err();
        assert_eq!(err.code(), 7, "{err}");
        assert!(err.to_string().contains('^'), "caret survives the wire: {err}");
        server.shutdown();
    }
}
