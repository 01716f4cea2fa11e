//! The socket phase: closed-loop clients against an in-process `saqd`,
//! every reply checked against the oracle afterwards.
//!
//! Connections: the workload's analysts (alternating scan and index
//! queries), one feeder (three appends, then a query) and one watcher
//! holding the standing queries. Exactly one connection appends at a time
//! — the watcher's two marker appends bracket the feeder's — so the k-th
//! acknowledged append is generation `base + k`, and a reply stamped with
//! generation `g` must equal the oracle after `g - base` appends.

use crate::gen::{self, Class, Op, Query, Rng, Role};
use crate::lifecycle::Served;
use crate::oracle::{digest, Oracle};
use saq_archive::{ArchiveScanEngine, ArchiveSnapshot, ArchiveStore, Medium};
use saq_core::algebra::QueryEngine as _;
use saq_core::{QueryRequest, StoreConfig};
use saq_sequence::Point;
use saq_server::{DeltaFrame, MetricsSnapshot, SaqClient};
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A generated query must select something, and less than this share.
const MAX_SELECTIVITY: f64 = 0.6;
/// Least time between two sends on one connection. Far below today's
/// round trip, so the loop is closed; it caps a connection at 50
/// operations a second, which keeps a run's operation count — and the
/// oracle's work — bounded however fast the server becomes.
const PACE: Duration = Duration::from_millis(20);
/// Think time: a client waits up to this long, at random, after each
/// reply. Closed-loop clients of one dispatcher otherwise lock into a
/// fixed phase pattern that differs from run to run and does not average
/// out within one.
const THINK: Duration = Duration::from_millis(20);
/// How long the watcher waits for a marker's `DELTA` before giving up.
const MARKER_TIMEOUT: Duration = Duration::from_secs(30);

pub struct ServePlan {
    pub seed: u64,
    pub sequences: usize,
    pub analysts: usize,
    pub warmup: Duration,
    pub timed: Duration,
    /// Make the oracle wrong about one query (the failure-path test).
    pub corrupt_oracle: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    Scan,
    Index,
    Append,
}

/// One operation that ran wholly inside the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub class: OpClass,
    /// Seconds from the start of the timed phase to the send.
    pub at: f64,
    pub ms: f64,
}

/// Counter movements over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounters {
    pub queries: u64,
    pub waves: u64,
    pub appends: u64,
    pub deltas: u64,
    pub errors: u64,
    pub fetches: u64,
    /// Compactions observed: times the WAL record count fell.
    pub compactions: u64,
}

#[derive(Default)]
pub struct ServeReport {
    pub timed: Vec<Timed>,
    /// `(at, ms)`: feeder's send of an append to the watcher's receipt of
    /// the `DELTA` naming the appended id.
    pub delta_lags: Vec<(f64, f64)>,
    pub counters: PhaseCounters,
    /// Operations and checks attempted, and what the failed ones found.
    pub attempted: u64,
    pub failures: Vec<String>,
}

struct QueryRec {
    query: usize,
    sent: Instant,
    done: Instant,
    /// Digest of the outcome and the generation it was answered at.
    reply: Result<(u64, u64), String>,
}

struct AppendRec {
    id: u64,
    points: Vec<Point>,
    sent: Instant,
    done: Instant,
    /// The acknowledged total length.
    reply: Result<usize, String>,
}

#[derive(Default)]
struct ClientLog {
    queries: Vec<QueryRec>,
    appends: Vec<AppendRec>,
}

/// The accepted queries of each class, as indices into the oracle's list.
struct Pool {
    scan: Vec<usize>,
    index: Vec<usize>,
}

impl Pool {
    fn pick(&self, class: Class, pick: u32) -> usize {
        let of_class = match class {
            Class::Scan => &self.scan,
            Class::Index => &self.index,
        };
        of_class[pick as usize % of_class.len()]
    }
}

fn marker_query(id: u64) -> Query {
    Query {
        saql: format!("id in [{id}..{id}]"),
        class: Class::Index,
        confined: Some((id, id)),
        ranked: false,
    }
}

fn marker_points() -> Vec<Point> {
    (0..4).map(|i| Point::new(f64::from(i), 0.0)).collect()
}

/// How many ids of `base` a query selects, by the reference engine.
fn selected(base: &ArchiveSnapshot, config: StoreConfig, saql: &str) -> usize {
    ArchiveScanEngine::pinned(base.clone(), config)
        .request(&QueryRequest::saql(saql))
        .map_or(0, |resp| resp.ids().len())
}

/// Draws one query per template of each class that selects something but
/// under 60 % — judged on a 384-id prefix (the same kind mix as the whole
/// archive), or on its band when confined to one.
pub fn draw_queries(base: &ArchiveSnapshot, config: StoreConfig, seed: u64, n: u64) -> Vec<Query> {
    let mut sample = ArchiveStore::new(Medium::memory());
    let prefix = base.ids().iter().take(384);
    sample.put_batch(prefix.filter_map(|&id| Some((id, base.get(id)?.clone()))).collect());
    let sample = sample.snapshot();
    let mut rng = Rng::lane(seed, 0x9001);
    let mut accepted: Vec<Query> = Vec::new();
    for class in [Class::Scan, Class::Index] {
        for template in 0..gen::templates(class) {
            for _ in 0..100 {
                let query = gen::candidate(&mut rng, class, template, n);
                let ok = match query.confined {
                    Some(_) => selected(base, config, &query.saql) > 0,
                    None => {
                        let share =
                            selected(&sample, config, &query.saql) as f64 / sample.len() as f64;
                        share > 0.0 && share < MAX_SELECTIVITY - 0.05
                    }
                };
                if ok {
                    accepted.push(query);
                    break;
                }
            }
        }
    }
    accepted
}

fn run_query(client: &mut SaqClient, oracle_ix: usize, saql: &str, log: &mut ClientLog) {
    let sent = Instant::now();
    let reply = client.query(&QueryRequest::saql(saql));
    let done = Instant::now();
    let reply = reply.map_err(|e| e.to_string()).and_then(|resp| {
        let generation = resp.snapshot.ok_or("reply carries no snapshot")?.generation;
        Ok((digest(&resp.outcome), generation))
    });
    log.queries.push(QueryRec { query: oracle_ix, sent, done, reply });
}

/// One analyst or feeder connection, closed loop until `until`.
fn client_loop(
    addr: SocketAddr,
    think_seed: u64,
    script: Vec<Op>,
    queries: Arc<Vec<Query>>,
    pool: Arc<Pool>,
    base: ArchiveSnapshot,
    until: Instant,
) -> Result<ClientLog, String> {
    let mut client = SaqClient::connect(addr).map_err(|e| e.to_string())?;
    let mut log = ClientLog::default();
    // Where each appended id's sequence ends now.
    let mut tails: HashMap<u64, (Point, f64)> = HashMap::new();
    let mut next_send = Instant::now();
    let mut think = Rng::lane(think_seed, 0x7417);
    for op in script.iter().cycle() {
        let thought = Instant::now() + THINK.mul_f64(think.range(0.0, 1.0));
        std::thread::sleep(next_send.max(thought).saturating_duration_since(Instant::now()));
        if Instant::now() >= until {
            break;
        }
        next_send = Instant::now() + PACE;
        match op {
            Op::Query { class, pick } => {
                let ix = pool.pick(*class, *pick);
                run_query(&mut client, ix, &queries[ix].saql, &mut log);
            }
            Op::Append { id, points, amp } => {
                let (last, dt) = *tails.entry(*id).or_insert_with(|| {
                    let seq = base.get(*id).expect("scripts append to corpus ids");
                    (*seq.last().expect("corpus sequences are non-empty"), gen::spacing(seq))
                });
                let tail = gen::spike_tail(last, dt, *points, *amp);
                let sent = Instant::now();
                let reply = client.append(*id, &tail);
                let done = Instant::now();
                if reply.is_ok() {
                    tails.insert(*id, (*tail.last().expect("tails are non-empty"), dt));
                }
                let reply = reply.map_err(|e| e.to_string());
                log.appends.push(AppendRec { id: *id, points: tail, sent, done, reply });
            }
        }
    }
    Ok(log)
}

/// Appends the marker sequence at `id` and reads pushed frames until the
/// marker's own subscription reports it.
fn await_marker(
    client: &mut SaqClient,
    id: u64,
    subscription: u64,
    frames: &mut Vec<(Instant, DeltaFrame)>,
) -> Result<(), String> {
    client.append(id, &marker_points()).map_err(|e| format!("marker append: {e}"))?;
    let deadline = Instant::now() + MARKER_TIMEOUT;
    while Instant::now() < deadline {
        let Some(frame) =
            client.next_delta_within(Duration::from_millis(200)).map_err(|e| e.to_string())?
        else {
            continue;
        };
        let seen = frame.subscription == subscription;
        frames.push((Instant::now(), frame));
        if seen {
            return Ok(());
        }
    }
    Err(format!("no DELTA for marker id {id} within {MARKER_TIMEOUT:?}"))
}

/// Runs the socket phase on `served`, then shuts it down, reopens `dir`
/// and checks that every acknowledged write is there.
pub fn serve(
    served: Served,
    dir: &std::path::Path,
    plan: &ServePlan,
) -> Result<ServeReport, String> {
    let Served { archive, server } = served;
    let addr = server.addr();
    let n = plan.sequences as u64;
    let config = StoreConfig::default();
    let mut report = ServeReport::default();

    // The watcher registers its standing queries, then the first marker
    // append proves every baseline has been pushed.
    let mut watcher = SaqClient::connect(addr).map_err(|e| e.to_string())?;
    let mut standing = gen::subscriptions(n);
    standing.extend([marker_query(n), marker_query(n + 1)]);
    let mut subscription_ids = Vec::new();
    for sub in &standing {
        subscription_ids.push(watcher.subscribe(&sub.saql).map_err(|e| e.to_string())?);
    }
    let mut frames: Vec<(Instant, DeltaFrame)> = Vec::new();
    await_marker(&mut watcher, n, subscription_ids[standing.len() - 2], &mut frames)?;

    let base = archive.snapshot();
    let base_generation = base.generation();
    let mut tracked = draw_queries(&base, config, plan.seed, n);
    let drawn = tracked.len();
    tracked.extend(standing.iter().cloned());
    let mut oracle = Oracle::new(base.clone(), config, tracked);
    // The full scan has the last word on selectivity.
    let keep: Vec<bool> = (0..oracle.queries().len())
        .map(|ix| {
            let whole_archive = oracle.queries()[ix].confined.is_none();
            let share = oracle.base_len(ix) as f64 / base.len() as f64;
            ix >= drawn || (oracle.base_len(ix) > 0 && !(whole_archive && share >= MAX_SELECTIVITY))
        })
        .collect();
    oracle.retain(&keep);
    let pooled = keep[..drawn].iter().filter(|k| **k).count();
    let of_class = |class| {
        (0..pooled).filter(|&ix| oracle.queries()[ix].class == class).collect::<Vec<usize>>()
    };
    let pool = Arc::new(Pool { scan: of_class(Class::Scan), index: of_class(Class::Index) });
    if pool.scan.is_empty() || pool.index.is_empty() {
        return Err("the generator produced no usable query for a class".into());
    }
    if plan.corrupt_oracle {
        oracle.corrupt(pool.scan[0]);
    }
    let queries = Arc::new(oracle.queries().to_vec());

    // Timed phase.
    let start = Instant::now();
    let timed_from = start + plan.warmup;
    let until = timed_from + plan.timed;
    let stop_watching = Arc::new(AtomicBool::new(false));
    let script_len = 4096;
    let mut clients = Vec::new();
    for lane in 0..=plan.analysts as u64 {
        let role = if lane < plan.analysts as u64 { Role::Analyst } else { Role::Feeder };
        let script = gen::script(plan.seed, lane, role, n, script_len);
        let think_seed = plan.seed ^ (lane << 32);
        let (queries, pool, base) = (queries.clone(), pool.clone(), base.clone());
        clients.push(std::thread::spawn(move || {
            client_loop(addr, think_seed, script, queries, pool, base, until)
        }));
    }
    let watching = {
        let stop = stop_watching.clone();
        let end_marker = subscription_ids[standing.len() - 1];
        std::thread::spawn(move || {
            let mut outcome = Ok(());
            while !stop.load(Ordering::SeqCst) {
                match watcher.next_delta_within(Duration::from_millis(50)) {
                    Ok(Some(frame)) => frames.push((Instant::now(), frame)),
                    Ok(None) => {}
                    Err(e) => {
                        outcome = Err(e.to_string());
                        break;
                    }
                }
            }
            // Frames reach one session in pump order, so the end marker's
            // delta is the last thing the run can have pushed.
            let outcome =
                outcome.and_then(|()| await_marker(&mut watcher, n + 1, end_marker, &mut frames));
            (frames, outcome)
        })
    };

    std::thread::sleep(timed_from.saturating_duration_since(Instant::now()));
    let (metrics_from, fetches_from) = (server.metrics(), archive.fetch_count());
    let mut wal_records = archive.wal_records();
    let mut compactions = 0;
    while Instant::now() < until {
        std::thread::sleep(Duration::from_millis(20));
        let now = archive.wal_records();
        compactions += u64::from(now < wal_records);
        wal_records = now;
    }
    let (metrics_to, fetches_to) = (server.metrics(), archive.fetch_count());
    report.counters =
        phase_counters(metrics_from, metrics_to, fetches_to - fetches_from, compactions);

    let mut log = ClientLog::default();
    for client in clients {
        match client.join().map_err(|_| "a client thread panicked".to_string())? {
            Ok(one) => {
                log.queries.extend(one.queries);
                log.appends.extend(one.appends);
            }
            Err(e) => report.failures.push(format!("client connection: {e}")),
        }
    }
    stop_watching.store(true, Ordering::SeqCst);
    let (frames, watched) =
        watching.join().map_err(|_| "the watcher thread panicked".to_string())?;
    report.attempted += 1;
    if let Err(e) = watched {
        report.failures.push(format!("watcher: {e}"));
    }

    // Failure accounting, in generation order.
    report.attempted += (log.queries.len() + log.appends.len()) as u64;
    let appends: Vec<&AppendRec> = log
        .appends
        .iter()
        .filter(|a| match &a.reply {
            Ok(_) => true,
            Err(e) => {
                report.failures.push(format!("append to {}: {e}", a.id));
                false
            }
        })
        .collect();
    let mut answered: Vec<(&QueryRec, u64, u64)> = Vec::new();
    for rec in &log.queries {
        match &rec.reply {
            Ok((digest, generation)) => answered.push((rec, *digest, *generation)),
            Err(e) => report.failures.push(format!("query `{}`: {e}", queries[rec.query].saql)),
        }
    }
    answered.sort_by_key(|(_, _, generation)| *generation);
    let mut applied = 0usize;
    for (rec, got, generation) in answered {
        let wanted = generation.saturating_sub(base_generation) as usize;
        if generation < base_generation || wanted > appends.len() {
            report.failures.push(format!("reply at generation {generation} outside the run"));
            continue;
        }
        for append in &appends[applied..wanted.max(applied)] {
            apply(&mut oracle, &mut report, append);
        }
        applied = wanted.max(applied);
        if digest(&oracle.expected(rec.query)) != got {
            let saql = &queries[rec.query].saql;
            report
                .failures
                .push(format!("`{saql}` at generation {generation} disagrees with the oracle"));
        }
    }
    for append in &appends[applied..] {
        apply(&mut oracle, &mut report, append);
    }
    oracle.apply_append(n + 1, &marker_points());

    // Each subscription's accumulated membership against a fresh answer.
    let mut members: HashMap<u64, BTreeSet<u64>> = HashMap::new();
    for (_, frame) in &frames {
        let set = members.entry(frame.subscription).or_default();
        set.extend(&frame.delta.entered);
        frame.delta.left.iter().for_each(|id| {
            set.remove(id);
        });
    }
    for (i, sub) in standing.iter().enumerate() {
        report.attempted += 1;
        let held: Vec<u64> =
            members.remove(&subscription_ids[i]).unwrap_or_default().into_iter().collect();
        if held != oracle.expected_members(pooled + i) {
            report.failures.push(format!("subscription `{}` drifted from a fresh run", sub.saql));
        }
    }

    // Delta lag: the append a frame reports is the latest one to any of
    // its ids at or before the frame's generation.
    for (received, frame) in &frames {
        let Some(snapshot) = frame.snapshot else { continue };
        let upto =
            (snapshot.generation.saturating_sub(base_generation) as usize).min(appends.len());
        let named = |a: &&&AppendRec| {
            frame.delta.entered.contains(&a.id) || frame.delta.left.contains(&a.id)
        };
        if let Some(append) = appends[..upto].iter().rev().find(named) {
            if append.sent >= timed_from && *received <= until {
                let at = append.sent.duration_since(timed_from).as_secs_f64();
                report
                    .delta_lags
                    .push((at, received.duration_since(append.sent).as_secs_f64() * 1e3));
            }
        }
    }

    for rec in &log.queries {
        if rec.reply.is_ok() && rec.sent >= timed_from && rec.done <= until {
            let class = match queries[rec.query].class {
                Class::Scan => OpClass::Scan,
                Class::Index => OpClass::Index,
            };
            report.timed.push(timed(class, rec.sent, rec.done, timed_from));
        }
    }
    for rec in &appends {
        if rec.sent >= timed_from && rec.done <= until {
            report.timed.push(timed(OpClass::Append, rec.sent, rec.done, timed_from));
        }
    }

    // Clean shutdown, then recovery from the directory alone.
    report.attempted += 1;
    let final_generation = base_generation + appends.len() as u64 + 1;
    if archive.generation() != final_generation {
        report.failures.push(format!(
            "archive ended at generation {}, acknowledged {final_generation}",
            archive.generation()
        ));
    }
    server.shutdown();
    drop((archive, base));
    let reopened =
        crate::lifecycle::open_dir(dir, Default::default()).map_err(|e| e.to_string())?;
    report.attempted += 1;
    if reopened.generation() != final_generation {
        report.failures.push(format!(
            "reopen recovered generation {}, acknowledged {final_generation}",
            reopened.generation()
        ));
    }
    for id in oracle.appended_ids() {
        report.attempted += 1;
        let recovered = reopened.get(id).map_or(0, |seq| seq.len());
        if recovered != oracle.len_of(id) {
            report.failures.push(format!(
                "reopen recovered {recovered} points of feed {id}, acknowledged {}",
                oracle.len_of(id)
            ));
        }
    }
    if report.counters.errors > 0 {
        report.failures.push(format!("server counted {} errors", report.counters.errors));
    }
    Ok(report)
}

/// Folds one acknowledged append into the oracle and checks the total
/// length the server acknowledged for it.
fn apply(oracle: &mut Oracle, report: &mut ServeReport, append: &AppendRec) {
    oracle.apply_append(append.id, &append.points);
    if append.reply.as_ref().ok() != Some(&oracle.len_of(append.id)) {
        report.failures.push(format!("append to {} acknowledged {:?}", append.id, append.reply));
    }
}

fn timed(class: OpClass, sent: Instant, done: Instant, from: Instant) -> Timed {
    Timed {
        class,
        at: sent.duration_since(from).as_secs_f64(),
        ms: done.duration_since(sent).as_secs_f64() * 1e3,
    }
}

fn phase_counters(
    from: MetricsSnapshot,
    to: MetricsSnapshot,
    fetches: u64,
    compactions: u64,
) -> PhaseCounters {
    PhaseCounters {
        queries: to.queries - from.queries,
        waves: to.waves - from.waves,
        appends: to.appends - from.appends,
        deltas: to.deltas - from.deltas,
        errors: to.errors - from.errors,
        fetches,
        compactions,
    }
}
