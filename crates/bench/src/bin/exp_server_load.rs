//! `saqd` under concurrent load: what batch coalescing buys a shared
//! server.
//!
//! The paper's archive is slow and shared; the clients are many. This
//! experiment stands up two real `saqd` instances over TCP on the same
//! archive handle — one with a zero-width wave window (every query is
//! its own dispatch, the serial baseline) and one that coalesces up to
//! `clients` queries per wave — then drives both with the same workload:
//! `rounds` synchronized bursts of one query per client. Feature leaves
//! read the archive's resident documents and fetch nothing; value bands
//! compare raw samples, so half the clients ask for bands. Serially, each
//! band query pays its own pass over the archive; a coalesced wave pays
//! one pass for the whole burst and every answer in it reads one
//! snapshot.
//!
//! Reported per mode: wall-clock queries/sec, p50/p99 round-trip
//! latency, archive fetches per query, and the server's own
//! queries-per-wave counter. The headline is *amortization*: serial
//! fetches-per-query divided by coalesced fetches-per-query.
//!
//! Environment knobs (CI smoke-runs cap these):
//! * `SAQ_EXP_SEQUENCES` — archive size (default 48)
//! * `SAQ_EXP_CLIENTS` — concurrent client connections (default 6, min 4)
//! * `SAQ_EXP_ROUNDS` — synchronized bursts per mode (default 8)
//! * `SAQ_EXP_MIN_AMORTIZATION` — asserted fetch-amortization floor
//!   (default 2.0; the mechanism typically lands near the client count)
//! * `SAQ_EXP_MAX_P99_MS` — opt-in p99 latency ceiling in milliseconds
//!   for the *coalesced* mode (unset by default: wall-clock floors are
//!   machine-dependent, so CI opts in with a generous bound)
//!
//! Asserts identical outcomes in both modes and the amortization floor
//! (re-measured once before failing, as with the other experiments).

use saq_archive::{ArchiveStore, Medium};
use saq_bench::{banner, env_f64, env_usize, fnum};
use saq_core::algebra::QueryExpr;
use saq_core::{QueryOutcome, QueryRequest};
use saq_engine::EngineConfig;
use saq_sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq_server::{SaqClient, Saqd, SaqdConfig};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn main() {
    banner("exp_server_load", "saqd: wave coalescing vs serial dispatch under client load");

    let sequences = env_usize("SAQ_EXP_SEQUENCES", 48);
    let clients = env_usize("SAQ_EXP_CLIENTS", 6).max(4);
    let rounds = env_usize("SAQ_EXP_ROUNDS", 8).max(1);
    let floor = env_f64("SAQ_EXP_MIN_AMORTIZATION", 2.0);

    let mut archive = ArchiveStore::new(Medium::memory());
    for i in 0..sequences as u64 {
        let seq = match i % 4 {
            0 => goalpost(GoalpostSpec { seed: i, noise: 0.12, ..GoalpostSpec::default() }),
            1 => peaks(PeaksSpec {
                centers: vec![5.0, 12.0, 19.0],
                seed: i,
                noise: 0.1,
                ..PeaksSpec::default()
            }),
            2 => peaks(PeaksSpec {
                centers: vec![12.0],
                seed: i,
                noise: 0.2,
                ..PeaksSpec::default()
            }),
            _ => random_walk(49, 0.0, 0.25, i),
        };
        archive.put(i, seq);
    }
    println!(
        "archive: {sequences} sequences · {clients} clients × {rounds} rounds \
         · {} band queries per burst\n",
        (0..clients).filter(|&c| c % 2 == 0).count()
    );

    let serial = run_mode(&archive, clients, rounds, Duration::ZERO);
    let coalesced = run_mode(&archive, clients, rounds, Duration::from_millis(200));
    assert_eq!(serial.outcomes, coalesced.outcomes, "both modes must return identical results");

    println!("mode       queries/s      p50        p99   fetches/query   queries/wave");
    for (name, m) in [("serial", &serial), ("coalesced", &coalesced)] {
        println!(
            "{name:<9} {:>10} {:>8} {:>10} {:>15} {:>14}",
            fnum(m.qps),
            format!("{:.1}ms", m.p50 * 1e3),
            format!("{:.1}ms", m.p99 * 1e3),
            format!("{:.2}", m.fetches_per_query),
            format!("{:.2}", m.queries_per_wave),
        );
    }

    let mut amortization = serial.fetches_per_query / coalesced.fetches_per_query.max(1e-9);
    println!("\nfetch amortization (serial / coalesced): {:.2}×", amortization);
    if amortization < floor {
        // One re-measure before failing: a loaded CI box can smear the
        // first run's wave formation.
        let serial = run_mode(&archive, clients, rounds, Duration::ZERO);
        let coalesced = run_mode(&archive, clients, rounds, Duration::from_millis(200));
        amortization = serial.fetches_per_query / coalesced.fetches_per_query.max(1e-9);
        println!("re-measured amortization: {amortization:.2}×");
    }
    assert!(amortization >= floor, "coalescing amortized only {amortization:.2}× (floor {floor}×)");
    if let Ok(ceiling) = std::env::var("SAQ_EXP_MAX_P99_MS") {
        let ceiling: f64 = ceiling.parse().expect("SAQ_EXP_MAX_P99_MS must be a number");
        let p99_ms = coalesced.p99 * 1e3;
        assert!(
            p99_ms <= ceiling,
            "coalesced p99 {p99_ms:.1}ms exceeds the SAQ_EXP_MAX_P99_MS ceiling {ceiling}ms"
        );
        println!("p99 ceiling honored: {p99_ms:.1}ms <= {ceiling}ms");
    }
    println!(
        "\ncoalescing {} queries per wave cut archive fetches {:.1}× — one snapshot,\n\
         one sharded pass, every client in the burst served from it.",
        fnum(coalesced.queries_per_wave),
        amortization
    );
}

/// Queries rotated across clients, with distinct predicates (no leaf
/// dedup windfall). Every even client asks for a value band around one
/// goalpost — the leaf that fetches, one pass over the archive each —
/// and the odd ones for features, which read documents.
fn query_for(client: usize) -> QueryRequest {
    match client % 4 {
        0 | 2 => QueryRequest::expr(QueryExpr::value_band(
            goalpost(GoalpostSpec::default()),
            0.5 + client as f64 * 0.25,
            0.5,
        )),
        1 => QueryRequest::saql("peaks = 2 tol 1"),
        _ => QueryRequest::saql("peaks = 1 tol 0 and steepness any >= 0.3 slack 0.2"),
    }
}

struct ModeReport {
    qps: f64,
    p50: f64,
    p99: f64,
    fetches_per_query: f64,
    queries_per_wave: f64,
    outcomes: Vec<QueryOutcome>,
}

/// Stands up a fresh server (fresh engine) on the shared
/// archive and drives `rounds` synchronized bursts of one query per
/// client, measuring per-query round trips and the archive's fetch
/// counter across the whole run.
fn run_mode(archive: &ArchiveStore, clients: usize, rounds: usize, window: Duration) -> ModeReport {
    let server = Saqd::spawn(
        archive.clone(),
        SaqdConfig {
            max_wave: clients,
            wave_window: window,
            engine: EngineConfig { workers: 2, shards: 4 },
            ..SaqdConfig::default()
        },
    )
    .unwrap();

    let fetches_before = archive.fetch_count();
    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = server.addr();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = SaqClient::connect(addr).unwrap();
                let req = query_for(c);
                let mut latencies = Vec::with_capacity(rounds);
                let mut outcome = None;
                for _ in 0..rounds {
                    // The barrier lines every round up into one burst —
                    // the arrival pattern a shared server actually sees.
                    barrier.wait();
                    let t = Instant::now();
                    let resp = client.query(&req).unwrap();
                    latencies.push(t.elapsed().as_secs_f64());
                    outcome = Some(resp.outcome);
                }
                (c, outcome.unwrap(), latencies)
            })
        })
        .collect();
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let fetches = (archive.fetch_count() - fetches_before) as f64;
    let stats = server.metrics();
    server.shutdown();

    results.sort_by_key(|(c, _, _)| *c);
    let outcomes = results.iter().map(|(_, outcome, _)| outcome.clone()).collect();
    let mut latencies: Vec<f64> = results.iter().flat_map(|(_, _, l)| l.iter().copied()).collect();
    latencies.sort_by(f64::total_cmp);
    let total = (clients * rounds) as f64;
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    ModeReport {
        qps: total / wall,
        p50: pct(0.5),
        p99: pct(0.99),
        fetches_per_query: fetches / total,
        queries_per_wave: stats.queries as f64 / stats.waves.max(1) as f64,
        outcomes,
    }
}
