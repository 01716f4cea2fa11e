//! End-to-end `saqd` coverage over real sockets: N concurrent clients,
//! one coalesced dispatch wave, snapshot-pinned sessions racing a live
//! writer, and the wire protocol's stable error codes.
//!
//! Determinism: the coalescing assertions use `max_wave = N` plus a wave
//! window far wider than thread-startup jitter, so the dispatcher
//! provably holds the wave open until all N in-flight queries join it —
//! the test never depends on lucky timing.

use saq::archive::{ArchiveScanEngine, ArchiveStore, Medium};
use saq::core::algebra::{QueryEngine as _, QueryExpr};
use saq::core::store::StoreConfig;
use saq::core::QueryRequest;
use saq::engine::EngineConfig;
use saq::sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq::server::protocol::{read_frame, write_frame};
use saq::server::{SaqClient, Saqd, SaqdConfig};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A mixed 24-sequence archive: goalposts, spike trains, random walks.
fn corpus() -> ArchiveStore {
    let mut archive = ArchiveStore::new(Medium::memory());
    for i in 0..24u64 {
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
    archive
}

/// Six scan-heavy feature queries: distinct predicates, answered from the
/// archive's documents.
const QUERIES: [&str; 6] = [
    "steepness all >= 0.15 slack 0.1",
    "steepness all >= 0.2 slack 0.1",
    "steepness any >= 0.8 slack 0.2",
    "peaks = 2 tol 1",
    "peaks = 1 tol 0 and steepness any >= 0.3 slack 0.2",
    "not peaks = 3 tol 0",
];

/// Six value-band queries, one per client: distinct envelopes around
/// one goalpost, so the wave shares fetches (one pass over the archive)
/// without sharing leaf results. Band is the only leaf that fetches raw
/// samples; feature leaves read the archive's documents.
fn band_queries() -> Vec<QueryRequest> {
    let center = goalpost(GoalpostSpec::default());
    [(0.5, 0.0), (1.0, 0.5), (1.5, 0.5), (2.0, 1.0), (3.0, 0.2), (4.0, 1.0)]
        .map(|(delta, slack)| {
            QueryRequest::expr(QueryExpr::value_band(center.clone(), delta, slack))
        })
        .into()
}

/// A small pool: two workers over four shards.
fn small_engine() -> EngineConfig {
    EngineConfig { workers: 2, shards: 4 }
}

#[test]
fn one_coalesced_wave_answers_all_clients_with_fewer_fetches_than_serial() {
    let archive = corpus();
    let queries = band_queries();
    let n_clients = queries.len();
    let n_seqs = archive.len() as u64;

    // Phase 1 — coalesced: all clients fire inside one wide-open wave.
    let server = Saqd::spawn(
        archive.clone(),
        SaqdConfig {
            max_wave: n_clients,
            wave_window: Duration::from_secs(5),
            engine: small_engine(),
            ..SaqdConfig::default()
        },
    )
    .unwrap();
    let fetches_before = archive.fetch_count();
    let barrier = Arc::new(Barrier::new(n_clients));
    let handles: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(text, request)| {
            let addr = server.addr();
            let barrier = barrier.clone();
            let request = request.clone().with_stats();
            std::thread::spawn(move || {
                let mut client = SaqClient::connect(addr).unwrap();
                barrier.wait();
                let resp = client.query(&request).unwrap();
                (text, resp, client.last_wave())
            })
        })
        .collect();
    let answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wave_fetches = archive.fetch_count() - fetches_before;

    // Every client was served by the same full wave, off one snapshot.
    let snapshot = answers[0].1.snapshot.unwrap();
    for (text, resp, wave) in &answers {
        assert_eq!(*wave, n_clients as u64, "`{text}` missed the wave");
        assert_eq!(resp.snapshot.unwrap(), snapshot, "`{text}` ran off another snapshot");
    }
    let metrics = server.metrics();
    assert_eq!(metrics.waves, 1, "one dispatch wave for the whole burst");
    assert_eq!(metrics.queries, n_clients as u64);
    assert_eq!(metrics.max_wave, n_clients as u64);
    assert_eq!(wave_fetches, n_seqs, "the wave pays one fetch per archived sequence");

    // Per-snapshot oracle: the sequential scan engine, pinned to the
    // snapshot the server reported, must agree hit for hit.
    let oracle = ArchiveScanEngine::pinned(archive.snapshot(), StoreConfig::default());
    for (text, resp, _) in &answers {
        let expected = oracle.request(&queries[*text]).unwrap();
        assert_eq!(resp.outcome, expected.outcome, "oracle disagrees on `{text}`");
    }
    server.shutdown();

    // Phase 2 — serial: a zero-width window turns coalescing off, and the
    // same six queries each pay their own thrashed pass over the archive.
    let serial = Saqd::spawn(
        archive.clone(),
        SaqdConfig {
            max_wave: n_clients,
            wave_window: Duration::ZERO,
            engine: small_engine(),
            ..SaqdConfig::default()
        },
    )
    .unwrap();
    let fetches_before = archive.fetch_count();
    let mut client = SaqClient::connect(serial.addr()).unwrap();
    for (text, request) in queries.iter().enumerate() {
        let resp = client.query(request).unwrap();
        assert_eq!(client.last_wave(), 1, "zero window must not coalesce");
        let expected = oracle.request(request).unwrap();
        assert_eq!(resp.outcome, expected.outcome, "serial result drifted on `{text}`");
    }
    let serial_fetches = archive.fetch_count() - fetches_before;
    assert_eq!(serial.metrics().waves, n_clients as u64);
    assert!(
        serial_fetches >= 3 * wave_fetches,
        "coalescing should amortize fetches: serial {serial_fetches} vs wave {wave_fetches}"
    );
    serial.shutdown();
}

#[test]
fn pinned_sessions_refuse_a_moved_archive_over_the_wire() {
    let archive = corpus();
    let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
    let mut client = SaqClient::connect(server.addr()).unwrap();

    let pinned_at = client.pin().unwrap();
    let before = client.query(&QueryRequest::saql("peaks = 2 tol 0")).unwrap();
    assert_eq!(before.snapshot.unwrap(), pinned_at);

    // A writer advances the archive through its own handle mid-session.
    let mut writer = archive.clone();
    writer.put(1000, goalpost(GoalpostSpec { seed: 424_242, ..GoalpostSpec::default() }));

    let err = client.query(&QueryRequest::saql("peaks = 2 tol 0")).unwrap_err();
    assert_eq!(err.code(), 8, "stale pin must refuse, not answer: {err}");
    assert!(err.to_string().contains("snapshot mismatch"), "{err}");

    // Unpinned, the same session reads the new generation; an explicit
    // per-request pin at the stale ref still refuses.
    client.unpin().unwrap();
    let after = client.query(&QueryRequest::saql("peaks = 2 tol 0")).unwrap();
    assert!(after.outcome.exact.contains(&1000), "unpinned reads the writer's insert");
    let err = client.query(&QueryRequest::saql("peaks = 2 tol 0").pinned(pinned_at)).unwrap_err();
    assert_eq!(err.code(), 8, "{err}");

    // pin_at re-pins across sessions: a new connection pinned to the
    // current ref keeps answering it.
    let current = after.snapshot.unwrap();
    let mut other = SaqClient::connect(server.addr()).unwrap();
    assert_eq!(other.pin_at(current).unwrap(), current);
    assert_eq!(other.query(&QueryRequest::saql("peaks = 2 tol 0")).unwrap().outcome, after.outcome);
    server.shutdown();
}

#[test]
fn wire_errors_carry_stable_codes_and_caret_diagnostics() {
    let server = Saqd::spawn(corpus(), SaqdConfig::default()).unwrap();

    // SAQL typos come back as code 7 with the caret rendering intact.
    let mut client = SaqClient::connect(server.addr()).unwrap();
    let err = client.query(&QueryRequest::saql("peaks == 2")).unwrap_err();
    assert_eq!(err.code(), 7);
    assert!(err.to_string().contains('^'), "caret diagnostic lost: {err}");

    // Unknown verbs and malformed payloads are protocol errors (code 9),
    // spoken raw so the framing itself is exercised.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for garbage in ["BOGUS SAQP/1\n\nhello", "no verb line here"] {
        write_frame(&mut writer, garbage).unwrap();
        let reply = read_frame(&mut reader).unwrap().unwrap();
        let first = reply.lines().next().unwrap();
        assert_eq!(first, "ERR SAQP/1", "raw reply: {reply}");
        assert!(reply.contains("code: 9"), "raw reply: {reply}");
    }
    server.shutdown();
}

/// A response over the frame cap is an `ERR`, not a dropped connection:
/// the session — its pins and subscriptions — survives.
#[test]
fn an_over_cap_response_is_an_error_and_the_session_keeps_serving() {
    use saq::server::protocol::MAX_FRAME;

    let server = Saqd::spawn(corpus(), SaqdConfig::default()).unwrap();
    let mut client = SaqClient::connect(server.addr()).unwrap();
    let pinned = client.pin().unwrap();

    // Identical leaves share one wave slot, so the query is cheap to run;
    // its explain renders one line per leaf and outgrows the cap.
    let saql = vec!["peaks = 2"; 20_000].join(" or ");
    assert!(saql.len() < MAX_FRAME / 2, "the request itself fits a frame");
    let err = client.query(&QueryRequest::saql(saql).with_explain()).unwrap_err();
    // The server's own `ERR` frame, not the client noticing a dead socket.
    assert!(matches!(err, saq::core::Error::Remote { code: 9, .. }), "{err:?}");
    assert!(err.to_string().contains(&MAX_FRAME.to_string()), "names the cap: {err}");

    // Same connection, same pin.
    assert_eq!(client.ping().unwrap(), pinned);
    let resp = client.query(&QueryRequest::saql("peaks = 2 tol 0")).unwrap();
    assert_eq!(resp.snapshot, Some(pinned));
    server.shutdown();
}

/// A round trip must not wait on a delayed-ACK timer (40–200 ms on common
/// stacks): each frame leaves in one write and both ends set
/// `TCP_NODELAY`, so a loopback `PING` costs well under a millisecond.
#[test]
fn loopback_round_trips_do_not_wait_on_delayed_acks() {
    let server = Saqd::spawn(corpus(), SaqdConfig::default()).unwrap();
    let mut client = SaqClient::connect(server.addr()).unwrap();
    let mut rtts: Vec<Duration> = (0..30)
        .map(|_| {
            let start = Instant::now();
            client.ping().unwrap();
            start.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(5), "median PING round trip {median:?}");
    server.shutdown();
}

#[test]
fn remote_engine_answers_like_local_engines_through_the_trait() {
    use saq::core::algebra::QueryExpr;
    use saq::server::RemoteEngine;

    let archive = corpus();
    let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
    let remote = RemoteEngine::connect(server.addr()).unwrap();
    let local = ArchiveScanEngine::new(&archive, StoreConfig::default());

    let exprs = [
        QueryExpr::peak_count(2, 1).and(QueryExpr::min_steepness(0.2, 0.1)),
        QueryExpr::peak_count(1, 0).or(QueryExpr::peak_count(3, 0)).top_k(4),
        QueryExpr::peak_count(2, 0).negate(),
    ];
    for expr in &exprs {
        assert_eq!(
            remote.execute(expr).unwrap(),
            local.execute(expr).unwrap(),
            "remote vs local on {expr:?}"
        );
    }
    // The unified request surface carries stats and explain across the
    // wire; the snapshot ref matches what PING reports.
    let resp =
        remote.request(&QueryRequest::expr(exprs[0].clone()).with_stats().with_explain()).unwrap();
    assert!(resp.stats.unwrap().entries_scanned > 0);
    assert!(resp.explain.unwrap().contains("And"));
    let pinged = SaqClient::connect(server.addr()).unwrap().ping().unwrap();
    assert_eq!(resp.snapshot, Some(pinged));
    server.shutdown();
}

/// A server restarted on the same `--data-dir` serves byte-identical
/// results at the same pinned `(instance, generation)` snapshot, and
/// generations stay monotonic across the restart.
#[test]
fn restarted_server_serves_byte_identical_results_from_its_data_dir() {
    use saq::archive::DurabilityConfig;
    use saq::server::RemoteEngine;

    let dir = std::env::temp_dir().join(format!("saq_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open =
        || ArchiveStore::open(dir.clone(), Medium::memory(), DurabilityConfig::default()).unwrap();

    // Ingest the corpus, fold most of it into a segment, then leave two
    // puts in the WAL so recovery exercises segment + replay together.
    let template = corpus();
    let snap = template.snapshot();
    let mut archive = open();
    for &id in template.ids().iter() {
        archive.put(id, snap.get(id).unwrap().clone());
    }
    archive.compact().unwrap();
    archive.put(2, random_walk(49, 0.0, 0.25, 99));
    archive.put(7, random_walk(49, 0.0, 0.25, 100));
    let stamp = (archive.instance_id(), archive.generation());

    let run = |archive: ArchiveStore| {
        let server = Saqd::spawn(archive, SaqdConfig::default()).unwrap();
        let mut client = SaqClient::connect(server.addr()).unwrap();
        let answers: Vec<_> =
            QUERIES.iter().map(|&text| client.query(&QueryRequest::saql(text)).unwrap()).collect();
        server.shutdown();
        answers
    };
    let before = run(archive.clone());
    drop(archive);

    // "Restart": a fresh open of the same directory.
    let mut archive = open();
    assert_eq!(
        (archive.instance_id(), archive.generation()),
        stamp,
        "recovery reproduces the pre-shutdown snapshot stamp"
    );
    let after = run(archive.clone());
    for (text, (a, b)) in QUERIES.iter().zip(before.iter().zip(&after)) {
        assert_eq!(a.outcome, b.outcome, "`{text}` differs across the restart");
        assert_eq!(a.snapshot, b.snapshot, "`{text}` pinned a different snapshot");
    }

    // The recovered archive also answers identically through the remote
    // engine trait and the local scan engine, at the same pin.
    {
        use saq::core::algebra::QueryExpr;
        let server = Saqd::spawn(archive.clone(), SaqdConfig::default()).unwrap();
        let remote = RemoteEngine::connect(server.addr()).unwrap();
        let local = ArchiveScanEngine::new(&archive, StoreConfig::default());
        let expr = QueryExpr::peak_count(2, 1).and(QueryExpr::min_steepness(0.2, 0.1));
        assert_eq!(remote.execute(&expr).unwrap(), local.execute(&expr).unwrap());
        server.shutdown();
    }

    // Writes after recovery continue the generation sequence instead of
    // restarting it — id-keyed caches can never confuse the two runs.
    archive.put(30, random_walk(49, 0.0, 0.25, 101));
    assert_eq!(archive.generation(), stamp.1 + 1, "generations are monotonic across restart");
    let _ = std::fs::remove_dir_all(&dir);
}
