//! Crash-consistency of the durable archive: the kill-point harness.
//!
//! A mutation script runs against a durable archive on a
//! [`MemoryBackend`]; the test then simulates every crash the storage
//! contract promises to survive — the write-ahead log truncated at
//! **every record boundary**, torn mid-record, and corrupted by a bit
//! flip at random offsets — by forking the backend's bytes and
//! reopening. Every reopen must recover a **consistent prefix**: the
//! exact archive contents at the generation of the last surviving WAL
//! record (or the compaction base when nothing survives), never a blend,
//! never a torn value. A second reopen of the same bytes must agree with
//! the first (recovery truncates the damaged tail, so it is idempotent).
//!
//! `SAQ_PROP_DURABLE_CASES` raises the proptest case count (the CI
//! durability-stress job sets it).

mod common;

use common::mixed_sequence;
use proptest::prelude::*;
use saq::archive::{compute_doc, ArchiveScanEngine, ArchiveStore, DurabilityConfig, Medium};
use saq::core::algebra::{QueryEngine as _, QueryExpr};
use saq::core::store::StoreConfig;
use saq::durable::wal::{read_wal_bytes, WAL_KEY};
use saq::durable::{Backend, MemoryBackend};
use saq::engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq::sequence::Point;
use std::collections::BTreeMap;
use std::sync::Arc;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One scripted mutation against the durable archive. `PutBatch` is `n`
/// puts in one group commit: item `i` lands on id `(id + i * stride) % 10`,
/// so stride 0 rewrites one id `n` times.
#[derive(Debug, Clone, Copy)]
enum Op {
    Put { kind: u64, seed: u64, id: u64 },
    Remove { id: u64 },
    Append { id: u64, n: u64, seed: u64 },
    PutBatch { kind: u64, seed: u64, id: u64, stride: u64, n: u64 },
    Wildcard,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Two put and two append arms bias the unweighted union toward the
    // content-carrying records.
    prop_oneof![
        (0u64..4, 0u64..1000, 0u64..10).prop_map(|(kind, seed, id)| Op::Put { kind, seed, id }),
        (0u64..4, 500u64..1500, 0u64..10).prop_map(|(kind, seed, id)| Op::Put { kind, seed, id }),
        (0u64..10).prop_map(|id| Op::Remove { id }),
        (0u64..10, 1u64..24, 0u64..1000).prop_map(|(id, n, seed)| Op::Append { id, n, seed }),
        (0u64..10, 1u64..24, 0u64..1000).prop_map(|(id, n, seed)| Op::Append { id, n, seed }),
        (0u64..4, 0u64..1000, 0u64..10, 0u64..4, 2u64..6)
            .prop_map(|(kind, seed, id, stride, n)| Op::PutBatch { kind, seed, id, stride, n }),
        Just(Op::Wildcard),
        Just(Op::Compact),
    ]
}

/// A deterministic tail continuing from `last` with strictly increasing
/// timestamps — what one streaming append wave carries.
fn walk_tail(last: Point, n: u64, seed: u64) -> Vec<Point> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut t, mut v) = (last.t, last.v);
    (0..n)
        .map(|_| {
            t += 1.0;
            v += ((next() % 100) as f64 - 49.5) / 25.0;
            Point::new(t, v)
        })
        .collect()
}

/// The oracle: archive contents (as raw points) after each generation,
/// plus the base generation of the last compaction.
struct Oracle {
    /// `states[g]` = contents at generation `g` (index 0 = empty).
    states: Vec<BTreeMap<u64, Vec<Point>>>,
    base_generation: u64,
}

/// Runs `ops` through a durable archive (manual compaction only) while
/// recording the oracle state at every generation.
fn run_script(ops: &[Op]) -> (ArchiveStore, Arc<MemoryBackend>, Oracle) {
    let backend = Arc::new(MemoryBackend::new());
    let config = DurabilityConfig { compact_after: 0, ..DurabilityConfig::default() };
    let mut archive =
        ArchiveStore::open_backend(backend.clone() as Arc<dyn Backend>, Medium::memory(), config)
            .unwrap();
    let mut oracle =
        Oracle { states: vec![BTreeMap::new()], base_generation: archive.generation() };
    for &op in ops {
        let mut next = oracle.states.last().unwrap().clone();
        match op {
            Op::Put { kind, seed, id } => {
                let seq = mixed_sequence(kind, seed);
                next.insert(id, seq.points().to_vec());
                archive.put(id, seq);
            }
            Op::Remove { id } => {
                next.remove(&id);
                archive.remove(id);
            }
            Op::Append { id, n, seed } => {
                // Continue the stored tail (or start a fresh feed — an
                // append to an unknown id creates it).
                let start = next
                    .get(&id)
                    .map(|points| *points.last().unwrap())
                    .unwrap_or_else(|| Point::new(0.0, (seed % 5) as f64));
                let tail = walk_tail(start, n, seed);
                next.entry(id).or_default().extend_from_slice(&tail);
                archive.append_points(id, &tail);
            }
            Op::PutBatch { kind, seed, id, stride, n } => {
                let items: Vec<_> = (0..n)
                    .map(|i| ((id + i * stride) % 10, mixed_sequence(kind + i, seed + i)))
                    .collect();
                // One generation — one oracle state — per batched record;
                // the last one is pushed by the shared tail below.
                let (last, rest) = items.split_last().unwrap();
                for (id, seq) in rest {
                    next.insert(*id, seq.points().to_vec());
                    oracle.states.push(next.clone());
                }
                next.insert(last.0, last.1.points().to_vec());
                archive.put_batch(items);
            }
            Op::Wildcard => archive.mark_all_changed(),
            Op::Compact => {
                archive.compact().unwrap();
                oracle.base_generation = archive.generation();
                continue; // not a mutation: no generation bump
            }
        }
        oracle.states.push(next);
        assert_eq!(archive.generation() as usize + 1, oracle.states.len());
    }
    (archive, backend, oracle)
}

/// Reopens `backend` and asserts the recovered archive is exactly the
/// oracle state at `expect_generation`.
fn assert_recovers_to(backend: Arc<MemoryBackend>, oracle: &Oracle, expect_generation: u64) {
    let reopened = ArchiveStore::open_backend(
        backend.clone() as Arc<dyn Backend>,
        Medium::memory(),
        DurabilityConfig { compact_after: 0, ..DurabilityConfig::default() },
    )
    .unwrap();
    let expected = &oracle.states[expect_generation as usize];
    assert_eq!(
        reopened.generation(),
        expect_generation,
        "recovery must land on the last surviving record's generation"
    );
    let ids: Vec<u64> = expected.keys().copied().collect();
    assert_eq!(reopened.ids(), ids, "recovered id set is the consistent prefix's");
    let snapshot = reopened.snapshot();
    for (id, points) in expected {
        let (seq, _) = snapshot.fetch(*id).expect("recovered id fetches");
        assert_eq!(seq.points(), points.as_slice(), "id {id} recovered bit-exactly");
    }
    drop(reopened);

    // Recovery truncated the damage, so a second recovery of the same
    // bytes sees a clean log and lands in the same place.
    let again = ArchiveStore::open_backend(
        backend as Arc<dyn Backend>,
        Medium::memory(),
        DurabilityConfig { compact_after: 0, ..DurabilityConfig::default() },
    )
    .unwrap();
    assert_eq!(again.generation(), expect_generation, "recovery is idempotent");
    assert_eq!(again.ids(), ids);
}

/// The generation recovery must land on when the log is cut at byte
/// `cut`: the last record wholly inside the prefix, else the base.
fn generation_at_cut(ends: &[u64], generations: &[u64], base: u64, cut: u64) -> u64 {
    ends.iter()
        .zip(generations)
        .filter(|(end, _)| **end <= cut)
        .map(|(_, g)| *g)
        .next_back()
        .unwrap_or(base)
}

/// Exhaustive kill points on a fixed script: truncation at every record
/// boundary, one byte short of every boundary (torn), and one byte into
/// every record — plus a corrupting flip inside every record.
#[test]
fn every_wal_boundary_recovers_a_consistent_prefix() {
    let ops: Vec<Op> = (0..9)
        .map(|i| match i {
            2 => Op::Append { id: 0, n: 6, seed: 41 },
            3 => Op::Remove { id: 1 },
            5 => Op::Wildcard,
            6 => Op::Append { id: 5, n: 3, seed: 42 }, // creates id 5
            _ => Op::Put { kind: i, seed: 31 * i + 7, id: i % 4 },
        })
        .collect();
    let (archive, backend, oracle) = run_script(&ops);
    drop(archive);

    let wal = backend.get(WAL_KEY).unwrap().unwrap_or_default();
    let readback = read_wal_bytes(&wal);
    assert!(!readback.tail_discarded, "the live log is clean");
    assert_eq!(readback.records.len(), ops.len(), "one record per mutation");
    let generations: Vec<u64> = readback.records.iter().map(|r| r.generation).collect();

    let mut boundaries: Vec<u64> = vec![0];
    boundaries.extend(&readback.ends);
    for &cut in &boundaries {
        // A crash that lost everything past this boundary.
        let fork = Arc::new(backend.fork());
        fork.truncate(WAL_KEY, cut).unwrap();
        let expect = generation_at_cut(&readback.ends, &generations, oracle.base_generation, cut);
        assert_recovers_to(fork, &oracle, expect);

        for torn in [cut.saturating_sub(1), cut + 1] {
            if torn == 0 || torn >= wal.len() as u64 {
                continue;
            }
            // A crash mid-record: the torn record is discarded whole.
            let fork = Arc::new(backend.fork());
            fork.truncate(WAL_KEY, torn).unwrap();
            let expect =
                generation_at_cut(&readback.ends, &generations, oracle.base_generation, torn);
            assert_recovers_to(fork, &oracle, expect);
        }
    }

    // A flipped byte anywhere in a record kills that record and its
    // suffix, keeping the records before it.
    for (i, &end) in readback.ends.iter().enumerate() {
        let start = if i == 0 { 0 } else { readback.ends[i - 1] };
        for offset in [start, (start + end) / 2, end - 1] {
            let fork = Arc::new(backend.fork());
            fork.poke(WAL_KEY, offset, wal[offset as usize] ^ 0x5A);
            let expect = if i == 0 { oracle.base_generation } else { generations[i - 1] };
            assert_recovers_to(fork, &oracle, expect);
        }
    }
}

/// Append waves are recovery units: cutting the log at every single byte
/// offset recovers to an exact prefix of acknowledged waves — the stored
/// sequence is always the base plus whole appended tails in order, never
/// a torn one.
#[test]
fn append_waves_recover_to_an_exact_prefix_at_every_byte() {
    let mut ops = vec![Op::Put { kind: 2, seed: 9, id: 0 }];
    ops.extend((0..8).map(|i| Op::Append { id: i % 3, n: 4 + i % 5, seed: 100 + i }));
    let (archive, backend, oracle) = run_script(&ops);
    drop(archive);

    let wal = backend.get(WAL_KEY).unwrap().unwrap_or_default();
    let readback = read_wal_bytes(&wal);
    assert_eq!(readback.records.len(), ops.len(), "one record per wave");
    let generations: Vec<u64> = readback.records.iter().map(|r| r.generation).collect();
    for cut in 0..=wal.len() as u64 {
        let fork = Arc::new(backend.fork());
        fork.truncate(WAL_KEY, cut).unwrap();
        let expect = generation_at_cut(&readback.ends, &generations, oracle.base_generation, cut);
        assert_recovers_to(fork, &oracle, expect);
    }
}

/// A group commit is one backend append but still one frame per record:
/// a crash inside it recovers to the last whole *record* — a prefix of
/// the batch — at every byte offset, never to all-or-nothing and never
/// to a blend.
#[test]
fn group_commits_recover_record_by_record_at_every_byte() {
    let ops = [
        Op::Put { kind: 0, seed: 5, id: 3 },
        Op::Compact,
        Op::PutBatch { kind: 1, seed: 60, id: 2, stride: 3, n: 5 },
        Op::Append { id: 2, n: 4, seed: 8 },
        Op::PutBatch { kind: 2, seed: 70, id: 3, stride: 0, n: 3 }, // one id, rewritten 3 times
        Op::PutBatch { kind: 3, seed: 80, id: 9, stride: 1, n: 2 },
    ];
    let (archive, backend, oracle) = run_script(&ops);
    drop(archive);

    let wal = backend.get(WAL_KEY).unwrap().unwrap_or_default();
    let readback = read_wal_bytes(&wal);
    assert_eq!(readback.records.len(), 5 + 1 + 3 + 2, "one record per batched put");
    let generations: Vec<u64> = readback.records.iter().map(|r| r.generation).collect();
    for cut in 0..=wal.len() as u64 {
        let fork = Arc::new(backend.fork());
        fork.truncate(WAL_KEY, cut).unwrap();
        let expect = generation_at_cut(&readback.ends, &generations, oracle.base_generation, cut);
        assert_recovers_to(fork, &oracle, expect);
    }
}

/// Reopening a compacted store reproduces byte-identical query results
/// at the same pinned generation across the scan and sharded engines.
#[test]
fn reopened_store_answers_queries_byte_identically() {
    let ops: Vec<Op> = (0..9)
        .map(|i| Op::Put { kind: i, seed: 100 + i, id: i })
        .chain([Op::Compact, Op::Put { kind: 1, seed: 999, id: 2 }])
        .collect();
    let (archive, backend, _) = run_script(&ops);
    let exprs = [
        QueryExpr::shape(common::GOALPOST),
        QueryExpr::peak_count(2, 1).or(QueryExpr::peak_interval(10, 3)),
        QueryExpr::min_steepness(0.6, 0.2).and(QueryExpr::id_range(0, 6)),
    ];
    let pinned = (archive.instance_id(), archive.generation());
    let reference: Vec<_> = {
        let scan = ArchiveScanEngine::new(&archive, StoreConfig::default());
        exprs.iter().map(|e| scan.execute(e).unwrap()).collect()
    };
    drop(archive);

    let reopened = ArchiveStore::open_backend(
        backend as Arc<dyn Backend>,
        Medium::memory(),
        DurabilityConfig::default(),
    )
    .unwrap();
    assert_eq!(
        (reopened.instance_id(), reopened.generation()),
        pinned,
        "recovery reproduces the exact pre-shutdown stamp"
    );
    let scan = ArchiveScanEngine::new(&reopened, StoreConfig::default());
    let sharded = ShardedEngine::new(EngineConfig::default()).unwrap();
    let bound = sharded.bind(&reopened);
    for (expr, expected) in exprs.iter().zip(&reference) {
        assert_eq!(&scan.execute(expr).unwrap(), expected, "scan engine differs after reopen");
        assert_eq!(&bound.execute(expr).unwrap(), expected, "sharded engine differs after reopen");
    }
}

/// Reopens `backend` and asserts every resident feature document is the
/// one computed from the recovered sequence, byte for byte — and that an
/// id the pipeline rejects has none.
fn assert_docs_match_contents(backend: Arc<MemoryBackend>) {
    let reopened = ArchiveStore::open_backend(
        backend as Arc<dyn Backend>,
        Medium::memory(),
        DurabilityConfig { compact_after: 0, ..DurabilityConfig::default() },
    )
    .unwrap();
    let snapshot = reopened.snapshot();
    for &id in snapshot.ids() {
        let expected = compute_doc(snapshot.get(id).unwrap(), &StoreConfig::default()).ok();
        assert_eq!(
            snapshot.doc(id).map(|d| d.encode()),
            expected.map(|d| d.encode()),
            "id {id}: the reopened document is the recovered sequence's"
        );
    }
}

/// A copy of `backend` with one byte of its docs segment flipped at the
/// fraction `at` of its length; `None` when there is no docs segment.
fn poke_docs(backend: &MemoryBackend, at: f64) -> Option<Arc<MemoryBackend>> {
    let key = backend.list().unwrap().into_iter().find(|k| k.starts_with("docs-"))?;
    let bytes = backend.get(&key).unwrap().unwrap();
    let offset = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
    let fork = backend.fork();
    fork.poke(&key, offset as u64, bytes[offset] ^ 0x5A);
    Some(Arc::new(fork))
}

/// Recovery rebuilds the resident documents: from the docs segment where
/// it is intact and the WAL tail left the id alone, from the sequence
/// everywhere else. Covers reopen with a docs segment, without one, with
/// a WAL tail over one, and with a damaged docs page at every position.
#[test]
fn documents_after_reopen_equal_the_recovered_contents() {
    let mut ops: Vec<Op> = (0..10).map(|i| Op::Put { kind: i % 4, seed: 40 + i, id: i }).collect();
    // Without a docs segment: the WAL alone.
    let (archive, backend, _) = run_script(&ops);
    drop(archive);
    assert!(poke_docs(&backend, 0.0).is_none());
    assert_docs_match_contents(backend);

    // With one, and then with a WAL tail of puts, an append, a remove
    // and a wildcard over it.
    ops.push(Op::Compact);
    let (archive, backend, _) = run_script(&ops);
    drop(archive);
    assert_docs_match_contents(backend);
    ops.extend([
        Op::Put { kind: 3, seed: 7, id: 2 },
        Op::Append { id: 4, n: 9, seed: 5 },
        Op::Remove { id: 6 },
        Op::Wildcard,
    ]);
    let (archive, backend, _) = run_script(&ops);
    drop(archive);
    assert_docs_match_contents(backend.clone());

    // A flipped byte on any docs page never serves a document.
    let len = backend
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.starts_with("docs-"))
        .map(|k| backend.len(&k).unwrap().unwrap());
    let len = len.expect("the compaction wrote a docs segment");
    for offset in (0..len).step_by(7) {
        assert_docs_match_contents(poke_docs(&backend, offset as f64 / len as f64).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        env_usize("SAQ_PROP_DURABLE_CASES", 8) as u32
    ))]

    /// Random scripts (with interleaved compactions), random crash
    /// offsets: recovery is always the consistent prefix the surviving
    /// log bytes name, for truncation and for corruption alike.
    #[test]
    fn random_crashes_recover_consistent_prefixes(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        cuts in proptest::collection::vec((0u64..u64::MAX, 0u8..2), 1..8),
    ) {
        let (archive, backend, oracle) = run_script(&ops);
        drop(archive);
        let wal = backend.get(WAL_KEY).unwrap().unwrap_or_default();
        let readback = read_wal_bytes(&wal);
        let generations: Vec<u64> = readback.records.iter().map(|r| r.generation).collect();

        for &(raw, corrupt) in &cuts {
            if wal.is_empty() {
                break;
            }
            let offset = raw % wal.len() as u64;
            let fork = Arc::new(backend.fork());
            let expect = if corrupt == 1 {
                // Flip a byte: the record containing `offset` dies.
                fork.poke(WAL_KEY, offset, wal[offset as usize] ^ 0x5A);
                let survivors = readback.ends.iter().filter(|end| **end <= offset).count();
                if survivors == 0 {
                    oracle.base_generation
                } else {
                    generations[survivors - 1]
                }
            } else {
                fork.truncate(WAL_KEY, offset).unwrap();
                generation_at_cut(&readback.ends, &generations, oracle.base_generation, offset)
            };
            assert_recovers_to(fork, &oracle, expect);
        }
    }

    /// Random scripts around a compaction: the documents after reopen —
    /// from the docs segment, under the WAL tail the script left, and with
    /// one docs byte flipped — are the documents of the recovered
    /// contents.
    #[test]
    fn random_scripts_reopen_with_current_documents(
        head in proptest::collection::vec(op_strategy(), 1..12),
        tail in proptest::collection::vec(op_strategy(), 0..12),
        at in 0.0f64..1.0,
    ) {
        let ops: Vec<Op> = head.into_iter().chain([Op::Compact]).chain(tail).collect();
        let (archive, backend, _) = run_script(&ops);
        drop(archive);
        assert_docs_match_contents(backend.clone());
        if let Some(poked) = poke_docs(&backend, at) {
            assert_docs_match_contents(poked);
        }
    }
}
