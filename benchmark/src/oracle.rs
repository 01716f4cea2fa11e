//! Expected results, from the sequential `ArchiveScanEngine` — the
//! project's own reference path, which shares no sharding, caching or
//! index code with the engine under test.
//!
//! A full reference scan per reply would cost more than the run it checks
//! (one pass over the whole archive per query). Every query here except a
//! `topk` cut is a per-id predicate, so the oracle scans the archive once
//! per distinct query at the base generation and afterwards re-evaluates
//! only the ids an append touched; a `topk` query is confined to a narrow
//! id band, which is re-evaluated whole.

use crate::gen::Query;
use saq_archive::{ArchiveScanEngine, ArchiveSnapshot, ArchiveStore, Medium};
use saq_core::algebra::QueryEngine as _;
use saq_core::{ApproximateMatch, QueryOutcome, QueryRequest, StoreConfig};
use saq_sequence::{Point, Sequence};
use std::collections::{BTreeMap, HashMap};

/// How one id relates to one query's answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tier {
    Exact,
    Approximate(f64),
}

pub struct Oracle {
    config: StoreConfig,
    /// The archive at the base generation; appended ids diverge from it
    /// in `current`.
    base: ArchiveSnapshot,
    queries: Vec<Query>,
    base_outcomes: Vec<QueryOutcome>,
    /// Sequences of the ids appended to since the base generation.
    current: HashMap<u64, Sequence>,
    /// Per query: the present tier of every id in `current` (absent from
    /// the answer when `None`). Unused for ranked queries.
    patches: Vec<BTreeMap<u64, Option<Tier>>>,
}

fn reference(archive_of: ArchiveSnapshot, config: StoreConfig, saql: &str) -> QueryOutcome {
    ArchiveScanEngine::pinned(archive_of, config)
        .request(&QueryRequest::saql(saql))
        .unwrap_or_else(|e| panic!("generated query `{saql}` fails on the reference engine: {e}"))
        .outcome
}

fn small_archive<'a>(sequences: impl IntoIterator<Item = (u64, &'a Sequence)>) -> ArchiveSnapshot {
    let mut archive = ArchiveStore::new(Medium::memory());
    archive.put_batch(sequences.into_iter().map(|(id, seq)| (id, seq.clone())).collect());
    archive.snapshot()
}

impl Oracle {
    /// Scans `base` once per query, on two threads.
    pub fn new(base: ArchiveSnapshot, config: StoreConfig, queries: Vec<Query>) -> Oracle {
        let mut base_outcomes = vec![QueryOutcome::default(); queries.len()];
        std::thread::scope(|scope| {
            let half = queries.len().div_ceil(2).max(1);
            for (texts, outcomes) in queries.chunks(half).zip(base_outcomes.chunks_mut(half)) {
                let base = &base;
                scope.spawn(move || {
                    for (query, outcome) in texts.iter().zip(outcomes) {
                        *outcome = reference(base.clone(), config, &query.saql);
                    }
                });
            }
        });
        let patches = vec![BTreeMap::new(); queries.len()];
        Oracle { config, base, queries, base_outcomes, current: HashMap::new(), patches }
    }

    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Ids in query `ix`'s answer at the base generation.
    pub fn base_len(&self, ix: usize) -> usize {
        let outcome = &self.base_outcomes[ix];
        outcome.exact.len() + outcome.approximate.len()
    }

    /// Drops the queries whose `keep` flag is false.
    pub fn retain(&mut self, keep: &[bool]) {
        let mut flags = keep.iter();
        self.queries.retain(|_| *flags.next().expect("one flag per query"));
        let mut flags = keep.iter();
        self.base_outcomes.retain(|_| *flags.next().expect("one flag per query"));
        self.patches.truncate(self.queries.len());
    }

    /// Makes the oracle wrong about query `ix` — for the test that a
    /// disagreeing reply fails the run.
    pub fn corrupt(&mut self, ix: usize) {
        self.base_outcomes[ix].exact.insert(0, u64::MAX);
    }

    /// The sequence at `id` now: as appended to, else as at the base.
    fn sequence(&self, id: u64) -> Option<&Sequence> {
        self.current.get(&id).or_else(|| self.base.get(id))
    }

    /// The last point and sample spacing of `id`'s sequence now.
    pub fn tail_of(&self, id: u64) -> Option<(Point, f64)> {
        let seq = self.sequence(id)?;
        Some((*seq.last()?, crate::gen::spacing(seq)))
    }

    /// Length of `id`'s sequence now.
    pub fn len_of(&self, id: u64) -> usize {
        self.sequence(id).map_or(0, Sequence::len)
    }

    /// Ids appended to since the base generation.
    pub fn appended_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.current.keys().copied()
    }

    /// Applies one acknowledged append and re-evaluates `id` under every
    /// query that can see it.
    pub fn apply_append(&mut self, id: u64, points: &[Point]) {
        let delta = Sequence::new(points.to_vec()).expect("generated tails are valid");
        let extended = match self.sequence(id) {
            Some(prior) => prior.concat(&delta).expect("generated tails extend their sequence"),
            None => delta,
        };
        let alone = small_archive([(id, &extended)]);
        for (query, patch) in self.queries.iter().zip(&mut self.patches) {
            if query.ranked {
                continue;
            }
            let visible = query.confined.is_none_or(|(lo, hi)| (lo..=hi).contains(&id));
            let tier = visible
                .then(|| {
                    let outcome = reference(alone.clone(), self.config, &query.saql);
                    match (outcome.exact.first(), outcome.approximate.first()) {
                        (Some(_), _) => Some(Tier::Exact),
                        (None, Some(m)) => Some(Tier::Approximate(m.deviation)),
                        (None, None) => None,
                    }
                })
                .flatten();
            patch.insert(id, tier);
        }
        self.current.insert(id, extended);
    }

    /// Query `ix`'s answer against the archive as appended to so far.
    pub fn expected(&self, ix: usize) -> QueryOutcome {
        let query = &self.queries[ix];
        if query.ranked {
            let (lo, hi) = query.confined.expect("ranked queries are confined to a band");
            let band = (lo..=hi).filter_map(|id| Some((id, self.sequence(id)?)));
            return reference(small_archive(band), self.config, &query.saql);
        }
        let (base, patch) = (&self.base_outcomes[ix], &self.patches[ix]);
        let mut exact: Vec<u64> =
            base.exact.iter().copied().filter(|id| !patch.contains_key(id)).collect();
        let mut approximate: Vec<ApproximateMatch> =
            base.approximate.iter().filter(|m| !patch.contains_key(&m.id)).cloned().collect();
        for (&id, tier) in patch {
            match tier {
                Some(Tier::Exact) => exact.push(id),
                Some(Tier::Approximate(deviation)) => {
                    approximate.push(ApproximateMatch { id, deviation: *deviation })
                }
                None => {}
            }
        }
        exact.sort_unstable();
        approximate.sort_by(|a, b| a.deviation.total_cmp(&b.deviation).then(a.id.cmp(&b.id)));
        QueryOutcome { exact, approximate }
    }

    /// The sorted id membership of query `ix` — what a subscription to it
    /// should hold after every delta so far.
    pub fn expected_members(&self, ix: usize) -> Vec<u64> {
        let mut ids = self.expected(ix).all_ids();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// A 64-bit FNV-1a digest of an outcome's exact ids and approximate
/// `(id, deviation)` pairs, in order. Replies are kept as digests so that
/// thousands of multi-thousand-id answers do not sit in the benchmark's
/// memory next to the server being measured.
pub fn digest(outcome: &QueryOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(outcome.exact.len() as u64);
    outcome.exact.iter().for_each(|&id| feed(id));
    for m in &outcome.approximate {
        feed(m.id);
        feed(m.deviation.to_bits());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Class, CorpusMix, Rng};

    /// The oracle's patched answers equal a from-scratch reference scan of
    /// the appended-to archive, for every query template.
    #[test]
    fn patched_answers_equal_a_fresh_reference_scan() {
        let n = 96u64;
        let mut archive = ArchiveStore::new(Medium::memory());
        archive.put_batch(gen::corpus(11, n as usize, CorpusMix::Ward));
        let mut rng = Rng::new(5);
        let mut queries: Vec<Query> = (0..40)
            .map(|i| {
                gen::candidate(
                    &mut rng,
                    if i % 2 == 0 { Class::Scan } else { Class::Index },
                    i / 2,
                    n,
                )
            })
            .collect();
        queries.extend(gen::subscriptions(n));
        let config = StoreConfig::default();
        let mut oracle = Oracle::new(archive.snapshot(), config, queries);

        for round in 0..3u64 {
            for id in [1, 4, 5, 17, 40, 95, n] {
                let (last, dt) = oracle.tail_of(id).unwrap_or((Point::new(0.0, 0.0), 1.0));
                let tail = gen::spike_tail(last, dt, 4 + (id % 9) as u8, 3.0 + round as f64);
                archive.append_points(id, &tail);
                oracle.apply_append(id, &tail);
            }
            for (ix, query) in oracle.queries().iter().enumerate() {
                let fresh = reference(archive.snapshot(), config, &query.saql);
                assert_eq!(oracle.expected(ix), fresh, "round {round}: {}", query.saql);
                assert_eq!(digest(&oracle.expected(ix)), digest(&fresh));
            }
        }
        assert_eq!(oracle.len_of(n), archive.get(n).unwrap().len());
    }

    #[test]
    fn digest_sees_every_part_of_an_outcome() {
        let base = QueryOutcome {
            exact: vec![1, 2],
            approximate: vec![ApproximateMatch { id: 3, deviation: 0.5 }],
        };
        let mut moved = base.clone();
        moved.exact = vec![1];
        moved.approximate.insert(0, ApproximateMatch { id: 2, deviation: 0.5 });
        let mut deviated = base.clone();
        deviated.approximate[0].deviation = 0.25;
        assert_ne!(digest(&base), digest(&moved));
        assert_ne!(digest(&base), digest(&deviated));
        assert_eq!(digest(&base), digest(&base.clone()));
    }
}
