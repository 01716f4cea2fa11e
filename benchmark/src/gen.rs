//! Seeded inputs: corpus, query candidates, subscriptions and op scripts.
//! Everything the system under test receives is derived here from the
//! `--seed`; the system itself never sees the seed.

use saq_core::algebra::{AccessPath, IndexCaps, PlanNode, Planner};
use saq_ecg::synth::{synthesize, EcgSpec};
use saq_sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq_sequence::{Point, Sequence};

/// SplitMix64: tiny, seedable, and good enough to draw parameters.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)` — one per sequence id or
    /// per client, so inputs do not depend on generation order.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Which sequence shapes a corpus mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusMix {
    /// The ward: ECG leads, goalpost fevers, 3-spike and 1-spike trains,
    /// tickers and fleet walks, a sixth each.
    Ward,
    /// Live feeds only — the three `exp_streaming` shapes, a third each.
    Feeds,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ecg,
    Goalpost,
    Spike3,
    Spike1,
    Ticker,
    Fleet,
}

fn kind_of(id: u64, mix: CorpusMix) -> Kind {
    match mix {
        CorpusMix::Ward => {
            [Kind::Ecg, Kind::Goalpost, Kind::Spike3, Kind::Spike1, Kind::Ticker, Kind::Fleet]
                [(id % 6) as usize]
        }
        CorpusMix::Feeds => [Kind::Ticker, Kind::Fleet, Kind::Ecg][(id % 3) as usize],
    }
}

fn sequence(seed: u64, id: u64, mix: CorpusMix) -> Sequence {
    let mut rng = Rng::lane(seed, id);
    let inner = rng.next_u64();
    match kind_of(id, mix) {
        Kind::Ecg => synthesize(EcgSpec {
            n: 600,
            rr: 120.0 + rng.below(41) as f64,
            rr_jitter: 0.5,
            first_r: 40.0 + rng.below(40) as f64,
            noise: 0.1,
            seed: inner,
            ..EcgSpec::default()
        }),
        Kind::Goalpost => goalpost(GoalpostSpec {
            peak1: rng.range(6.0, 9.0),
            peak2: rng.range(15.0, 19.0),
            noise: 0.12,
            seed: inner,
            ..GoalpostSpec::default()
        }),
        Kind::Spike3 => peaks(PeaksSpec {
            centers: vec![rng.range(4.0, 6.0), rng.range(11.0, 13.0), rng.range(18.0, 20.0)],
            noise: 0.1,
            seed: inner,
            ..PeaksSpec::default()
        }),
        Kind::Spike1 => peaks(PeaksSpec {
            centers: vec![rng.range(8.0, 16.0)],
            noise: 0.2,
            seed: inner,
            ..PeaksSpec::default()
        }),
        Kind::Ticker => random_walk(300, 0.0, 0.3, inner),
        Kind::Fleet => random_walk(40, (id % 5) as f64, 0.2, inner),
    }
}

/// `n` sequences with ids `0..n`.
pub fn corpus(seed: u64, n: usize, mix: CorpusMix) -> Vec<(u64, Sequence)> {
    (0..n as u64).map(|id| (id, sequence(seed, id, mix))).collect()
}

/// Total points of a corpus — the "user bytes" are 16 B per point.
pub fn corpus_points(corpus: &[(u64, Sequence)]) -> usize {
    corpus.iter().map(|(_, s)| s.len()).sum()
}

/// The two query classes, used by name everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// The plan has at least one entry-scan leaf.
    Scan,
    /// Every leaf is served by the pattern index, the interval index or
    /// the id filter.
    Index,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Scan => "scan",
            Class::Index => "index",
        }
    }
}

/// The class a SAQL text plans to under the engine's planner
/// (`IndexCaps::all()`), or the parse/plan error.
pub fn classify(saql: &str) -> saq_core::Result<Class> {
    let expr = saq_core::lang::saql::parse(saql)?;
    let plan = Planner::new(IndexCaps::all()).plan(&expr)?;
    let scans = plan
        .leaves()
        .iter()
        .any(|leaf| matches!(leaf, PlanNode::Leaf { path: AccessPath::Scan, .. }));
    Ok(if scans { Class::Scan } else { Class::Index })
}

/// One generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub saql: String,
    pub class: Class,
    /// The id band `lo..=hi` no result can lie outside of, for queries of
    /// the form `… and id in [lo..hi]`.
    pub confined: Option<(u64, u64)>,
    /// A `topk` cut: whether an id is selected depends on every other id
    /// in the band, so the oracle re-evaluates the whole band instead of
    /// patching single ids.
    pub ranked: bool,
}

/// Slope patterns the shape queries draw from.
pub const SHAPES: [&str; 6] = [
    "f* u+ d+ f* u+ d+ f*",
    "f* u+ d+ f*",
    "u+ d+ f* u+ d+ f* u+ d+",
    "f+",
    "f* (u|d) f*",
    "f* u+ d+ (u|d|f)*",
];

/// A band of about `width` ids somewhere in `0..n`.
fn band(rng: &mut Rng, n: u64, width: u64) -> (u64, u64) {
    let width = width.clamp(1, n);
    let lo = rng.below(n - width + 1);
    (lo, lo + width - 1)
}

/// A flat goalpost envelope, as `band` leaf points.
fn goalpost_band_points(peak1: f64, peak2: f64) -> String {
    let center = goalpost(GoalpostSpec { peak1, peak2, ..GoalpostSpec::default() });
    let points: Vec<String> = center.points().iter().map(|p| format!("{}:{}", p.t, p.v)).collect();
    points.join(", ")
}

/// Query templates per class. A run's pool holds one query of each, so
/// every seed offers the same mix of plan shapes and only the parameters
/// differ.
pub const SCAN_TEMPLATES: u64 = 7;
pub const INDEX_TEMPLATES: u64 = 5;

pub fn templates(class: Class) -> u64 {
    match class {
        Class::Scan => SCAN_TEMPLATES,
        Class::Index => INDEX_TEMPLATES,
    }
}

/// Draws one candidate query of `class` from its `template` over an
/// `n`-sequence archive. Candidates are filtered afterwards by what they
/// select (non-empty, under 60 % of the archive), so the ranges here only
/// need to be sane.
pub fn candidate(rng: &mut Rng, class: Class, template: u64, n: u64) -> Query {
    let k = 1 + rng.below(3);
    let tol = rng.below(2);
    let steep = (rng.range(0.4, 3.0) * 100.0).round() / 100.0;
    let slack = (rng.range(0.0, 0.4) * 100.0).round() / 100.0;
    let (mut confined, mut ranked) = (None, false);
    let saql = match class {
        Class::Scan => match template % SCAN_TEMPLATES {
            0 => format!("peaks = {k} tol {tol}"),
            1 => format!("steepness any >= {steep} slack {slack}"),
            2 => format!("peaks = {k} tol {tol} and steepness any >= {steep} slack {slack}"),
            3 => format!("peaks = {k} or steepness all >= {steep} slack {slack}"),
            4 => format!("steepness any >= {steep} and not peaks = {k} tol {tol}"),
            5 => {
                let (peak1, peak2) = (rng.range(6.0, 9.0).round(), rng.range(15.0, 19.0).round());
                format!("band [{}] delta 2.5 slack 0.5", goalpost_band_points(peak1, peak2))
            }
            _ => {
                let (lo, hi) = band(rng, n, 64);
                (confined, ranked) = (Some((lo, hi)), true);
                format!("(peaks = {k} tol 1 and id in [{lo}..{hi}]) topk {}", 3 + rng.below(6))
            }
        },
        Class::Index => {
            let shape = *rng.pick(&SHAPES);
            let interval = match rng.below(3) {
                0 => 7 + rng.below(6),
                1 => 34,
                _ => 86 + rng.below(41),
            };
            let eps = 1 + rng.below(3);
            let (lo, hi) = band(rng, n, n / 4);
            let template = template % INDEX_TEMPLATES;
            if template >= 3 {
                confined = Some((lo, hi));
            }
            match template {
                0 => format!("shape \"{shape}\""),
                1 => format!("interval = {interval} tol {eps}"),
                2 => format!("shape \"{shape}\" or interval = {interval} tol {eps}"),
                3 => format!("interval = {interval} tol {eps} and id in [{lo}..{hi}]"),
                _ => format!("shape \"{shape}\" and id in [{lo}..{hi}]"),
            }
        }
    };
    Query { saql, class, confined, ranked }
}

/// How many id-banded standing queries the watcher holds.
pub const BANDED_SUBSCRIPTIONS: usize = 16;

/// The watcher's standing queries: eight id bands with two peak-count
/// watchers each (the `exp_streaming` ticker layout). One append
/// re-evaluates only the band its id falls in, and since every appended
/// spike adds a peak, a feed walks into and out of these sets as it grows.
pub fn subscriptions(n: u64) -> Vec<Query> {
    let bands = BANDED_SUBSCRIPTIONS as u64 / 2;
    let width = n.div_ceil(bands);
    (0..BANDED_SUBSCRIPTIONS as u64)
        .map(|i| {
            let (band, peaks) = (i / 2, 1 + i % 2);
            let (lo, hi) = (band * width, ((band + 1) * width).min(n) - 1);
            Query {
                saql: format!("peaks = {peaks} tol 0 and id in [{lo}..{hi}]"),
                class: Class::Scan,
                confined: Some((lo, hi)),
                ranked: false,
            }
        })
        .collect()
}

/// One scripted client operation. Queries name a class and a pick; the
/// pick indexes the accepted query pool of that class (modulo its size).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query {
        class: Class,
        pick: u32,
    },
    /// Append a spike of `points` samples and height `amp` to `id`.
    Append {
        id: u64,
        points: u8,
        amp: f64,
    },
}

/// What a client connection does, closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Alternates scan and index queries.
    Analyst,
    /// Three appends, then one query (alternating class).
    Feeder,
}

/// The op script of client number `lane`: `len` operations. Feeders walk
/// the ids round-robin with a seeded stride coprime to `n`.
pub fn script(seed: u64, lane: u64, role: Role, n: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::lane(seed, 0x5c_2197 + lane);
    let stride = loop {
        let stride = 1 + rng.below(n);
        if gcd(stride, n) == 1 {
            break stride;
        }
    };
    let offset = rng.below(n);
    let (mut appends, mut queries) = (0u64, lane);
    (0..len)
        .map(|k| {
            if role == Role::Feeder && k % 4 != 3 {
                let id = (offset + appends * stride) % n;
                appends += 1;
                let amp = (rng.range(3.0, 6.0) * 100.0).round() / 100.0;
                Op::Append { id, points: 4 + rng.below(9) as u8, amp }
            } else {
                queries += 1;
                let class = if queries % 2 == 0 { Class::Scan } else { Class::Index };
                Op::Query { class, pick: rng.below(1 << 16) as u32 }
            }
        })
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The points of a spike appended after `last`: `points` samples at the
/// sequence's own spacing `dt`, rising `amp` above the last value and
/// coming back — one more peak for the feature extractor.
pub fn spike_tail(last: Point, dt: f64, points: u8, amp: f64) -> Vec<Point> {
    let n = points.max(2) as usize;
    let up = n / 2;
    (1..=n)
        .map(|i| {
            let height = if i <= up {
                amp * i as f64 / up as f64
            } else {
                amp * (n - i) as f64 / (n - up) as f64
            };
            Point::new(last.t + dt * i as f64, last.v + height)
        })
        .collect()
}

/// The spacing of a sequence's last two samples (1 when it has one).
pub fn spacing(seq: &Sequence) -> f64 {
    match seq.points() {
        [.., a, b] => b.t - a.t,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_archive::encode_sequence;

    fn corpus_bytes(seed: u64, mix: CorpusMix) -> Vec<u8> {
        corpus(seed, 96, mix).iter().flat_map(|(_, s)| encode_sequence(s)).collect()
    }

    fn script_text(seed: u64) -> String {
        let mut rng = Rng::new(seed);
        let queries: Vec<Query> = (0..24)
            .map(|i| {
                candidate(&mut rng, if i % 2 == 0 { Class::Scan } else { Class::Index }, i / 2, 96)
            })
            .collect();
        format!(
            "{queries:?}{:?}{:?}",
            script(seed, 0, Role::Analyst, 96, 64),
            script(seed, 2, Role::Feeder, 96, 64)
        )
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for mix in [CorpusMix::Ward, CorpusMix::Feeds] {
            assert_eq!(corpus_bytes(7, mix), corpus_bytes(7, mix));
            assert_ne!(corpus_bytes(7, mix), corpus_bytes(8, mix));
        }
        assert_eq!(script_text(7), script_text(7));
        assert_ne!(script_text(7), script_text(8));
    }

    #[test]
    fn candidates_plan_to_the_class_they_claim() {
        let mut rng = Rng::new(3);
        for i in 0..200 {
            let class = if i % 2 == 0 { Class::Scan } else { Class::Index };
            let query = candidate(&mut rng, class, i / 2, 768);
            assert_eq!(classify(&query.saql).unwrap(), class, "{}", query.saql);
            assert_eq!(query.ranked, query.saql.contains("topk"));
            assert_eq!(query.confined.is_some(), query.saql.contains("id in ["));
        }
        for sub in subscriptions(768) {
            assert_eq!(classify(&sub.saql).unwrap(), Class::Scan, "{}", sub.saql);
        }
    }

    #[test]
    fn scripts_follow_their_role() {
        let analyst = script(1, 0, Role::Analyst, 768, 40);
        assert!(analyst.iter().all(|op| matches!(op, Op::Query { .. })));
        let classes: Vec<Class> = analyst
            .iter()
            .map(|op| match op {
                Op::Query { class, .. } => *class,
                Op::Append { .. } => unreachable!(),
            })
            .collect();
        assert!(classes.windows(2).all(|w| w[0] != w[1]), "analysts alternate classes");

        let feeder = script(1, 2, Role::Feeder, 768, 400);
        let ids: Vec<u64> = feeder
            .iter()
            .filter_map(|op| match op {
                Op::Append { id, points, .. } => {
                    assert!((4..=12).contains(points));
                    Some(*id)
                }
                Op::Query { .. } => None,
            })
            .collect();
        assert_eq!(ids.len(), 300, "three appends in every four ops");
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 300, "a coprime stride revisits no id within n appends");
    }

    #[test]
    fn spike_tails_extend_the_sequence_and_return_to_its_level() {
        let seq = corpus(5, 12, CorpusMix::Ward).remove(1).1;
        let last = *seq.last().unwrap();
        let tail = spike_tail(last, spacing(&seq), 9, 4.0);
        assert_eq!(tail.len(), 9);
        assert!(tail[0].t > last.t);
        assert_eq!(tail.last().unwrap().v, last.v);
        assert!(tail.iter().any(|p| p.v == last.v + 4.0));
        let extended = seq.concat(&Sequence::new(tail).unwrap()).unwrap();
        assert_eq!(extended.len(), seq.len() + 9);
    }
}
