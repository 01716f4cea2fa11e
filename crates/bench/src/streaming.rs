//! Streaming-ingestion measurements shared by `exp_streaming` and the
//! versioned harness: three live-feed shapes (ticker, ECG monitor, fleet
//! telemetry) drive append waves through a streaming store with standing
//! queries registered, and the incremental work counters — splice
//! re-broken points, subscription-pump evaluations — are compared against
//! what a batch re-run of the same waves would have paid.

use crate::env_usize;
use saq_core::algebra::{QueryExpr, StoreEngine};
use saq_core::store::{SequenceStore, StoreConfig};
use saq_core::SubscriptionRegistry;
use saq_ecg::synth::{synthesize, EcgSpec};
use saq_sequence::generators::random_walk;
use saq_sequence::{Point, Sequence};

/// One scenario's measured incremental-vs-batch work.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Scenario name (`ticker`, `ecg`, `fleet`).
    pub name: &'static str,
    /// Sequences in the store at the end of the run.
    pub sequences: usize,
    /// Standing queries registered for the run.
    pub subscriptions: usize,
    /// Append waves applied.
    pub waves: usize,
    /// Points appended across all waves.
    pub appended_points: usize,
    /// Points the online breaker actually re-examined.
    pub rebroken_points: usize,
    /// Points a batch re-run would have examined (the full extended
    /// sequence, every wave).
    pub batch_points: usize,
    /// Subscriptions the pump actually executed.
    pub evaluated: u64,
    /// `batch_points / rebroken_points` — the splice win.
    pub splice_speedup: f64,
    /// `subscriptions × waves / evaluated` — the pruning win.
    pub pump_speedup: f64,
}

/// A deterministic walk tail continuing from `last` with unit spacing.
fn walk_tail(last: Point, n: usize, seed: u64) -> Vec<Point> {
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
            v += ((next() % 200) as f64 - 99.5) / 50.0;
            Point::new(t, v)
        })
        .collect()
}

struct Run {
    store: SequenceStore,
    registry: SubscriptionRegistry,
    appended: usize,
    rebroken: usize,
    batch: usize,
    waves: usize,
}

impl Run {
    fn new() -> Run {
        Run {
            store: SequenceStore::new(StoreConfig::streaming()).expect("streaming config valid"),
            registry: SubscriptionRegistry::new(),
            appended: 0,
            rebroken: 0,
            batch: 0,
            waves: 0,
        }
    }

    /// Registers a standing query and pumps its baseline so later waves
    /// measure steady-state incremental work only.
    fn subscribe(&mut self, expr: QueryExpr) {
        self.registry.register(expr).expect("scenario expressions are valid");
    }

    fn pump_baseline(&mut self) {
        let engine = StoreEngine::new(&self.store);
        self.registry.pump(&engine, None).expect("baseline pump");
        // Baseline evaluations are setup cost, not steady-state work.
        self.waves = 0;
    }

    /// One append wave: splice the tail in, then pump the standing
    /// queries with the exact dirty set the wave produced.
    fn wave(&mut self, id: u64, tail: &[Point]) {
        let report = self.store.append_points(id, tail).expect("scenario appends are valid");
        self.appended += tail.len();
        self.rebroken += report.rebroken_points;
        self.batch += report.total_points;
        let engine = StoreEngine::new(&self.store);
        self.registry.pump(&engine, Some(&[id])).expect("wave pump");
        self.waves += 1;
    }

    fn report(self, name: &'static str, baseline_evals: u64) -> StreamingReport {
        let evaluated = self.registry.counters().evaluated - baseline_evals;
        let subs = self.registry.len();
        StreamingReport {
            name,
            sequences: self.store.len(),
            subscriptions: subs,
            waves: self.waves,
            appended_points: self.appended,
            rebroken_points: self.rebroken,
            batch_points: self.batch,
            evaluated,
            splice_speedup: self.batch as f64 / self.rebroken.max(1) as f64,
            pump_speedup: (subs * self.waves) as f64 / evaluated.max(1) as f64,
        }
    }
}

/// Ticker tape: `n` long random-walk price feeds, each wave appending a
/// few trades to one of them. Watchers are banded over id ranges, so a
/// wave's dirty id prunes everyone watching the other bands.
pub fn measure_ticker(n: usize, waves: usize) -> StreamingReport {
    let mut run = Run::new();
    let mut ids = Vec::new();
    for i in 0..n {
        let id = run.store.insert(&random_walk(300, 0.0, 0.3, i as u64)).expect("ticker corpus");
        ids.push(id);
    }
    let band = (n / 8).max(1) as u64;
    for w in 0..8u64 {
        let lo = ids[0] + w * band;
        run.subscribe(QueryExpr::peak_count(2, 1).and(QueryExpr::id_range(lo, lo + band - 1)));
        run.subscribe(
            QueryExpr::min_steepness(0.8, 0.2).and(QueryExpr::id_range(lo, lo + band - 1)),
        );
    }
    run.pump_baseline();
    let baseline = run.registry.counters().evaluated;
    for w in 0..waves {
        let id = ids[w * 7 % ids.len()];
        let last = *run.store.get(id).unwrap().raw.as_ref().unwrap().points().last().unwrap();
        let tail = walk_tail(last, 4 + w % 12, w as u64);
        run.wave(id, &tail);
    }
    run.report("ticker", baseline)
}

/// ECG monitor: one long lead streamed chunk by chunk. The feed starts at
/// the paper's regular ~136-sample rhythm and drifts to the anomalous
/// ~149-sample rhythm partway through; a standing `peak_interval(149)`
/// query is the alarm. One stream means pruning cannot help — the splice
/// win is the whole story.
pub fn measure_ecg(waves: usize) -> StreamingReport {
    let chunk = 125;
    let normal = synthesize(EcgSpec { n: 500 + waves * chunk, ..EcgSpec::default() });
    let anomalous = synthesize(EcgSpec {
        n: waves * chunk,
        rr: 149.0,
        first_r: 89.0,
        seed: 0xEC61,
        ..EcgSpec::default()
    });
    // Splice the two rhythms into one feed: regular lead-in, then the
    // slowed RR anomaly, timestamps continuing seamlessly.
    let switch = 500 + (waves / 2) * chunk;
    let mut feed: Vec<Point> = normal.points()[..switch].to_vec();
    let t0 = feed.last().unwrap().t + 1.0;
    feed.extend(anomalous.points().iter().map(|p| Point::new(p.t + t0, p.v)));

    let mut run = Run::new();
    let id =
        run.store.insert(&Sequence::new(feed[..500].to_vec()).unwrap()).expect("ecg lead ingests");
    run.subscribe(QueryExpr::peak_interval(149, 2));
    run.subscribe(QueryExpr::peak_interval(136, 2));
    run.pump_baseline();
    let baseline = run.registry.counters().evaluated;
    let mut cursor = 500;
    for _ in 0..waves {
        let end = (cursor + chunk).min(feed.len());
        run.wave(id, &feed[cursor..end]);
        cursor = end;
    }
    run.report("ecg", baseline)
}

/// Fleet telemetry: many short per-vehicle feeds, high churn — every wave
/// a different vehicle reports a handful of samples. Watchers are
/// per-vehicle-group, so pruning carries the pump.
pub fn measure_fleet(n: usize, waves: usize) -> StreamingReport {
    let mut run = Run::new();
    let mut ids = Vec::new();
    for i in 0..n {
        let id = run
            .store
            .insert(&random_walk(40, (i % 5) as f64, 0.2, 1000 + i as u64))
            .expect("fleet corpus");
        ids.push(id);
    }
    let group = (n / 16).max(1) as u64;
    for g in 0..16u64 {
        let lo = ids[0] + g * group;
        run.subscribe(QueryExpr::peak_count(1, 1).and(QueryExpr::id_range(lo, lo + group - 1)));
    }
    run.pump_baseline();
    let baseline = run.registry.counters().evaluated;
    for w in 0..waves {
        let id = ids[(w * 13 + 5) % ids.len()];
        let last = *run.store.get(id).unwrap().raw.as_ref().unwrap().points().last().unwrap();
        let tail = walk_tail(last, 1 + w % 8, 77 + w as u64);
        run.wave(id, &tail);
    }
    run.report("fleet", baseline)
}

/// All three scenarios at the environment-configured scale.
pub fn measure_streaming() -> Vec<StreamingReport> {
    let sequences = env_usize("SAQ_EXP_SEQUENCES", 64).max(16);
    let waves = env_usize("SAQ_EXP_WAVES", 96).max(8);
    vec![
        measure_ticker(sequences / 2, waves),
        measure_ecg(waves.min(48)),
        measure_fleet(sequences, waves),
    ]
}
