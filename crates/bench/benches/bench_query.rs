//! Query cost: the goal-post shape query over the slope-pattern index vs.
//! re-deriving features from raw sequences per query (the paper's point:
//! the representation "reduces the amount of data to be scanned").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saq_core::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
use saq_core::alphabet::{series_symbols, DEFAULT_THETA};
use saq_core::brk::{Breaker, LinearInterpolationBreaker};
use saq_core::repr::FunctionSeries;
use saq_core::store::{SequenceStore, StoreConfig};
use saq_curves::RegressionFitter;
use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
use saq_sequence::Sequence;
use std::hint::black_box;

fn corpus(n: usize) -> Vec<Sequence> {
    (0..n as u64)
        .map(|i| {
            if i % 2 == 0 {
                goalpost(GoalpostSpec { seed: i, noise: 0.1, ..GoalpostSpec::default() })
            } else {
                peaks(PeaksSpec {
                    centers: vec![6.0, 12.0, 18.0],
                    seed: i,
                    noise: 0.1,
                    ..PeaksSpec::default()
                })
            }
        })
        .collect()
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("goalpost_query");
    let pattern = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";
    for &n in &[64usize, 256] {
        let seqs = corpus(n);
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        for s in &seqs {
            store.insert(s).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("via_representation", n), &store, |b, st| {
            let q = QueryExpr::shape(pattern);
            b.iter(|| black_box(StoreEngine::new(black_box(st)).execute(&q).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("raw_rescan", n), &seqs, |b, ss| {
            // Per query: re-break, re-represent, re-quantize, re-match.
            let regex = saq_core::alphabet::parse_slope_pattern(pattern).unwrap();
            let dfa = regex.compile();
            b.iter(|| {
                let mut hits = 0usize;
                for s in ss {
                    let ranges = LinearInterpolationBreaker::new(1.0).break_ranges(s);
                    let series = FunctionSeries::build(s, &ranges, &RegressionFitter).unwrap();
                    let ids: Vec<u8> =
                        series_symbols(&series, DEFAULT_THETA).iter().map(|sym| sym.id()).collect();
                    if dfa.is_match(&ids) {
                        hits += 1;
                    }
                }
                black_box(hits)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
