//! Columnar hot-path kernels vs their scalar formulations: regression,
//! the DP breaker's cost sweep, and the twiddle-table DFT. The scalar
//! baselines live in `saq_bench::kernels` so the harness and criterion
//! time the same code.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saq_bench::kernels::{dp_break_scalar, kernel_signal, naive_dft_scalar, regression_scalar};
use saq_core::brk::{Breaker, DynamicProgrammingBreaker};
use saq_curves::Line;
use saq_sequence::{Point, Sequence};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    let n = 4096;
    let points: Vec<Point> =
        kernel_signal(n).iter().enumerate().map(|(i, &v)| Point::new(i as f64, v)).collect();
    group.bench_function(BenchmarkId::new("regression/kernel", n), |bch| {
        bch.iter(|| black_box(Line::regression(black_box(&points)).unwrap()));
    });
    group.bench_function(BenchmarkId::new("regression/scalar", n), |bch| {
        bch.iter(|| black_box(regression_scalar(black_box(&points)).unwrap()));
    });

    let n = 256;
    let seq = Sequence::from_samples(&kernel_signal(n)).unwrap();
    let dp = DynamicProgrammingBreaker::new(2.0, 1.0);
    group.bench_function(BenchmarkId::new("dp_break/kernel", n), |bch| {
        bch.iter(|| black_box(dp.break_ranges(black_box(&seq))));
    });
    group.bench_function(BenchmarkId::new("dp_break/scalar", n), |bch| {
        bch.iter(|| black_box(dp_break_scalar(black_box(&seq), 2.0, 1.0)));
    });

    let n = 192;
    let x = kernel_signal(n);
    group.bench_function(BenchmarkId::new("naive_dft/kernel", n), |bch| {
        bch.iter(|| black_box(saq_baseline::dft::naive_dft(black_box(&x))));
    });
    group.bench_function(BenchmarkId::new("naive_dft/scalar", n), |bch| {
        bch.iter(|| black_box(naive_dft_scalar(black_box(&x))));
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
