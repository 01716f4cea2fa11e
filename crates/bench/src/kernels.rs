//! Columnar hot-path kernels vs their scalar formulations.
//!
//! Three of the library's inner loops (regression sums, the DP breaker's
//! cost fill, DFT) were rewritten as chunked or table-driven sweeps. This
//! module keeps the *scalar* formulations alive as baselines — checked
//! against the optimized kernels for agreement, then timed, so
//! `bench_harness` can record the before/after in the `kernels` section
//! of `BENCH_<date>.json` and `bench_kernels` can track both under
//! criterion.
//!
//! Each scalar baseline is `#[inline(never)]`: the kernel it is timed
//! against is an out-of-line call into another crate, and a baseline the
//! compiler may fold into the timing loop moves the ratio with code
//! placement rather than with the kernels.

use saq_baseline::dft::Complex;
use saq_core::brk::{Breaker, DynamicProgrammingBreaker};
use saq_curves::Line;
use saq_sequence::{Point, Sequence};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `rounds` runs and returns the best (the criterion
/// stand-in discipline: minimum over repeats suppresses scheduler noise).
pub fn best_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(rounds > 0, "best_of needs at least one round");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..rounds {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("rounds > 0"))
}

/// One kernel's before/after measurement.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name as recorded in the JSON trajectory.
    pub name: &'static str,
    /// Input size (points, or DFT length).
    pub n: usize,
    /// Best-of-rounds wall time of the scalar formulation.
    pub scalar_seconds: f64,
    /// Best-of-rounds wall time of the shipped kernel.
    pub kernel_seconds: f64,
    /// `scalar / kernel` (>1 means the rewrite won).
    pub speedup: f64,
}

/// Sequential two-pass least-squares line — `Line::regression` before
/// the chunked-sums rewrite. Returns `(slope, intercept)`.
#[inline(never)]
pub fn regression_scalar(points: &[Point]) -> Option<(f64, f64)> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let (mut st, mut sv) = (0.0f64, 0.0f64);
    for p in points {
        st += p.t;
        sv += p.v;
    }
    let (mt, mv) = (st / nf, sv / nf);
    let (mut stt, mut stv) = (0.0f64, 0.0f64);
    for p in points {
        let dt = p.t - mt;
        stt += dt * dt;
        stv += dt * (p.v - mv);
    }
    if stt == 0.0 {
        return None;
    }
    let slope = stv / stt;
    Some((slope, mv - slope * mt))
}

/// Per-element-trig naive DFT — `naive_dft` before the twiddle table:
/// every inner-loop step pays a `sin`/`cos` pair.
#[inline(never)]
pub fn naive_dft_scalar(x: &[f64]) -> Vec<Complex> {
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::default();
        for (j, &v) in x.iter().enumerate() {
            let angle = -std::f64::consts::TAU * (j as f64) * (k as f64) / n as f64;
            acc = acc.add(Complex::from_angle(angle).mul(Complex::new(v, 0.0)));
        }
        out.push(acc);
    }
    out
}

/// Fused-loop DP segmentation — the recurrence
/// `DynamicProgrammingBreaker::break_ranges` ran before `fill_costs`
/// split the cost sweep from the argmin.
#[inline(never)]
pub fn dp_break_scalar(
    seq: &Sequence,
    segment_cost: f64,
    error_weight: f64,
) -> Vec<(usize, usize)> {
    let n = seq.len();
    if n == 0 {
        return Vec::new();
    }
    let (mut st, mut sv, mut stt, mut stv, mut svv) =
        (vec![0.0; n + 1], vec![0.0; n + 1], vec![0.0; n + 1], vec![0.0; n + 1], vec![0.0; n + 1]);
    for (i, pt) in seq.points().iter().enumerate() {
        st[i + 1] = st[i] + pt.t;
        sv[i + 1] = sv[i] + pt.v;
        stt[i + 1] = stt[i] + pt.t * pt.t;
        stv[i + 1] = stv[i] + pt.t * pt.v;
        svv[i + 1] = svv[i] + pt.v * pt.v;
    }
    let sse = |lo: usize, hi: usize| -> f64 {
        let n = (hi - lo + 1) as f64;
        if n < 2.0 {
            return 0.0;
        }
        let (dst, dsv) = (st[hi + 1] - st[lo], sv[hi + 1] - sv[lo]);
        let (dstt, dstv, dsvv) =
            (stt[hi + 1] - stt[lo], stv[hi + 1] - stv[lo], svv[hi + 1] - svv[lo]);
        let ctt = dstt - dst * dst / n;
        let ctv = dstv - dst * dsv / n;
        let cvv = dsvv - dsv * dsv / n;
        if ctt.abs() < 1e-12 {
            return cvv.max(0.0);
        }
        (cvv - ctv * ctv / ctt).max(0.0)
    };
    let mut best = vec![f64::INFINITY; n + 1];
    let mut back = vec![0usize; n + 1];
    best[0] = 0.0;
    for j in 1..=n {
        for i in 0..j {
            let c = best[i] + segment_cost + error_weight * sse(i, j - 1);
            if c < best[j] {
                best[j] = c;
                back[j] = i;
            }
        }
    }
    let mut ranges = Vec::new();
    let mut j = n;
    while j > 0 {
        let i = back[j];
        ranges.push((i, j - 1));
        j = i;
    }
    ranges.reverse();
    ranges
}

/// A deterministic wiggly test signal.
pub fn kernel_signal(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.17).sin() * 3.0 + (i as f64 * 0.031).cos()).collect()
}

/// Times every kernel against its scalar baseline (best of `rounds`,
/// with enough inner repeats per round to dominate timer noise) and
/// checks both formulations still agree on the same input.
pub fn measure_kernels(rounds: usize) -> Vec<KernelReport> {
    let mut reports = Vec::new();
    let mut push = |name, n, scalar: f64, kernel: f64| {
        reports.push(KernelReport {
            name,
            n,
            scalar_seconds: scalar,
            kernel_seconds: kernel,
            speedup: scalar / kernel.max(1e-12),
        });
    };

    // Least-squares regression over a long run.
    let n = 4096;
    let points: Vec<Point> =
        kernel_signal(n).iter().enumerate().map(|(i, &v)| Point::new(i as f64, v)).collect();
    let reg = Line::regression(&points).unwrap();
    let (slope, intercept) = regression_scalar(&points).unwrap();
    assert!(
        (reg.slope - slope).abs() < 1e-9 && (reg.intercept - intercept).abs() < 1e-9,
        "regression kernels agree"
    );
    let (scalar, _) = best_of(rounds, || {
        for _ in 0..256 {
            black_box(regression_scalar(black_box(&points)));
        }
    });
    let (kernel, _) = best_of(rounds, || {
        for _ in 0..256 {
            let _ = black_box(Line::regression(black_box(&points)));
        }
    });
    push("regression", n, scalar, kernel);

    // DP segmentation (O(n²) recurrence) over a medium run.
    let n = 256;
    let seq = Sequence::from_samples(&kernel_signal(n)).unwrap();
    let dp = DynamicProgrammingBreaker::new(2.0, 1.0);
    assert_eq!(dp.break_ranges(&seq), dp_break_scalar(&seq, 2.0, 1.0), "dp kernels agree");
    let (scalar, _) = best_of(rounds, || {
        for _ in 0..4 {
            black_box(dp_break_scalar(black_box(&seq), 2.0, 1.0));
        }
    });
    let (kernel, _) = best_of(rounds, || {
        for _ in 0..4 {
            black_box(dp.break_ranges(black_box(&seq)));
        }
    });
    push("dp_break", n, scalar, kernel);

    // Naive DFT: twiddle table vs a sin/cos pair per inner-loop step.
    let n = 192;
    let x = kernel_signal(n);
    let fast = saq_baseline::dft::naive_dft(&x);
    for (u, v) in naive_dft_scalar(&x).iter().zip(&fast) {
        assert!((u.re - v.re).abs() < 1e-8 && (u.im - v.im).abs() < 1e-8, "dft kernels agree");
    }
    let (scalar, _) = best_of(rounds, || {
        for _ in 0..4 {
            black_box(naive_dft_scalar(black_box(&x)));
        }
    });
    let (kernel, _) = best_of(rounds, || {
        for _ in 0..4 {
            black_box(saq_baseline::dft::naive_dft(black_box(&x)));
        }
    });
    push("naive_dft", n, scalar, kernel);

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_baselines_agree_with_kernels() {
        // measure_kernels asserts agreement internally; one round keeps
        // the test fast while still exercising every pair.
        let reports = measure_kernels(1);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.scalar_seconds > 0.0 && r.kernel_seconds > 0.0, "{r:?}");
        }
    }

    #[test]
    fn dp_scalar_matches_breaker_on_edge_shapes() {
        let dp = DynamicProgrammingBreaker::new(1.0, 1.0);
        for vals in [vec![7.0], vec![0.0, 1.0, 2.0, 3.0], kernel_signal(40)] {
            let s = Sequence::from_samples(&vals).unwrap();
            assert_eq!(dp.break_ranges(&s), dp_break_scalar(&s, 1.0, 1.0));
        }
        assert!(dp_break_scalar(&Sequence::new(vec![]).unwrap(), 1.0, 1.0).is_empty());
    }
}
