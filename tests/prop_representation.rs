//! Property-based tests of representation invariants: ε-bounded deviation
//! of the stored representation, in-span evaluation, compression accounting,
//! and normalization/wavelet roundtrips from the preprocessing substrate.

use proptest::prelude::*;
use saq::archive::compute_doc;
use saq::core::algebra::{Pred, PreparedPred};
use saq::core::brk::{Breaker, LinearInterpolationBreaker};
use saq::core::query::{QuerySpec, SequenceMatch};
use saq::core::repr::FunctionSeries;
use saq::core::store::{BreakerKind, StoreConfig, StoredEntry};
use saq::curves::EndpointInterpolator;
use saq::index::OwnedDoc;
use saq::preprocess::{dwt, idwt, z_normalize, Wavelet};
use saq::sequence::Sequence;

/// The two steepness readings spelled out over an entry's peaks: `all`
/// is exact when every peak is at least `steepness` steep and `any` when
/// one is; within the `slack` band the deviation is how far the deciding
/// peak (the least steep for `all`, the steepest for `any`) falls short.
fn steepness_reference(
    entry: &StoredEntry,
    all: bool,
    steepness: f64,
    slack: f64,
) -> Option<SequenceMatch> {
    let peaks: Vec<f64> = entry.peaks.peaks.iter().map(|p| p.steepness()).collect();
    let holds = |floor: f64| {
        if all {
            !peaks.is_empty() && peaks.iter().all(|&s| s >= floor)
        } else {
            peaks.iter().any(|&s| s >= floor)
        }
    };
    let deciding = if all {
        peaks.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        peaks.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    if holds(steepness) {
        Some(SequenceMatch::Exact)
    } else if holds(steepness * (1.0 - slack)) {
        Some(SequenceMatch::Approximate(steepness - deciding))
    } else {
        None
    }
}

fn arb_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 2..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Five values per sequence decide every feature leaf: for random
    /// sequences under both breakers and random ε/θ, the verdict from the
    /// feature document — as computed, and after its storage round trip —
    /// equals the verdict from the full stored entry, tier and deviation
    /// alike, for shape, peak count, peak interval and both steepness
    /// readings.
    #[test]
    fn documents_decide_feature_leaves_like_entries(
        values in arb_values(120),
        eps in 0.0f64..30.0,
        theta in 0.0f64..3.0,
        breaker in 0u64..2,
        pattern in prop_oneof![
            Just("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
            Just("(0|1|(-1))* 1 (-1)"),
            Just("(-1)+"),
        ],
        count in 0usize..6,
        tolerance in 0usize..3,
        interval in -2i64..12,
        epsilon in -1i64..4,
        steepness in 0.0f64..150.0,
        slack in 0.0f64..1.0,
    ) {
        let breaker = if breaker == 0 { BreakerKind::Offline } else { BreakerKind::Online };
        let config = StoreConfig { epsilon: eps, theta, breaker, ..StoreConfig::default() };
        let seq = Sequence::from_samples(&values).unwrap();
        let entry = StoredEntry::compute(&seq, &config).unwrap();
        let doc = compute_doc(&seq, &config).unwrap();
        let stored = OwnedDoc::decode(&doc.encode()).unwrap();
        let specs = [
            QuerySpec::Shape { pattern: pattern.to_string() },
            QuerySpec::PeakCount { count, tolerance },
            QuerySpec::PeakInterval { interval, epsilon },
            QuerySpec::MinPeakSteepness { steepness, slack },
            QuerySpec::HasSteepPeak { steepness, slack },
        ];
        for spec in specs {
            let reference = match spec {
                QuerySpec::MinPeakSteepness { .. } => Some(true),
                QuerySpec::HasSteepPeak { .. } => Some(false),
                _ => None,
            }
            .map(|all| steepness_reference(&entry, all, steepness, slack));
            let pred = PreparedPred::new(&Pred::Feature(spec)).unwrap();
            let expected = pred.matches(7, Some(&entry));
            if let Some(reference) = reference {
                prop_assert_eq!(expected, reference, "{:?}", pred.pred());
            }
            prop_assert_eq!(pred.matches_doc(&doc.as_doc()), expected, "{:?}", pred.pred());
            prop_assert_eq!(pred.matches_doc(&stored.as_doc()), expected, "{:?}", pred.pred());
        }
    }

    #[test]
    fn interpolation_representation_respects_epsilon(
        values in arb_values(100),
        eps in 0.5f64..8.0,
    ) {
        // With the same fitter used for breaking, the stored representation
        // deviates from the raw data by at most eps (multi-point segments)
        // and exactly hits singletons.
        let seq = Sequence::from_samples(&values).unwrap();
        let ranges = LinearInterpolationBreaker::new(eps).break_ranges(&seq);
        let series = FunctionSeries::build(&seq, &ranges, &EndpointInterpolator).unwrap();
        prop_assert!(series.max_deviation_from(&seq) <= eps + 1e-9);
    }

    #[test]
    fn value_at_is_exact_at_segment_endpoints(values in arb_values(60)) {
        let seq = Sequence::from_samples(&values).unwrap();
        let ranges = LinearInterpolationBreaker::new(1.0).break_ranges(&seq);
        let series = FunctionSeries::build(&seq, &ranges, &EndpointInterpolator).unwrap();
        for seg in series.segments() {
            prop_assert!((series.value_at(seg.start.t).unwrap() - seg.start.v).abs() < 1e-9);
            prop_assert!((series.value_at(seg.end.t).unwrap() - seg.end.v).abs() < 1e-9);
        }
    }

    #[test]
    fn reconstruction_covers_span(values in arb_values(60)) {
        let seq = Sequence::from_samples(&values).unwrap();
        let ranges = LinearInterpolationBreaker::new(1.0).break_ranges(&seq);
        let series = FunctionSeries::build(&seq, &ranges, &EndpointInterpolator).unwrap();
        let rec = series.reconstruct(seq.len().max(2)).unwrap();
        let (lo, hi) = series.span();
        prop_assert_eq!(rec.first().unwrap().t, lo);
        prop_assert_eq!(rec.last().unwrap().t, hi);
    }

    #[test]
    fn compression_parameters_formula(values in arb_values(120)) {
        let seq = Sequence::from_samples(&values).unwrap();
        let ranges = LinearInterpolationBreaker::new(2.0).break_ranges(&seq);
        let series = FunctionSeries::build(&seq, &ranges, &EndpointInterpolator).unwrap();
        let report = series.compression();
        // Lines: 2 params + 2 breakpoints per segment.
        prop_assert_eq!(report.parameters, 4 * report.segments);
        prop_assert_eq!(report.original_points, seq.len());
        prop_assert!(report.ratio() > 0.0);
    }

    #[test]
    fn z_normalization_is_invertible_and_standard(values in arb_values(80)) {
        let seq = Sequence::from_samples(&values).unwrap();
        let (z, params) = z_normalize(&seq);
        let stats = z.stats();
        prop_assert!(stats.mean.abs() < 1e-8);
        // Non-constant inputs end up with unit variance.
        if seq.stats().std_dev > 1e-9 {
            prop_assert!((stats.variance - 1.0).abs() < 1e-6);
        }
        for (orig, norm) in seq.points().iter().zip(z.points()) {
            prop_assert!((params.denormalize(norm.v) - orig.v).abs() < 1e-6);
        }
    }

    #[test]
    fn wavelet_roundtrip_identity(
        values in prop::collection::vec(-100.0f64..100.0, 1..6usize)
            .prop_map(|seed| {
                // Build a power-of-two length from the seed.
                let n = 1usize << (seed.len() + 2);
                (0..n).map(|i| seed[i % seed.len()] * ((i as f64 * 0.1).sin() + 1.0)).collect::<Vec<f64>>()
            })
    ) {
        for w in [Wavelet::Haar, Wavelet::Daubechies4] {
            let back = idwt(&dwt(&values, w), w);
            for (a, b) in values.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-6, "{w:?}");
            }
        }
    }
}
