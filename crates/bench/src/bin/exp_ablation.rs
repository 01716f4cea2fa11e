//! Ablation of the breaking template's design choices (DESIGN.md §6):
//! breakpoint-side assignment (Fig. 8 steps 4a–4c), singleton merging, and
//! post-hoc coalescing — measured on segment counts, fragmentation, ε
//! compliance, and goal-post query accuracy.

use saq_bench::{banner, fnum, goalpost_corpus};
use saq_core::alphabet::{goalpost_pattern, series_symbols, DEFAULT_THETA};
use saq_core::brk::{BreakOptions, Breaker, OfflineBreaker};
use saq_core::repr::FunctionSeries;
use saq_curves::EndpointInterpolator;
use saq_ecg::synth::{synthesize, EcgSpec};

fn variants() -> Vec<(&'static str, BreakOptions)> {
    vec![
        ("full (paper)", BreakOptions::default()),
        (
            "no side assignment",
            BreakOptions { assign_breakpoint_side: false, ..BreakOptions::default() },
        ),
        ("no singleton merge", BreakOptions { merge_singletons: false, ..BreakOptions::default() }),
        ("with coalescing", BreakOptions { coalesce: true, ..BreakOptions::default() }),
        (
            "bare recursion",
            BreakOptions {
                assign_breakpoint_side: false,
                merge_singletons: false,
                coalesce: false,
            },
        ),
    ]
}

fn main() {
    banner("ablation", "design choices of the Fig. 8 template");

    // --- ECG: segment counts and deviation at eps = 10.
    let ecg = synthesize(EcgSpec { noise: 3.0, rr_jitter: 2.0, ..EcgSpec::default() });
    println!("ECG (500 samples, noise 3.0, eps = 10):");
    println!("variant             | segments | singletons | frag % long | max dev");
    for (name, opts) in variants() {
        let breaker = OfflineBreaker::with_options(EndpointInterpolator, 10.0, opts);
        let ranges = breaker.break_ranges(&ecg);
        let singles = ranges.iter().filter(|(lo, hi)| lo == hi).count();
        let long = ranges.iter().filter(|(lo, hi)| hi - lo + 1 > 2).count();
        let series = FunctionSeries::build(&ecg, &ranges, &EndpointInterpolator).unwrap();
        println!(
            "{:19} | {:>8} | {:>10} | {:>10}% | {}",
            name,
            ranges.len(),
            singles,
            (100 * long) / ranges.len(),
            fnum(series.max_deviation_from(&ecg))
        );
    }

    // --- Goal-post corpus: query accuracy per variant.
    println!("\ngoal-post query accuracy over the 7-member corpus:");
    let corpus = goalpost_corpus();
    let goalpost = goalpost_pattern();
    let dfa = goalpost.compile();
    for (name, opts) in variants() {
        let breaker = OfflineBreaker::with_options(EndpointInterpolator, 1.0, opts);
        let mut correct = 0;
        for (_, seq, true_peaks) in &corpus {
            let ranges = breaker.break_ranges(seq);
            let series = FunctionSeries::build(seq, &ranges, &EndpointInterpolator).unwrap();
            // Same singleton-flat filtering the store applies.
            let ids: Vec<u8> = series_symbols(&series, DEFAULT_THETA)
                .into_iter()
                .zip(series.segments())
                .filter(|(sym, seg)| {
                    !(seg.len() == 1 && *sym == saq_core::alphabet::SlopeSymbol::Flat)
                })
                .map(|(sym, _)| sym.id())
                .collect();
            let matched = dfa.is_match(&ids);
            if matched == (*true_peaks == 2) {
                correct += 1;
            }
        }
        println!("  {:19} -> {correct}/7", name);
    }
    // --- Apex placement on asymmetric tents: the side-assignment steps
    // decide whether the apex sample joins the rising or descending run;
    // on an asymmetric tent the apex is closer to the shallow side's line,
    // and steps 4a-4c put it there.
    println!("\napex ownership on an asymmetric tent (rise slope 1, fall slope -4):");
    let tent = saq_sequence::generators::piecewise_linear(&[
        (0.0, 0.0),
        (20.0, 20.0),
        (25.0, 0.0),
        (45.0, 0.0),
    ]);
    for (name, opts) in [
        ("full (paper)", BreakOptions::default()),
        (
            "no side assignment",
            BreakOptions { assign_breakpoint_side: false, ..BreakOptions::default() },
        ),
    ] {
        let breaker = OfflineBreaker::with_options(EndpointInterpolator, 0.5, opts);
        let ranges = breaker.break_ranges(&tent);
        // Which segment contains index 20 (the apex)?
        let owner = ranges.iter().position(|&(lo, hi)| (lo..=hi).contains(&20)).unwrap();
        let (lo, hi) = ranges[owner];
        let side = if hi == 20 {
            "last of rising"
        } else if lo == 20 {
            "first of falling"
        } else {
            "interior"
        };
        println!("  {:19} -> apex sample is {} (segment [{lo},{hi}])", name, side);
    }

    println!("\nshape check: the full template dominates or ties every ablation;");
    println!("coalescing trims fragments without breaching eps, and the 4a-4c");
    println!("side assignment places the apex with the line it actually fits.");
}
