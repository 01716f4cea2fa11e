//! Figure 7: "Three two-peaks sequences broken at extrema by our algorithm
//! and approximated by regression lines" — consistency of breaking across
//! transformed variants of the same pattern.

use saq_bench::{banner, sparkline};
use saq_core::alphabet::{series_symbols, symbols_to_string, DEFAULT_THETA};
use saq_core::brk::{Breaker, LinearInterpolationBreaker};
use saq_core::repr::FunctionSeries;
use saq_curves::RegressionFitter;
use saq_sequence::generators::{peaks, PeaksSpec};

fn main() {
    banner("Fig. 7", "three two-peak variants break at corresponding extrema");

    let variants = vec![
        (
            "narrow peaks early",
            peaks(PeaksSpec {
                duration: 26.0,
                dt: 1.0,
                baseline: 97.0,
                centers: vec![7.0, 17.0],
                width: 2.2,
                amplitude: 8.0,
                noise: 0.2,
                seed: 71,
            }),
        ),
        (
            "wider peaks centred",
            peaks(PeaksSpec {
                duration: 50.0,
                dt: 1.0,
                baseline: 97.0,
                centers: vec![14.0, 36.0],
                width: 4.0,
                amplitude: 7.0,
                noise: 0.2,
                seed: 72,
            }),
        ),
        (
            "asymmetric amplitudes",
            peaks(PeaksSpec {
                duration: 50.0,
                dt: 1.0,
                baseline: 97.0,
                centers: vec![10.0, 33.0],
                width: 3.0,
                amplitude: 6.5,
                noise: 0.2,
                seed: 73,
            }),
        ),
    ];

    let breaker = LinearInterpolationBreaker::new(1.0);
    for (name, seq) in &variants {
        let ranges = breaker.break_ranges(seq);
        let series = FunctionSeries::build(seq, &ranges, &RegressionFitter).unwrap();
        let symbols = symbols_to_string(&series_symbols(&series, DEFAULT_THETA));
        println!("\n{name}: {}", sparkline(seq, 50));
        println!("  slope string: {symbols}");
        for seg in series.segments() {
            print!("  {}", seg.curve.formula());
        }
        println!();
        // Consistency: all three carry the two-peak u+d+ ... u+d+ structure.
        let goalpost = saq_core::alphabet::goalpost_pattern();
        let dfa = goalpost.compile();
        let ids: Vec<u8> = symbols
            .chars()
            .map(|c| saq_core::alphabet::slope_alphabet().id_of(c).unwrap())
            .collect();
        println!("  matches goal-post pattern: {}", if dfa.is_match(&ids) { "YES" } else { "no" });
    }
    println!("\nshape check: all three variants break into the same u/d structure");
    println!("(consistency, the first requirement of Sec. 4.3).");
}
