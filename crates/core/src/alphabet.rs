//! The slope-sign alphabet `{−1, 0, +1}` of §4.4.
//!
//! "An index structure... is maintained on the positiveness of the
//! functions' slopes. For a fixed small number θ there are 3 possible index
//! values: +1 (slope > θ), −1 (slope < −θ), or 0 (slope between −θ and θ).
//! We take θ = 0.25."
//!
//! Symbols render as characters `u` (up, +1), `d` (down, −1), `f` (flat, 0)
//! for the pattern language; [`parse_slope_pattern`] additionally accepts
//! the paper's own notation (`1`, `-1` / `(-1)`, `0`).

use crate::repr::FunctionSeries;
use saq_curves::Curve;
use saq_pattern::{Alphabet, Regex};
use serde::{Deserialize, Serialize};

/// The paper's default θ.
pub const DEFAULT_THETA: f64 = 0.25;

/// A quantized slope sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlopeSymbol {
    /// Slope < −θ (the paper's −1).
    Down,
    /// |slope| ≤ θ (the paper's 0).
    Flat,
    /// Slope > θ (the paper's +1).
    Up,
}

impl SlopeSymbol {
    /// Quantizes a slope with threshold θ.
    pub fn quantize(slope: f64, theta: f64) -> SlopeSymbol {
        if slope > theta {
            SlopeSymbol::Up
        } else if slope < -theta {
            SlopeSymbol::Down
        } else {
            SlopeSymbol::Flat
        }
    }

    /// Dense id used by the pattern engine (`u`=0, `d`=1, `f`=2 — matching
    /// [`slope_alphabet`]'s symbol order).
    pub fn id(self) -> u8 {
        match self {
            SlopeSymbol::Up => 0,
            SlopeSymbol::Down => 1,
            SlopeSymbol::Flat => 2,
        }
    }

    /// Character rendering.
    pub fn as_char(self) -> char {
        match self {
            SlopeSymbol::Up => 'u',
            SlopeSymbol::Down => 'd',
            SlopeSymbol::Flat => 'f',
        }
    }

    /// The paper's numeric rendering (+1/−1/0).
    pub fn as_paper(self) -> i8 {
        match self {
            SlopeSymbol::Up => 1,
            SlopeSymbol::Down => -1,
            SlopeSymbol::Flat => 0,
        }
    }
}

/// The three-symbol alphabet `['u', 'd', 'f']` shared by all slope patterns.
pub fn slope_alphabet() -> Alphabet {
    Alphabet::new(&['u', 'd', 'f']).expect("static alphabet is valid")
}

/// Quantizes every segment slope of a representation (θ-thresholded).
pub fn series_symbols<C: Curve + Clone>(
    series: &FunctionSeries<C>,
    theta: f64,
) -> Vec<SlopeSymbol> {
    series.slopes().into_iter().map(|s| SlopeSymbol::quantize(s, theta)).collect()
}

/// Symbol ids for the pattern engine.
pub fn symbol_ids(symbols: &[SlopeSymbol]) -> Vec<u8> {
    symbols.iter().map(|s| s.id()).collect()
}

/// Renders symbols as a `u`/`d`/`f` string.
pub fn symbols_to_string(symbols: &[SlopeSymbol]) -> String {
    symbols.iter().map(|s| s.as_char()).collect()
}

/// Parses a slope pattern in either notation:
/// * character form: `f* u+ d+ f*`,
/// * the paper's numeric form: `0* 1+ (-1)+ 0*` (with `-1` usable bare or
///   parenthesized).
pub fn parse_slope_pattern(pattern: &str) -> crate::Result<Regex> {
    // Rewrite the paper notation into character symbols. `(-1)` must be
    // handled before `(`-grouping is interpreted, and `-1` before `1`.
    let rewritten =
        pattern.replace("(-1)", "d").replace("-1", "d").replace('1', "u").replace('0', "f");
    Ok(Regex::parse(&rewritten, &slope_alphabet())?)
}

/// The goal-post fever query of §4.4: exactly two peaks.
pub fn goalpost_pattern() -> Regex {
    parse_slope_pattern("0* 1+ (-1)+ 0* 1+ (-1)+ 0*").expect("static pattern is valid")
}

/// A single-peak pattern `1+ (-1)+` used for peak scanning.
pub fn peak_pattern() -> Regex {
    parse_slope_pattern("1+ (-1)+").expect("static pattern is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brk::{Breaker, LinearInterpolationBreaker};
    use crate::repr::FunctionSeries;
    use saq_curves::RegressionFitter;
    use saq_sequence::generators::{goalpost, GoalpostSpec};

    #[test]
    fn quantization_thresholds() {
        assert_eq!(SlopeSymbol::quantize(0.3, 0.25), SlopeSymbol::Up);
        assert_eq!(SlopeSymbol::quantize(-0.3, 0.25), SlopeSymbol::Down);
        assert_eq!(SlopeSymbol::quantize(0.25, 0.25), SlopeSymbol::Flat);
        assert_eq!(SlopeSymbol::quantize(-0.25, 0.25), SlopeSymbol::Flat);
        assert_eq!(SlopeSymbol::quantize(0.0, 0.0), SlopeSymbol::Flat);
        assert_eq!(SlopeSymbol::quantize(0.1, 0.0), SlopeSymbol::Up);
    }

    #[test]
    fn renderings_consistent() {
        for s in [SlopeSymbol::Up, SlopeSymbol::Down, SlopeSymbol::Flat] {
            assert_eq!(slope_alphabet().id_of(s.as_char()), Some(s.id()));
        }
        assert_eq!(SlopeSymbol::Up.as_paper(), 1);
        assert_eq!(SlopeSymbol::Down.as_paper(), -1);
        assert_eq!(SlopeSymbol::Flat.as_paper(), 0);
    }

    #[test]
    fn paper_notation_equivalent_to_char_notation() {
        let a = parse_slope_pattern("0* 1+ (-1)+ 0*").unwrap();
        let b = parse_slope_pattern("f* u+ d+ f*").unwrap();
        assert_eq!(a.ast(), b.ast());
        // Bare -1 also works.
        let c = parse_slope_pattern("0* 1+ -1+ 0*").unwrap();
        assert_eq!(a.ast(), c.ast());
    }

    #[test]
    fn goalpost_series_matches_goalpost_pattern() {
        let log = goalpost(GoalpostSpec::default());
        let ranges = LinearInterpolationBreaker::new(1.0).break_ranges(&log);
        let series = FunctionSeries::build(&log, &ranges, &RegressionFitter).unwrap();
        let symbols = series_symbols(&series, DEFAULT_THETA);
        let ids = symbol_ids(&symbols);
        assert!(goalpost_pattern().compile().is_match(&ids), "{}", symbols_to_string(&symbols));
    }

    #[test]
    fn one_peak_does_not_match_goalpost() {
        use saq_sequence::generators::{peaks, PeaksSpec};
        let log = peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() });
        let ranges = LinearInterpolationBreaker::new(1.0).break_ranges(&log);
        let series = FunctionSeries::build(&log, &ranges, &RegressionFitter).unwrap();
        let ids = symbol_ids(&series_symbols(&series, DEFAULT_THETA));
        assert!(!goalpost_pattern().compile().is_match(&ids));
        // But the single-peak pattern finds exactly one peak.
        let matches = peak_pattern().compile().find_matches(&ids);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn symbols_to_string_roundtrip() {
        let syms = vec![SlopeSymbol::Up, SlopeSymbol::Down, SlopeSymbol::Flat];
        assert_eq!(symbols_to_string(&syms), "udf");
        let ids = symbol_ids(&syms);
        assert_eq!(slope_alphabet().decode(&ids).unwrap(), "udf");
    }
}
