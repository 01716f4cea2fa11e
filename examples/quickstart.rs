//! Quickstart: break a sequence, inspect its function-series representation,
//! and run a generalized approximate query.
//!
//! Run with `cargo run --example quickstart`.

use saq::core::algebra::{QueryEngine as _, StoreEngine};
use saq::core::alphabet::{series_symbols, symbols_to_string, DEFAULT_THETA};
use saq::core::brk::{Breaker, LinearInterpolationBreaker};
use saq::core::repr::FunctionSeries;
use saq::core::request::QueryRequest;
use saq::core::store::{SequenceStore, StoreConfig};
use saq::curves::RegressionFitter;
use saq::sequence::generators::{goalpost, GoalpostSpec};

fn main() {
    // A 24-hour temperature log with the goal-post fever pattern (Fig. 3).
    let log = goalpost(GoalpostSpec::default());
    println!("raw sequence: {} samples over {:.0} hours", log.len(), log.duration().unwrap());

    // 1. Break at behaviour changes (linear-interpolation instantiation of
    //    the Fig. 8 template, tolerance eps = 1 degree F).
    let breaker = LinearInterpolationBreaker::new(1.0);
    let ranges = breaker.break_ranges(&log);
    println!("broken into {} subsequences at eps = 1.0", ranges.len());

    // 2. Represent each subsequence by its regression line (Fig. 6 style).
    let series = FunctionSeries::build(&log, &ranges, &RegressionFitter).unwrap();
    println!("\nsegment | span (h)      | regression line");
    for (i, seg) in series.segments().iter().enumerate() {
        println!("{:>7} | [{:>4.1}, {:>4.1}] | {}", i, seg.start.t, seg.end.t, seg.curve.formula());
    }

    // 3. Compression accounting (§5.2).
    let report = series.compression();
    println!(
        "\ncompression: {} points -> {} segments ({} parameters), factor {:.1}x",
        report.original_points,
        report.segments,
        report.parameters,
        report.ratio()
    );

    // 4. The slope-sign string the pattern index sees (§4.4).
    let symbols = series_symbols(&series, DEFAULT_THETA);
    println!("slope symbols (theta = {DEFAULT_THETA}): {}", symbols_to_string(&symbols));

    // 5. Store it and ask the goal-post fever query.
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let id = store.insert(&log).unwrap();
    let query = QueryRequest::saql(r#"shape "0* 1+ (-1)+ 0* 1+ (-1)+ 0*""#);
    let outcome = StoreEngine::new(&store).request(&query).unwrap().outcome;
    println!("\ngoal-post query exact matches: {:?} (our log is id {id})", outcome.exact);
}
