//! # saq-bench
//!
//! Experiment binaries regenerating every figure and table of the paper
//! (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured records).
//!
//! Each binary prints a self-contained report; `cargo run -p saq-bench
//! --bin <name>` regenerates one artifact. This library holds the shared
//! formatting and corpus helpers.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod planner;
pub mod streaming;

use saq_sequence::Sequence;

/// Reads a workload-size knob from the environment (CI smoke-runs cap the
/// heavy experiments via `SAQ_EXP_*`; binaries with scalable workloads
/// should size them through these helpers rather than hard-coding).
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// As [`env_usize`] for floating-point knobs.
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// Renders a sequence as a compact ASCII sparkline (for eyeballing shapes
/// in terminal output, standing in for the paper's plots).
pub fn sparkline(seq: &Sequence, width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if seq.is_empty() || width == 0 {
        return String::new();
    }
    let stats = seq.stats();
    let range = if stats.range() > 0.0 { stats.range() } else { 1.0 };
    let vals = seq.values();
    let n = vals.len();
    (0..width.min(n))
        .map(|i| {
            let idx = i * n / width.min(n);
            let frac = (vals[idx] - stats.min) / range;
            LEVELS[((frac * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Formats a float tersely for table cells.
pub fn fnum(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Today's date as `YYYY-MM-DD` (UTC), without a calendar dependency:
/// the classic civil-from-days conversion. `SAQ_BENCH_DATE` overrides it
/// for reproducible harness output.
pub fn bench_date() -> String {
    if let Ok(date) = std::env::var("SAQ_BENCH_DATE") {
        return date;
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The corpus used by the goal-post experiments: `(label, sequence,
/// true peak count)`.
pub fn goalpost_corpus() -> Vec<(String, Sequence, usize)> {
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
    let mut corpus: Vec<(String, Sequence, usize)> =
        vec![("goalpost/base".into(), goalpost(GoalpostSpec::default()), 2)];
    corpus.push((
        "goalpost/shifted".into(),
        goalpost(GoalpostSpec { peak1: 10.0, peak2: 20.0, ..GoalpostSpec::default() }),
        2,
    ));
    corpus.push((
        "goalpost/contracted".into(),
        goalpost(GoalpostSpec { peak1: 4.0, peak2: 9.5, width: 1.0, ..GoalpostSpec::default() }),
        2,
    ));
    corpus.push((
        "goalpost/taller".into(),
        goalpost(GoalpostSpec { amplitude: 10.5, ..GoalpostSpec::default() }),
        2,
    ));
    corpus.push((
        "one-peak".into(),
        peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }),
        1,
    ));
    corpus.push((
        "three-peaks".into(),
        peaks(PeaksSpec { centers: vec![5.0, 12.0, 19.0], ..PeaksSpec::default() }),
        3,
    ));
    corpus.push((
        "flat".into(),
        peaks(PeaksSpec { centers: vec![], noise: 0.05, ..PeaksSpec::default() }),
        0,
    ));
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        let tent = Sequence::from_samples(&[0.0, 5.0, 10.0, 5.0, 0.0]).unwrap();
        let s = sparkline(&tent, 5);
        assert_eq!(s.chars().count(), 5);
        assert!(s.contains('█'));
        assert_eq!(sparkline(&Sequence::new(vec![]).unwrap(), 10), "");
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(123.4), "123");
        assert_eq!(fnum(3.14881), "3.15");
        assert_eq!(fnum(0.1234), "0.123");
    }

    #[test]
    fn civil_from_days_hits_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }

    #[test]
    fn corpus_has_expected_labels() {
        let c = goalpost_corpus();
        assert_eq!(c.len(), 7);
        assert_eq!(c.iter().filter(|(_, _, k)| *k == 2).count(), 4);
    }
}
