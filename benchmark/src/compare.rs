//! `compare <a.json> <b.json>`: two result files, one row per workload and
//! end-to-end metric (choosing-metrics guide §6.5).

use crate::json::Json;
use crate::workload::{EndToEnd, END_TO_END};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The recorded spread is wider than the bound, and the difference does
    /// not clear it: neither a regression nor its absence is shown.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges `b` against its base `a`. A difference counts only when it
/// exceeds both the metric's bound and the wider of the two recorded
/// spreads; within that, a spread wider than the bound leaves the metric
/// unresolved rather than unchanged.
pub fn verdict(metric: &EndToEnd, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let worse_by = if metric.higher_is_better { (a - b) / a } else { (b - a) / a };
    let spread = spread_a.max(spread_b);
    let clears = metric.bound.max(spread);
    if worse_by > clears {
        Verdict::Worse
    } else if worse_by < -clears {
        Verdict::Better
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn failed_share(workload: &Json) -> f64 {
    let number = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    number("failed") / number("attempted").max(1.0)
}

/// Prints the comparison; `Ok(true)` when nothing got worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |doc: &Json| doc.get("workloads").map(Json::members).map(<[_]>::to_vec);
    let base = workloads(a).ok_or("the first file has no `workloads`")?;
    let mut clean = true;
    println!("workload metric a b b/a bound spread_a spread_b verdict");
    for (name, base_run) in &base {
        let Some(run) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name} - missing from the second file");
            clean = false;
            continue;
        };
        for metric in &END_TO_END {
            let field = |doc: &Json, key| {
                doc.get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (field(base_run, "value"), field(run, "value")) else {
                println!("{name} {} missing", metric.name);
                clean = false;
                continue;
            };
            let (sa, sb) =
                (field(base_run, "spread").unwrap_or(0.0), field(run, "spread").unwrap_or(0.0));
            let verdict = verdict(metric, va, vb, sa, sb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{name} {} {va} {vb} {:.4} (base {va} {}) {} {sa:.3} {sb:.3} {verdict}",
                metric.name,
                vb / va,
                metric.unit,
                metric.bound
            );
        }
        let (fa, fb) = (failed_share(base_run), failed_share(run));
        let rose = fb > fa;
        clean &= !rose;
        println!(
            "{name} failed_ops_share {fa} {fb} - 0 - - {}",
            if rose { "worse" } else { "same" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let metric =
            |higher_is_better| EndToEnd { name: "m", unit: "u", higher_is_better, bound: 0.1 };
        let latency = &metric(false);
        assert_eq!(verdict(latency, 100.0, 105.0, 0.01, 0.01), Verdict::Same);
        assert_eq!(verdict(latency, 100.0, 115.0, 0.01, 0.01), Verdict::Worse);
        assert_eq!(verdict(latency, 100.0, 50.0, 0.01, 0.01), Verdict::Better);
        // A spread wider than the bound: small differences are unresolved,
        // and a difference must clear the spread to count.
        assert_eq!(verdict(latency, 100.0, 105.0, 0.3, 0.01), Verdict::Unresolved);
        assert_eq!(verdict(latency, 100.0, 120.0, 0.3, 0.01), Verdict::Unresolved);
        assert_eq!(verdict(latency, 100.0, 140.0, 0.3, 0.01), Verdict::Worse);
        let rate = &metric(true);
        assert_eq!(verdict(rate, 20.0, 10.0, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(rate, 20.0, 40.0, 0.0, 0.0), Verdict::Better);
    }

    #[test]
    fn a_rise_in_failures_or_a_worse_metric_fails_the_comparison() {
        let doc = |scan: f64, failed: u64| {
            let metrics = END_TO_END.iter().map(|m| {
                let value = if m.name == "scan_p50_ms" { scan } else { 1.0 };
                (m.name, Json::obj([("value", Json::Num(value)), ("spread", Json::Num(0.0))]))
            });
            let run = Json::obj([
                ("attempted", Json::from(100u64)),
                ("failed", Json::from(failed)),
                ("metrics", Json::obj(metrics)),
            ]);
            Json::obj([("workloads", Json::obj([("ward_warm", run)]))])
        };
        assert_eq!(compare(&doc(90.0, 0), &doc(91.0, 0)), Ok(true));
        assert_eq!(compare(&doc(90.0, 0), &doc(120.0, 0)), Ok(false));
        assert_eq!(compare(&doc(90.0, 0), &doc(90.0, 1)), Ok(false));
        assert!(compare(&Json::Null, &doc(90.0, 0)).is_err());
    }
}
