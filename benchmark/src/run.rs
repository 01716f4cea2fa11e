//! The untraced run of one workload: repeated set-up, the socket phase,
//! and the end-to-end values.

use crate::json::Json;
use crate::lifecycle::{self, SetUp};
use crate::serve::{self, OpClass, ServePlan, ServeReport};
use crate::stats;
use crate::workload::{self, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

pub struct Options {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Small corpora and no percentile support check: proves the plumbing
    /// in seconds, measures nothing.
    pub smoke: bool,
    pub corrupt_oracle: bool,
    /// Where result files and scratch directories go.
    pub out: PathBuf,
}

impl Options {
    pub fn sequences(&self, workload: &Workload) -> usize {
        if self.smoke {
            workload.smoke_sequences
        } else {
            workload.sequences
        }
    }

    pub fn setups(&self, workload: &Workload) -> usize {
        if self.smoke {
            1
        } else {
            workload.setups
        }
    }

    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.5 } else { 2.0 })
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// `(max - min) / median` of the value re-taken on each third of the
    /// phase (or across set-up repetitions).
    pub spread: f64,
}

/// What one workload's run or trace produced.
pub struct Outcome {
    pub workload: &'static str,
    /// The catalogued metrics, in catalogue order.
    pub values: Vec<Value>,
    /// Readings printed and recorded beside them but not handed to the
    /// driver: they repeat too loosely to carry a bound.
    pub extras: Vec<Value>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> Json {
        let metrics = self.values.iter().map(|v| {
            (
                v.name.clone(),
                Json::obj([("value", Json::Num(v.value)), ("unit", Json::from(v.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failures.len() as u64)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }

    /// The same, with sample counts, spreads and failure texts.
    pub fn detail(&self) -> Json {
        let metrics = self.values.iter().chain(&self.extras).map(|v| {
            let fields = [
                ("value", Json::Num(v.value)),
                ("unit", Json::from(v.unit)),
                ("samples", Json::from(v.samples as u64)),
                ("spread", Json::Num(v.spread)),
            ];
            (v.name.clone(), Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(self.failures.iter().take(20).map(|f| Json::from(f.as_str())).collect()),
            ),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }

    /// `workload metric value unit`, one line per value.
    pub fn print(&self) {
        for v in self.values.iter().chain(&self.extras) {
            println!(
                "{} {} {} {}  (n={} spread={:.3})",
                self.workload, v.name, v.value, v.unit, v.samples, v.spread
            );
        }
        let failed = self.failures.len() as f64 / self.attempted.max(1) as f64;
        println!("{} failed_ops_share {failed} ratio  (n={})", self.workload, self.attempted);
        for failure in self.failures.iter().take(20) {
            println!("{} FAILED {failure}", self.workload);
        }
    }
}

/// A scratch directory under `out`, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out: &Path, tag: &str) -> std::io::Result<Scratch> {
        let path = out.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// Median of one set-up reading across passes, with its spread.
fn across_setups(
    name: &str,
    unit: &'static str,
    setups: &[SetUp],
    field: impl Fn(&SetUp) -> f64,
) -> Value {
    let mut readings: Vec<f64> = setups.iter().map(field).collect();
    let spread = stats::spread(&readings);
    Value {
        name: name.into(),
        value: stats::median(&mut readings),
        unit,
        samples: setups.len(),
        spread,
    }
}

/// `statistic` of the samples, and its spread over the phase's thirds.
fn over_thirds(
    samples: &[(f64, f64)],
    seconds: f64,
    statistic: impl Fn(&mut Vec<f64>) -> f64,
) -> (f64, f64) {
    let third = |k: usize| {
        let (lo, hi) = (seconds * k as f64 / 3.0, seconds * (k + 1) as f64 / 3.0);
        samples
            .iter()
            .filter(|(at, _)| (lo..hi).contains(at))
            .map(|(_, v)| *v)
            .collect::<Vec<f64>>()
    };
    let thirds: Vec<f64> = (0..3).map(|k| statistic(&mut third(k))).collect();
    let mut all: Vec<f64> = samples.iter().map(|(_, v)| *v).collect();
    (statistic(&mut all), stats::spread(&thirds))
}

/// A percentile value of `(at, ms)` samples; an unsupported percentile is
/// a failure, not a number (smoke runs skip the check).
fn percentile_value(
    name: &str,
    samples: &[(f64, f64)],
    p: f64,
    opts: &Options,
    failures: &mut Vec<String>,
) -> Value {
    let mut sorted: Vec<f64> = samples.iter().map(|(_, ms)| *ms).collect();
    sorted.sort_by(f64::total_cmp);
    if !opts.smoke {
        if let Err(unsupported) = stats::percentile(&sorted, p) {
            failures.push(format!("{name}: {unsupported}"));
        }
    }
    let statistic = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        stats::percentile_unchecked(values, p)
    };
    let (value, spread) = over_thirds(samples, opts.seconds, statistic);
    Value { name: name.into(), value, unit: "ms", samples: samples.len(), spread }
}

fn socket_values(report: &ServeReport, opts: &Options, failures: &mut Vec<String>) -> Vec<Value> {
    let of = |class: OpClass| -> Vec<(f64, f64)> {
        report.timed.iter().filter(|t| t.class == class).map(|t| (t.at, t.ms)).collect()
    };
    let (scan, index, append) = (of(OpClass::Scan), of(OpClass::Index), of(OpClass::Append));
    let queries: Vec<(f64, f64)> = scan.iter().chain(&index).copied().collect();
    let per_second = |values: &mut Vec<f64>| values.len() as f64;
    let (count, qps_spread) = over_thirds(&queries, opts.seconds, per_second);
    vec![
        percentile_value("scan_p50_ms", &scan, 0.5, opts, failures),
        percentile_value("scan_p90_ms", &scan, 0.9, opts, failures),
        percentile_value("index_p50_ms", &index, 0.5, opts, failures),
        percentile_value("index_p90_ms", &index, 0.9, opts, failures),
        Value {
            name: "query_qps".into(),
            value: count / opts.seconds,
            unit: "1/s",
            samples: queries.len(),
            spread: qps_spread,
        },
        percentile_value("append_p50_ms", &append, 0.5, opts, failures),
        percentile_value("append_p90_ms", &append, 0.9, opts, failures),
        percentile_value("delta_lag_p50_ms", &report.delta_lags, 0.5, opts, failures),
    ]
}

/// Sets the workload up (repeatedly), serves it, and reports every
/// end-to-end value in catalogue order.
pub fn end_to_end(workload: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::new(&opts.out, workload.name).map_err(|e| e.to_string())?;
    let sequences = opts.sequences(workload);
    let mut setups = Vec::new();
    let mut last: Option<(PathBuf, lifecycle::Served)> = None;
    for rep in 0..opts.setups(workload) {
        if let Some((dir, served)) = last.take() {
            served.server.shutdown();
            drop(served.archive);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = scratch.path().join(format!("archive-{rep}"));
        let (setup, served) = lifecycle::set_up(&dir, opts.seed, sequences, workload.mix)
            .map_err(|e| format!("set-up: {e}"))?;
        setups.push(setup);
        last = Some((dir, served));
    }
    let (dir, served) = last.ok_or("a workload needs at least one set-up")?;

    let plan = ServePlan {
        seed: opts.seed,
        sequences,
        analysts: workload.analysts,
        warmup: opts.warmup(),
        timed: Duration::from_secs_f64(opts.seconds),
        corrupt_oracle: opts.corrupt_oracle,
    };
    let report = serve::serve(served, &dir, &plan)?;

    let mut failures: Vec<String> = setups.iter().flat_map(|s| s.failures.clone()).collect();
    failures.extend(report.failures.iter().cloned());
    let attempted = report.attempted + setups.iter().map(|s| s.checks).sum::<u64>();

    let mut values = vec![across_setups("setup_s", "s", &setups, |s| s.setup_s)];
    values.extend(socket_values(&report, opts, &mut failures));
    values.extend([
        across_setups("disk_bytes_per_user_byte", "B/B", &setups, |s| s.disk_bytes_per_user_byte),
        Value {
            name: "peak_rss_mib".into(),
            value: peak_rss_mib(),
            unit: "MiB",
            samples: 1,
            spread: 0.0,
        },
    ]);
    let extras = vec![
        across_setups("ingest_seqs_s", "1/s", &setups, |s| s.ingest_seqs_s),
        across_setups("open_wal_s", "s", &setups, |s| s.open_wal_s),
        across_setups("compact_s", "s", &setups, |s| s.compact_s),
        across_setups("open_segments_s", "s", &setups, |s| s.open_segments_s),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.name.as_str())
        .eq(workload::END_TO_END.iter().map(|m| m.name)));
    Ok(Outcome { workload: workload.name, values, extras, attempted, failures })
}
