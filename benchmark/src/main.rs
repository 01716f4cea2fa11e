//! Command line of the benchmark. See `README.md` for what it measures.
//!
//! ```text
//! saq-benchmark [run|trace] [--workload W] [--seed N] [--seconds S] [--smoke] [--out DIR]
//! saq-benchmark --workload W --seed N --seconds S --trace 0|1      (the driver's form)
//! saq-benchmark compare <a.json> <b.json>
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of standard output is the driver's JSON object. Without it every
//! workload runs in a child process of its own — so allocator state and
//! the peak resident set are per workload — and `result.json` is written.

use saq_benchmark::json::Json;
use saq_benchmark::run::{self, Options, Outcome};
use saq_benchmark::workload::{self, Workload};
use saq_benchmark::{compare, layers};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The timed phase when `--seconds` is not given; `BENCHMARK.json` states
/// the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;

struct Cli {
    compare: Option<(PathBuf, PathBuf)>,
    trace: bool,
    workload: Option<&'static Workload>,
    seconds: Option<f64>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        compare: None,
        trace: false,
        workload: None,
        seconds: None,
        opts: Options {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            corrupt_oracle: false,
            out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" => cli.trace = false,
            "trace" => cli.trace = true,
            "compare" => {
                cli.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            "--workload" => {
                let name = value("a workload name")?;
                let known = workload::WORKLOADS.map(|w| w.name).join(", ");
                cli.workload = Some(
                    workload::find(name).ok_or(format!("unknown workload `{name}` ({known})"))?,
                );
            }
            "--seed" => {
                cli.opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => cli.trace = value("0 or 1")? == "1",
            "--smoke" => cli.opts.smoke = true,
            "--corrupt-oracle" => cli.opts.corrupt_oracle = true,
            "--out" => cli.opts.out = value("a directory")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let default = if cli.opts.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS };
    cli.opts.seconds = cli.seconds.unwrap_or(default);
    Ok(cli)
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn mode_name(trace: bool) -> &'static str {
    if trace {
        "trace"
    } else {
        "run"
    }
}

/// One workload, in this process. Prints every value, writes the detail
/// file (and the trace file), and ends with the driver's line.
fn one(workload: &'static Workload, cli: &Cli) -> Result<Outcome, String> {
    let out = &cli.opts.out;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let outcome = if cli.trace {
        let (outcome, spans) = layers::trace(workload, &cli.opts)?;
        write(&out.join(format!("trace-{}.json", workload.name)), &spans)?;
        outcome
    } else {
        run::end_to_end(workload, &cli.opts)?
    };
    outcome.print();
    write(
        &out.join(format!("{}.{}.json", workload.name, mode_name(cli.trace))),
        &outcome.detail(),
    )?;
    println!("{}", outcome.driver_line());
    Ok(outcome)
}

/// Every workload, each in a child process; gathers their detail files
/// into `result.json` (or `trace.json`). `Ok(true)` when all were correct.
fn all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in &workload::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &cli.opts.seed.to_string()])
            .args(["--seconds", &cli.opts.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&cli.opts.out);
        if cli.opts.smoke {
            child.arg("--smoke");
        }
        if cli.opts.corrupt_oracle {
            child.arg("--corrupt-oracle");
        }
        // The child's lines are this command's output; it is waited for.
        let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
        let detail = cli.opts.out.join(format!("{}.{}.json", workload.name, mode_name(cli.trace)));
        let doc = std::fs::read_to_string(&detail)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        match doc {
            Ok(doc) if status.code().is_some() => {
                correct &=
                    status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
                runs.push((workload.name.to_string(), doc));
            }
            _ => {
                println!("{} produced no result ({status})", workload.name);
                correct = false;
            }
        }
    }
    let doc = Json::obj([
        ("seed", Json::from(cli.opts.seed)),
        ("seconds", Json::Num(cli.opts.seconds)),
        ("smoke", Json::Bool(cli.opts.smoke)),
        ("workloads", Json::Obj(runs)),
    ]);
    let name = if cli.trace { "trace.json" } else { "result.json" };
    write(&cli.opts.out.join(name), &doc)?;
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| {
        if let Some((a, b)) = &cli.compare {
            let read = |path: &PathBuf| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            };
            compare::compare(&read(a)?, &read(b)?)
        } else if let Some(workload) = cli.workload {
            one(workload, &cli).map(|outcome| outcome.failures.is_empty())
        } else {
            all(&cli)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("saq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
