//! The versioned benchmark harness: runs every sibling `exp_*`/`fig*`/
//! `table*` experiment binary, re-measures the recovery numbers
//! in-process, and writes a dated `BENCH_<date>.json` so performance
//! history is checked in next to the code it measures.
//!
//! Usage: `cargo run --release -p saq-bench --bin bench_harness [out.json]`
//!
//! Env: `SAQ_BENCH_SMOKE=1` skips re-spawning the experiment binaries
//! (CI's experiments job already runs each one; the harness then only
//! records the recovery measurements). `SAQ_BENCH_DATE=YYYY-MM-DD` pins
//! the file name and stamp for reproducible output.

use saq_bench::kernels::measure_kernels;
use saq_bench::planner::bench_row;
use saq_bench::recovery::{bench_date, measure_recovery};
use saq_bench::streaming::measure_streaming;
use saq_bench::{env_usize, fnum};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let date = bench_date();
    let out_path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{date}.json")));
    let smoke = std::env::var("SAQ_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let rounds = env_usize("SAQ_EXP_ROUNDS", 3).max(1);

    // The recovery numbers the storage engine is benchmarked on.
    let sizes = [64usize, env_usize("SAQ_EXP_RECOVERY_SEQUENCES", 512)];
    let mut recovery_json = Vec::new();
    for &n in &sizes {
        let r = measure_recovery(n, rounds);
        println!(
            "recovery n={n}: cold {} ms, warm {} ms, replay {} rec/s, {} lookup pages",
            fnum(r.cold_open_seconds * 1e3),
            fnum(r.warm_open_seconds * 1e3),
            fnum(r.replay_records_per_sec),
            r.point_lookup_pages
        );
        println!(
            "  ingest n={n}: {} rec/s per-record, {} rec/s group-commit",
            fnum(r.put_records_per_sec),
            fnum(r.group_commit_records_per_sec)
        );
        recovery_json.push(format!(
            "    {{\"sequences\": {}, \"wal_bytes\": {}, \"cold_open_seconds\": {:.6}, \
             \"warm_open_seconds\": {:.6}, \"replay_records_per_sec\": {:.1}, \
             \"replay_mib_per_sec\": {:.3}, \"point_lookup_pages\": {}, \
             \"put_records_per_sec\": {:.1}, \"group_commit_records_per_sec\": {:.1}}}",
            r.sequences,
            r.wal_bytes,
            r.cold_open_seconds,
            r.warm_open_seconds,
            r.replay_records_per_sec,
            r.replay_mib_per_sec,
            r.point_lookup_pages,
            r.put_records_per_sec,
            r.group_commit_records_per_sec
        ));
    }

    // Mid-batch re-planning: adaptive vs static full-sequence
    // evaluation counts on the misranked ward, at a fixed size whatever
    // the CI caps say, so the trend gate can compare them exactly.
    let planner = bench_row();
    println!(
        "planner: static {} evals, adaptive {} evals ({:.2}x win)",
        planner.static_entry_evals, planner.adaptive_entry_evals, planner.speedup
    );
    let planner_json = format!(
        "    {{\"sequences\": {}, \"shards\": {}, \"static_entry_evals\": {}, \
         \"adaptive_entry_evals\": {}, \"speedup\": {:.3}}}",
        planner.sequences,
        planner.shards,
        planner.static_entry_evals,
        planner.adaptive_entry_evals,
        planner.speedup
    );

    // Columnar kernels vs their scalar formulations.
    let mut kernels_json = Vec::new();
    for k in measure_kernels(rounds) {
        println!(
            "kernel {}: scalar {}s, kernel {}s ({:.2}x)",
            k.name,
            fnum(k.scalar_seconds),
            fnum(k.kernel_seconds),
            k.speedup
        );
        kernels_json.push(format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"scalar_seconds\": {:.6}, \
             \"kernel_seconds\": {:.6}, \"speedup\": {:.3}}}",
            k.name, k.n, k.scalar_seconds, k.kernel_seconds, k.speedup
        ));
    }

    // Streaming ingestion: incremental splice + subscription-pump work
    // vs the batch re-run each feed shape would otherwise pay.
    let mut streaming_json = Vec::new();
    for s in measure_streaming() {
        println!(
            "streaming {}: splice {:.1}x ({} rebroken vs {} batch pts), pump {:.1}x \
             ({} evals over {} waves x {} subs)",
            s.name,
            s.splice_speedup,
            s.rebroken_points,
            s.batch_points,
            s.pump_speedup,
            s.evaluated,
            s.waves,
            s.subscriptions
        );
        streaming_json.push(format!(
            "    {{\"name\": \"{}\", \"sequences\": {}, \"subscriptions\": {}, \"waves\": {}, \
             \"appended_points\": {}, \"rebroken_points\": {}, \"batch_points\": {}, \
             \"evaluated\": {}, \"splice_speedup\": {:.3}, \"pump_speedup\": {:.3}}}",
            s.name,
            s.sequences,
            s.subscriptions,
            s.waves,
            s.appended_points,
            s.rebroken_points,
            s.batch_points,
            s.evaluated,
            s.splice_speedup,
            s.pump_speedup
        ));
    }

    // Every sibling experiment binary, timed end to end. They live next
    // to this harness in the target directory.
    let mut experiments = Vec::new();
    if !smoke {
        let exe = std::env::current_exe().expect("own path");
        let dir = exe.parent().expect("target dir");
        let mut bins: Vec<_> = std::fs::read_dir(dir)
            .expect("target dir listable")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_file()
                    && p.extension().is_none()
                    && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                        (n.starts_with("exp_") || n.starts_with("fig") || n.starts_with("table"))
                            && n != "bench_harness"
                    })
            })
            .collect();
        bins.sort();
        for bin in bins {
            let name = bin.file_name().unwrap().to_string_lossy().into_owned();
            let t = Instant::now();
            let status = std::process::Command::new(&bin)
                .stdout(std::process::Stdio::null())
                .status()
                .map(|s| s.success())
                .unwrap_or(false);
            let seconds = t.elapsed().as_secs_f64();
            println!("{name}: {} in {}s", if status { "ok" } else { "FAILED" }, fnum(seconds));
            experiments.push((name, status, seconds));
            assert!(status, "every experiment binary must run to completion");
        }
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"date\": \"{date}\",").unwrap();
    writeln!(json, "  \"version\": 1,").unwrap();
    writeln!(json, "  \"recovery\": [").unwrap();
    writeln!(json, "{}", recovery_json.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"planner\": [").unwrap();
    writeln!(json, "{planner_json}").unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"kernels\": [").unwrap();
    writeln!(json, "{}", kernels_json.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"streaming\": [").unwrap();
    writeln!(json, "{}", streaming_json.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"experiments\": [").unwrap();
    let rows: Vec<String> = experiments
        .iter()
        .map(|(name, ok, seconds)| {
            format!("    {{\"bin\": \"{name}\", \"ok\": {ok}, \"seconds\": {seconds:.3}}}")
        })
        .collect();
    writeln!(json, "{}", rows.join(",\n")).unwrap();
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("harness output writable");
    println!("wrote {}", out_path.display());
}
