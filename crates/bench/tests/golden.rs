//! Golden outputs for the paper reproduction: every deterministic
//! experiment binary, run under the CI caps, prints exactly the
//! checked-in `tests/golden/<bin>.txt`. The paper's figures, Table 1 and
//! the `exp_*` reports cannot drift without a diff here. A cell a binary
//! prints through `saq_bench::volatile` (`≈<value>`: wall-clock time or
//! thread scheduling) is masked on both sides before the comparison.
//!
//! An intended change regenerates the file in the same commit:
//!
//! ```sh
//! SAQ_EXP_SEQUENCES=48 SAQ_EXP_SEQ_LEN=600 SAQ_EXP_QUERIES=120 \
//! SAQ_EXP_MIN_SPEEDUP=1.1 SAQ_EXP_CLIENTS=6 SAQ_EXP_ROUNDS=4 \
//! SAQ_EXP_MIN_AMORTIZATION=1.5 SAQ_BENCH_SMOKE=1 \
//!   cargo run -q --release -p saq-bench --bin <bin> > crates/bench/tests/golden/<bin>.txt
//! ```

use std::path::Path;
use std::process::Command;

/// The environment of the CI experiments job (`.github/workflows/ci.yml`).
const CI_CAPS: [(&str, &str); 8] = [
    ("SAQ_EXP_SEQUENCES", "48"),
    ("SAQ_EXP_SEQ_LEN", "600"),
    ("SAQ_EXP_QUERIES", "120"),
    ("SAQ_EXP_MIN_SPEEDUP", "1.1"),
    ("SAQ_EXP_CLIENTS", "6"),
    ("SAQ_EXP_ROUNDS", "4"),
    ("SAQ_EXP_MIN_AMORTIZATION", "1.5"),
    ("SAQ_BENCH_SMOKE", "1"),
];

/// Binaries without a golden file. `exp_server_load` prints wall-clock
/// columns it does not yet mark volatile; the harness writes a timing
/// JSON.
const UNPINNED: [&str; 2] = ["exp_server_load", "bench_harness"];

/// Masks every `≈` cell of a line: each such cell reads as a bare `≈`, and
/// the line's runs of spaces collapse, since a cell's padding depends on
/// its width. Lines without one are compared byte for byte.
fn mask(line: &str) -> String {
    if !line.contains('≈') {
        return line.to_owned();
    }
    let cells: Vec<&str> = line
        .split_whitespace()
        .map(|cell| if cell.starts_with('≈') { "≈" } else { cell })
        .collect();
    cells.join(" ")
}

/// Runs `exe` under exactly the CI caps (no other `SAQ_*` knob leaks in
/// from the caller) and compares its stdout with the golden file.
fn check(bin: &str, exe: &str) {
    let mut command = Command::new(exe);
    for (key, _) in std::env::vars().filter(|(key, _)| key.starts_with("SAQ_")) {
        command.env_remove(key);
    }
    let output = command.envs(CI_CAPS).output().expect("experiment binary starts");
    assert!(
        output.status.success(),
        "{bin} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{bin}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
    let expected: Vec<String> = expected.lines().map(mask).collect();
    let actual: Vec<String> = actual.lines().map(mask).collect();
    if actual == expected {
        return;
    }
    let end = "<end of output>".to_owned();
    let (line, (want, got)) = expected
        .iter()
        .chain(std::iter::repeat(&end))
        .zip(actual.iter().chain(std::iter::repeat(&end)))
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .expect("outputs differ, so some line does");
    panic!(
        "{bin} output differs from {} at line {}:\n  golden: {want}\n  actual: {got}\n\
         regenerate the file (see this test's module doc) if the change is intended",
        path.display(),
        line + 1
    );
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {
        /// Every binary with a golden file.
        const PINNED: &[&str] = &[$(stringify!($bin)),*];
        $(
            #[test]
            fn $bin() {
                check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            }
        )*
    };
}

golden!(
    fig1_value_band,
    fig2_goalpost_exemplars,
    fig4_pointwise_tolerance,
    fig5_transform_closure,
    fig6_break_regression,
    fig7_three_variants,
    fig9_ecg_breaking,
    fig10_inverted_rr_query,
    table1_peaks,
    exp_ablation,
    exp_archive_latency,
    exp_breaking_properties,
    exp_compression,
    exp_dft_vs_features,
    exp_engine_scaling,
    exp_goalpost_query,
    exp_multi_repr,
    exp_planner_pushdown,
    exp_rr_sequences,
    exp_saql,
    exp_selectivity,
    exp_streaming,
    exp_wavelet_features,
);

#[test]
fn every_binary_is_pinned_or_named_as_unpinned() {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut unaccounted: Vec<String> = std::fs::read_dir(&bins)
        .expect("src/bin listable")
        .map(|entry| entry.expect("dir entry").path())
        .filter_map(|path| path.file_stem().and_then(|s| s.to_str()).map(str::to_owned))
        .filter(|bin| !PINNED.contains(&bin.as_str()) && !UNPINNED.contains(&bin.as_str()))
        .collect();
    unaccounted.sort();
    assert!(unaccounted.is_empty(), "binaries with no golden file and no reason: {unaccounted:?}");
    for bin in PINNED {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{bin}.txt"));
        assert!(golden.is_file(), "{} is missing", golden.display());
    }
}
