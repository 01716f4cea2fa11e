//! Adaptive re-planning from observed selectivities: mid-batch
//! re-ordering of `And` children when the observation wave's measured
//! match rates diverge from the static plan's estimates.
//!
//! The ward is skewed — mostly single-peak logs, a sliver of goalposts —
//! and the conjunction is declared in pessimal order:
//!
//! ```text
//! min_steepness(0.05)  AND  peak_count = 2
//! ^ matches ~everything     ^ matches ~5%
//! ```
//!
//! The sharded pass plans without histograms, so the static order runs
//! the unselective steepness leaf first over every candidate. Over
//! many shards, the first ~1/8 of them double as an observation wave:
//! per-slot match counts re-order the slots by the planner's own rule
//! (`saq_core::algebra::conjunct_order`), and the remaining shards run
//! the corrected order — the selective peak-count leaf
//! first, the steepness leaf only over its survivors. The static
//! reference is the same engine over one shard, where no observation
//! wave exists; both runs keep conjunctive guard-skipping, so
//! re-planning itself is the only variable.
//!
//! Environment knobs (CI smoke-runs cap these):
//! * `SAQ_EXP_SEQUENCES` — store size (default 600)
//! * `SAQ_EXP_SHARDS` — shard count (default 16)
//! * `SAQ_EXP_MIN_SPEEDUP` — required evaluation-count ratio (default 1.3)
//!
//! Asserts ≥ 1.3× fewer full-sequence evaluations with adaptivity on
//! (measured ≈ 1.6×) and identical outcomes on both paths (the helper
//! asserts outcome equality internally — ordering-only is the contract).

use saq_bench::planner::measure_adaptive;
use saq_bench::{banner, env_f64, env_usize};

fn main() {
    banner("adaptive", "mid-batch re-planning from observed selectivities vs static order");

    let sequences = env_usize("SAQ_EXP_SEQUENCES", 600).max(40);
    let shards = env_usize("SAQ_EXP_SHARDS", 16).max(2);
    let report = measure_adaptive(sequences, shards);

    println!(
        "store: {sequences} sequences (~{} goalposts) over {shards} shards\n",
        sequences / 20 + 1
    );
    println!("mode     | entry evals | exact | approx");
    for (name, evals) in
        [("static", report.static_entry_evals), ("adaptive", report.adaptive_entry_evals)]
    {
        println!("{name:<8} | {evals:>11} | {:>5} | {:>6}", report.exact, report.approximate);
    }
    println!(
        "\nre-planning win: {:.2}x fewer full-sequence evaluations with adaptivity on",
        report.speedup
    );

    let min_ratio = env_f64("SAQ_EXP_MIN_SPEEDUP", 1.3);
    assert!(
        report.speedup >= min_ratio,
        "expected >={min_ratio}x fewer evaluations with adaptive re-planning, measured {:.2}x \
         ({} vs {})",
        report.speedup,
        report.adaptive_entry_evals,
        report.static_entry_evals
    );
    println!("PASS: >={min_ratio}x fewer full-sequence evaluations, identical outcomes");
}
