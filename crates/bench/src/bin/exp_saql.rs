//! SAQL front-end throughput and round-trip soundness on a generated
//! workload: random `QueryExpr` trees are printed to SAQL, re-parsed, and
//! planned, asserting
//!
//! * **parse ∘ print = id** — the re-parsed tree is structurally identical
//!   to the original (bit-identical numbers included), and
//! * **plan equivalence** — original and re-parsed trees produce the same
//!   physical plan (`explain` output compared verbatim), and
//! * **result equivalence** — on a sample of the workload, the
//!   statistics-backed store engine returns identical outcomes for both.
//!
//! Also reports parse and parse+plan throughput (queries/second) — the
//! front-end cost a serving layer would pay per textual query.
//!
//! Environment knobs (CI smoke-runs cap these):
//! * `SAQ_EXP_QUERIES` — workload size (default 400)
//! * `SAQ_EXP_SEQUENCES` — store size behind the planner (default 120)

use rand::rngs::StdRng;
use rand::{RngCore as _, SeedableRng as _};
use saq_bench::{banner, env_usize, fnum, volatile};
use saq_core::algebra::{PlanStats, Planner, QueryEngine as _, QueryExpr, StoreEngine};
use saq_core::lang::saql;
use saq_core::store::{SequenceStore, StoreConfig};
use saq_core::IndexCaps;
use saq_core::QueryRequest;
use saq_sequence::generators::{goalpost, peaks, random_walk, GoalpostSpec, PeaksSpec};
use saq_sequence::Sequence;
use std::time::Instant;

fn main() {
    banner("exp_saql", "SAQL parse/print round-trip and front-end throughput");
    let n_queries = env_usize("SAQ_EXP_QUERIES", 400);
    let n_sequences = env_usize("SAQ_EXP_SEQUENCES", 120);

    let store = ward(n_sequences);
    let planner = Planner::with_stats(IndexCaps::all(), PlanStats::from_snapshot(&store));
    let engine = StoreEngine::new(&store);

    let mut rng = StdRng::seed_from_u64(0x5aa1_1996);
    let exprs: Vec<QueryExpr> = (0..n_queries).map(|_| random_expr(&mut rng, 0)).collect();
    let texts: Vec<String> =
        exprs.iter().map(|e| e.to_saql().expect("generated exprs are printable")).collect();
    let total_chars: usize = texts.iter().map(String::len).sum();

    // Round-trip soundness: tree identity and plan identity, every query.
    for (expr, text) in exprs.iter().zip(&texts) {
        let back = saql::parse(text).expect("printed SAQL must re-parse");
        assert_eq!(&back, expr, "parse∘print must be the identity: `{text}`");
        let original = planner.plan(expr).expect("generated exprs plan");
        let reparsed = planner.plan(&back).expect("re-parsed exprs plan");
        assert_eq!(original.explain(), reparsed.explain(), "plans must match: `{text}`");
    }

    // Result equivalence on a sample (execution dominates; keep it small).
    let sample = exprs.len().min(24);
    for (expr, text) in exprs.iter().zip(&texts).take(sample) {
        let direct = engine.execute(expr).expect("generated exprs execute");
        let via_text =
            engine.request(&QueryRequest::saql(text)).expect("SAQL path executes").outcome;
        assert_eq!(direct, via_text, "textual path must match the constructed tree: `{text}`");
    }

    // Throughput: parse alone, then parse + plan.
    let t = Instant::now();
    for text in &texts {
        let _ = saql::parse(text).unwrap();
    }
    let parse_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for text in &texts {
        let _ = saql::parse_and_plan(text, &planner).unwrap();
    }
    let parse_plan_secs = t.elapsed().as_secs_f64();

    println!("workload: {n_queries} queries over a {n_sequences}-sequence store");
    println!("  avg query length     {} chars", total_chars / n_queries.max(1));
    println!("  round-trips          {n_queries}/{n_queries} identical (tree + plan)");
    println!("  result equivalence   {sample}/{sample} sampled queries identical");
    let per_second = |secs: f64| volatile(fnum(n_queries as f64 / secs.max(1e-9)));
    println!("  parse throughput     {} q/s", per_second(parse_secs));
    println!("  parse+plan           {} q/s", per_second(parse_plan_secs));
}

/// A mixed corpus for the planner's statistics snapshot.
fn ward(n: usize) -> SequenceStore {
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    for i in 0..n as u64 {
        let seq = match i % 4 {
            0 => goalpost(GoalpostSpec { seed: i, noise: 0.1, ..GoalpostSpec::default() }),
            1 => peaks(PeaksSpec {
                centers: vec![5.0, 12.0, 19.0],
                seed: i,
                noise: 0.1,
                ..PeaksSpec::default()
            }),
            2 => peaks(PeaksSpec { centers: vec![12.0], seed: i, ..PeaksSpec::default() }),
            _ => random_walk(49, 0.0, 0.3, i),
        };
        store.insert(&seq).unwrap();
    }
    store
}

fn pick(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A random expression tree covering every `QueryExpr` node and leaf
/// shape, depth-bounded so the workload stays parse-dominated.
fn random_expr(rng: &mut StdRng, depth: usize) -> QueryExpr {
    if depth >= 3 || pick(rng, 3) == 0 {
        return random_leaf(rng);
    }
    match pick(rng, 5) {
        0 => random_expr(rng, depth + 1).and(random_expr(rng, depth + 1)),
        1 => random_expr(rng, depth + 1).or(random_expr(rng, depth + 1)),
        2 => random_expr(rng, depth + 1).negate(),
        3 => random_expr(rng, depth + 1).limit(pick(rng, 9) as usize),
        _ => random_expr(rng, depth + 1).top_k(1 + pick(rng, 8) as usize),
    }
}

fn random_leaf(rng: &mut StdRng) -> QueryExpr {
    match pick(rng, 7) {
        0 => QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*"),
        1 => QueryExpr::peak_count(pick(rng, 4) as usize, pick(rng, 3) as usize),
        2 => QueryExpr::peak_interval(3 + pick(rng, 10) as i64, pick(rng, 4) as i64),
        3 => QueryExpr::min_steepness(0.4 + pick(rng, 30) as f64 * 0.1, pick(rng, 6) as f64 * 0.1),
        4 => QueryExpr::has_steep_peak(0.4 + pick(rng, 30) as f64 * 0.1, pick(rng, 6) as f64 * 0.1),
        5 => {
            let lo = pick(rng, 100);
            QueryExpr::id_range(lo, lo + pick(rng, 100))
        }
        _ => {
            let len = 3 + pick(rng, 5) as usize;
            let values: Vec<f64> = (0..len).map(|_| 95.0 + pick(rng, 80) as f64 * 0.125).collect();
            QueryExpr::value_band(
                Sequence::from_samples(&values).unwrap(),
                pick(rng, 12) as f64 * 0.25,
                pick(rng, 8) as f64 * 0.25,
            )
        }
    }
}
