//! The goal-post fever scenario of §2.1/§4.4: a ward of patients with
//! 24-hour temperature logs; the physician asks for everyone whose fever
//! "peaks exactly twice within 24 hours".
//!
//! Run with `cargo run --example goalpost_fever`.

use saq::baseline::euclid::band_match;
use saq::core::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
use saq::core::request::QueryRequest;
use saq::core::store::{SequenceStore, StoreConfig};
use saq::sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
use saq::sequence::Sequence;

fn ward() -> Vec<(String, Sequence, usize)> {
    // Textbook goal-post fever.
    let mut patients = vec![(
        "alice (classic goal-post)".to_string(),
        goalpost(GoalpostSpec { noise: 0.15, seed: 1, ..GoalpostSpec::default() }),
        2,
    )];
    // Goal-post shifted later in the day and taller — same feature class.
    patients.push((
        "bob (shifted + taller)".to_string(),
        goalpost(GoalpostSpec {
            peak1: 10.0,
            peak2: 20.0,
            amplitude: 10.0,
            noise: 0.15,
            seed: 2,
            ..GoalpostSpec::default()
        }),
        2,
    ));
    // Contracted: both peaks in the morning.
    patients.push((
        "carol (contracted)".to_string(),
        goalpost(GoalpostSpec {
            peak1: 4.0,
            peak2: 9.5,
            width: 1.0,
            noise: 0.15,
            seed: 3,
            ..GoalpostSpec::default()
        }),
        2,
    ));
    // Single spike — not goal-post.
    patients.push((
        "dave (single spike)".to_string(),
        peaks(PeaksSpec { centers: vec![13.0], noise: 0.15, seed: 4, ..PeaksSpec::default() }),
        1,
    ));
    // Three peaks — not goal-post.
    patients.push((
        "erin (three peaks)".to_string(),
        peaks(PeaksSpec {
            centers: vec![5.0, 12.0, 19.0],
            noise: 0.15,
            seed: 5,
            ..PeaksSpec::default()
        }),
        3,
    ));
    // Healthy flat chart.
    patients.push((
        "frank (afebrile)".to_string(),
        peaks(PeaksSpec { centers: vec![], noise: 0.15, seed: 6, ..PeaksSpec::default() }),
        0,
    ));
    patients
}

fn main() {
    let patients = ward();
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut names = Vec::new();
    for (name, log, _) in &patients {
        let id = store.insert(log).unwrap();
        names.push((id, name.clone()));
    }

    // The generalized approximate query: shape, not values.
    let engine = StoreEngine::new(&store);
    let outcome = engine.execute(&QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*")).unwrap();

    println!("goal-post fever query `0* 1+ (-1)+ 0* 1+ (-1)+ 0*`\n");
    println!("patient                      | true peaks | matched");
    for ((id, name), (_, _, true_peaks)) in names.iter().zip(&patients) {
        println!(
            "{:28} | {:>10} | {}",
            name,
            true_peaks,
            if outcome.exact.contains(id) { "YES" } else { "no" }
        );
    }

    // Contrast with the value-based notion of Fig. 1: Bob and Carol are the
    // same feature class as Alice but nowhere near her in value space.
    let alice = &patients[0].1;
    println!("\nvalue-based +-0.5F band matching against alice's chart (Fig. 1 semantics):");
    for (name, log, _) in &patients[1..3] {
        println!(
            "  {:26} within band: {}",
            name,
            if band_match(alice, log, 0.5) { "YES" } else { "no (false dismissal!)" }
        );
    }

    // Peak-count query with an approximation tolerance (±1 peak).
    let approx = engine.execute(&QueryExpr::peak_count(2, 1)).unwrap();
    println!("\npeak-count query (2 +- 1):");
    println!("  exact: {:?}", approx.exact);
    for m in &approx.approximate {
        let name = &names.iter().find(|(id, _)| *id == m.id).unwrap().1;
        println!("  approximate: {name} (off by {})", m.deviation);
    }

    // The same ward, asked through SAQL, the textual query language (§6's
    // future work): clauses with per-dimension tolerances.
    let text = r#"shape "0* 1+ (-1)+ 0* 1+ (-1)+ 0*" and steepness all >= 0.5"#;
    let lang_out = engine.request(&QueryRequest::saql(text)).unwrap().outcome;
    println!("\nquery-language form:\n  {text}\n  exact matches: {:?}", lang_out.exact);
}
