//! §4.4 end to end: the goal-post fever query `0* 1+ (-1)+ 0* 1+ (-1)+ 0*`
//! over a stored ward of temperature logs, via the slope-pattern index.

use saq_bench::{banner, goalpost_corpus};
use saq_core::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
use saq_core::store::{SequenceStore, StoreConfig};

fn main() {
    banner("§4.4", "goal-post query over the slope-pattern index");

    let corpus = goalpost_corpus();
    let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
    let mut labels = Vec::new();
    for (label, seq, true_peaks) in &corpus {
        let id = store.insert(seq).unwrap();
        labels.push((id, label.clone(), *true_peaks));
    }

    let outcome =
        StoreEngine::new(&store).execute(&QueryExpr::shape("0* 1+ (-1)+ 0* 1+ (-1)+ 0*")).unwrap();

    println!("sequence             | true peaks | slope string     | matched");
    let mut correct = 0;
    for (id, label, true_peaks) in &labels {
        let entry = store.get(*id).unwrap();
        let symbols = saq_core::alphabet::slope_alphabet().decode(&entry.symbols).unwrap();
        let matched = outcome.exact.contains(id);
        let should = *true_peaks == 2;
        if matched == should {
            correct += 1;
        }
        println!(
            "{:20} | {:>10} | {:16} | {}{}",
            label,
            true_peaks,
            symbols,
            if matched { "YES" } else { "no" },
            if matched == should { "" } else { "   <-- WRONG" }
        );
    }
    println!(
        "\naccuracy: {correct}/{} (paper: all two-peak variants are exact matches, others excluded)",
        labels.len()
    );
    assert_eq!(correct, labels.len(), "goal-post query must be perfectly selective");
}
