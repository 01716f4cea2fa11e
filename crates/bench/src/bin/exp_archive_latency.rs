//! §1's latency motivation, quantified: query latency against raw data on a
//! remote archive vs. against the local compact representation, across
//! media profiles and corpus sizes.

use saq_archive::{ArchiveStore, Medium};
use saq_bench::{banner, fnum};
use saq_core::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
use saq_core::store::{SequenceStore, StoreConfig};
use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

fn main() {
    banner("§1", "query latency: local representation vs. remote raw archive");

    println!("corpus | medium          | full raw scan (s) | local query (s) | speedup");
    for &count in &[20usize, 100, 400] {
        for medium in [Medium::remote_tape(), Medium::optical_jukebox(), Medium::local_disk()] {
            // The paper's split: representations in a local store that
            // keeps no raw samples, raw samples on the archive medium.
            let config = StoreConfig { keep_raw: false, ..StoreConfig::default() };
            let mut local = SequenceStore::new(config).unwrap();
            let mut archive = ArchiveStore::new(medium);
            for i in 0..count as u64 {
                let seq = if i % 2 == 0 {
                    goalpost(GoalpostSpec { seed: i, noise: 0.1, ..GoalpostSpec::default() })
                } else {
                    peaks(PeaksSpec {
                        centers: vec![6.0, 12.0, 18.0],
                        seed: i,
                        noise: 0.1,
                        ..PeaksSpec::default()
                    })
                };
                let id = local.insert(&seq).unwrap();
                archive.put(id, seq);
            }
            let outcome = StoreEngine::new(&local).execute(&QueryExpr::peak_count(2, 0)).unwrap();
            // A local query reads every representation parameter (one
            // `f64` each) from memory once.
            let parameters = local.total_compression().parameters as u64;
            let local_cost = Medium::memory().access(parameters * 8).total();
            // Half the corpus is two-peaked by construction; noise may
            // occasionally perturb a count, so demand the bulk of them.
            assert!(outcome.exact.len() * 10 >= count * 4, "{} of {count}", outcome.exact.len());
            // The pre-representation workflow: fetch every raw sequence.
            let snapshot = archive.snapshot();
            let scan: f64 =
                snapshot.ids().iter().map(|&id| snapshot.fetch(id).unwrap().1.total()).sum();
            println!(
                "{:>6} | {:15} | {:>17} | {:>15} | {:>7}x",
                count,
                medium.name,
                fnum(scan),
                format!("{local_cost:.6}"),
                fnum(scan / local_cost.max(1e-12))
            );
        }
    }
    println!("\nshape check: the slower and bigger the archive, the larger the win;");
    println!("tape scans cost hours while local feature queries stay sub-millisecond,");
    println!("reproducing the several-days-vs-interactive gap of Sec. 1.");
}
