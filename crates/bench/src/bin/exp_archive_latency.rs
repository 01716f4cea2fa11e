//! §1's latency motivation, quantified: query latency against raw data on a
//! remote archive vs. against the local compact representation, across
//! media profiles and corpus sizes.

use saq_archive::{Medium, TieredStore};
use saq_bench::{banner, fnum};
use saq_core::algebra::QueryExpr;
use saq_core::store::StoreConfig;
use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

fn main() {
    banner("§1", "query latency: local representation vs. remote raw archive");

    println!("corpus | medium          | full raw scan (s) | local query (s) | speedup");
    for &count in &[20usize, 100, 400] {
        for medium in [Medium::remote_tape(), Medium::optical_jukebox(), Medium::local_disk()] {
            let mut tiered =
                TieredStore::new(StoreConfig::default(), Medium::memory(), medium).unwrap();
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
                tiered.insert(&seq).unwrap();
            }
            let (outcome, local) = tiered.query_local(&QueryExpr::peak_count(2, 0)).unwrap();
            // Half the corpus is two-peaked by construction; noise may
            // occasionally perturb a count, so demand the bulk of them.
            assert!(outcome.exact.len() * 10 >= count * 4, "{} of {count}", outcome.exact.len());
            let scan = tiered.full_archive_scan_cost();
            println!(
                "{:>6} | {:15} | {:>17} | {:>15} | {:>7}x",
                count,
                medium.name,
                fnum(scan),
                format!("{local:.6}"),
                fnum(scan / local.max(1e-12))
            );
        }
    }
    println!("\nshape check: the slower and bigger the archive, the larger the win;");
    println!("tape scans cost hours while local feature queries stay sub-millisecond,");
    println!("reproducing the several-days-vs-interactive gap of Sec. 1.");
}
