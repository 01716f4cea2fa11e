//! Per-worker accounting of one engine run: simulated clocks (makespan)
//! and feature-cache counters.
//!
//! Each archive fetch returns its simulated cost
//! ([`saq_archive::ArchiveSnapshot::fetch`]), and each worker adds the
//! costs of its own fetches to its clock. Summing the clocks prices the
//! fetches as if they happened serially. A worker pool overlaps those
//! waits, so the *simulated* cost of a parallel batch is the slowest
//! worker's clock — the makespan — not the sum. One clock per worker lets
//! experiments report simulated speedup without relying on wall-clock
//! emulation sleeps. The per-worker cache counters expose how
//! evenly the shared feature cache serves the pool (and, in incremental
//! re-runs, that only dirty ids missed).

use crate::cache::CacheStats;

/// Per-worker accounting of the last engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Simulated seconds of archive access accrued by each worker of the
    /// pool (cache hits cost nothing).
    pub per_worker_sim_seconds: Vec<f64>,
    /// Feature-cache hits/misses/evictions observed by each worker.
    pub per_worker_cache: Vec<CacheStats>,
}

impl RunReport {
    /// An all-zero report for a pool of `workers`.
    pub fn new(workers: usize) -> RunReport {
        RunReport {
            per_worker_sim_seconds: vec![0.0; workers],
            per_worker_cache: vec![CacheStats::default(); workers],
        }
    }

    /// Number of workers the run used.
    pub fn workers(&self) -> usize {
        self.per_worker_sim_seconds.len()
    }

    /// The run's cache counters rolled up across workers.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.per_worker_cache {
            total.merge(*c);
        }
        total
    }

    /// Total simulated archive seconds — what a serial scan of the same
    /// fetches would pay.
    pub fn sim_total_seconds(&self) -> f64 {
        self.per_worker_sim_seconds.iter().sum()
    }

    /// Simulated makespan: the slowest worker's clock, i.e. the batch's
    /// simulated latency when workers overlap archive waits.
    pub fn sim_makespan_seconds(&self) -> f64 {
        self.per_worker_sim_seconds.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Speedup implied by the simulated clocks (total / makespan); 1.0 for
    /// an idle or single-worker run.
    pub fn sim_speedup(&self) -> f64 {
        let makespan = self.sim_makespan_seconds();
        if makespan <= 0.0 {
            1.0
        } else {
            self.sim_total_seconds() / makespan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_and_speedup() {
        let r = RunReport {
            per_worker_sim_seconds: vec![3.0, 1.0, 2.0, 2.0],
            per_worker_cache: vec![CacheStats::default(); 4],
        };
        assert_eq!(r.workers(), 4);
        assert_eq!(r.sim_total_seconds(), 8.0);
        assert_eq!(r.sim_makespan_seconds(), 3.0);
        assert!((r.sim_speedup() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_totals_roll_up_workers() {
        let mut r = RunReport::new(2);
        r.per_worker_cache[0] = CacheStats { hits: 3, misses: 1, evictions: 0 };
        r.per_worker_cache[1] = CacheStats { hits: 1, misses: 2, evictions: 1 };
        let total = r.cache_totals();
        assert_eq!(total, CacheStats { hits: 4, misses: 3, evictions: 1 });
        assert!((total.hit_rate() - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(RunReport::new(0).cache_totals().hit_rate(), 0.0, "zero lookups stay finite");
    }

    #[test]
    fn idle_report_is_neutral() {
        let r = RunReport::new(4);
        assert_eq!(r.sim_total_seconds(), 0.0);
        assert_eq!(r.sim_makespan_seconds(), 0.0);
        assert_eq!(r.sim_speedup(), 1.0);
    }
}
