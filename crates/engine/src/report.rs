//! Per-worker accounting of one engine run: simulated clocks (makespan).
//!
//! Each archive fetch returns its simulated cost
//! ([`saq_archive::ArchiveSnapshot::fetch`]), and each worker adds the
//! costs of its own fetches to its clock. Summing the clocks prices the
//! fetches as if they happened serially. A worker pool overlaps those
//! waits, so the *simulated* cost of a parallel batch is the slowest
//! worker's clock — the makespan — not the sum. One clock per worker lets
//! experiments report simulated speedup without relying on wall-clock
//! emulation sleeps. Only value-band leaves fetch, so a wave without one
//! leaves every clock at zero.

/// Per-worker accounting of the last engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Simulated seconds of archive access accrued by each worker of the
    /// pool.
    pub per_worker_sim_seconds: Vec<f64>,
}

impl RunReport {
    /// An all-zero report for a pool of `workers`.
    pub fn new(workers: usize) -> RunReport {
        RunReport { per_worker_sim_seconds: vec![0.0; workers] }
    }

    /// Number of workers the run used.
    pub fn workers(&self) -> usize {
        self.per_worker_sim_seconds.len()
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
        let r = RunReport { per_worker_sim_seconds: vec![3.0, 1.0, 2.0, 2.0] };
        assert_eq!(r.workers(), 4);
        assert_eq!(r.sim_total_seconds(), 8.0);
        assert_eq!(r.sim_makespan_seconds(), 3.0);
        assert!((r.sim_speedup() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_report_is_neutral() {
        let r = RunReport::new(4);
        assert_eq!(r.sim_total_seconds(), 0.0);
        assert_eq!(r.sim_makespan_seconds(), 0.0);
        assert_eq!(r.sim_speedup(), 1.0);
    }
}
