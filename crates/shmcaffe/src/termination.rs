//! Termination alignment (paper §III-E).
//!
//! "BVLC Caffe terminates training by specifying the number of iterations
//! ... All workers that have completed the specified training iterations
//! must wait for the slowest worker to finish its training while occupying
//! GPU." ShmCaffe shares progress through the SMB control-info buffer and
//! stops workers early by one of three predefined criteria:
//!
//! 1. all workers finish when the **master** worker terminates,
//! 2. all workers finish when the **first** worker finishes,
//! 3. all workers finish when the **average** iteration count reaches the
//!    specified number of iterations.

use shmcaffe_smb::progress::ProgressSnapshot;

/// When a worker should stop relative to the fleet's shared progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationPolicy {
    /// No alignment: every worker runs its full iteration budget (the BVLC
    /// Caffe behaviour the paper criticises — finished workers idle-wait).
    FixedIterations,
    /// Criterion 1: stop everyone once the master (rank 0) is done.
    MasterFinished,
    /// Criterion 2: stop everyone as soon as any worker is done.
    FirstFinisher,
    /// Criterion 3: stop everyone once the mean iteration count reaches
    /// the target.
    AverageIterations,
}

impl TerminationPolicy {
    /// Decides whether a worker that has completed `my_iters` of
    /// `target_iters` should stop now, given the latest board snapshot.
    ///
    /// The first three policies stop a worker at its own budget at the
    /// latest (and possibly earlier). Criterion 3 is different: fast
    /// workers keep training *past* their budget until the fleet's mean
    /// iteration count reaches the target, so slow workers' shortfall is
    /// compensated rather than waited out.
    pub fn should_stop(
        self,
        snapshot: &ProgressSnapshot,
        my_iters: u64,
        target_iters: u64,
    ) -> bool {
        match self {
            TerminationPolicy::FixedIterations => my_iters >= target_iters,
            TerminationPolicy::MasterFinished => my_iters >= target_iters || snapshot.is_done(0),
            TerminationPolicy::FirstFinisher => my_iters >= target_iters || snapshot.any_done(),
            TerminationPolicy::AverageIterations => {
                snapshot.mean_iterations() >= target_iters as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_smb::progress::WorkerProgress;

    fn snap(iters: &[(u64, bool)]) -> ProgressSnapshot {
        ProgressSnapshot {
            workers: iters
                .iter()
                .map(|&(iterations, done)| WorkerProgress { iterations, done })
                .collect(),
        }
    }

    #[test]
    fn own_budget_stops_all_but_average() {
        let s = snap(&[(0, false), (0, false)]);
        for p in [
            TerminationPolicy::FixedIterations,
            TerminationPolicy::MasterFinished,
            TerminationPolicy::FirstFinisher,
        ] {
            assert!(p.should_stop(&s, 100, 100));
            assert!(p.should_stop(&s, 150, 100));
        }
        // Criterion 3: even a worker past its budget keeps going while the
        // fleet mean lags (the snapshot above says everyone is at 0).
        assert!(!TerminationPolicy::AverageIterations.should_stop(&s, 150, 100));
    }

    #[test]
    fn average_lets_fast_workers_compensate() {
        // Mean = (150 + 60) / 2 = 105 >= 100: both stop, including the
        // overshooting fast worker.
        let s = snap(&[(150, false), (60, false)]);
        assert!(TerminationPolicy::AverageIterations.should_stop(&s, 150, 100));
        assert!(TerminationPolicy::AverageIterations.should_stop(&s, 60, 100));
    }

    #[test]
    fn fixed_never_stops_early() {
        let s = snap(&[(100, true), (5, false)]);
        assert!(!TerminationPolicy::FixedIterations.should_stop(&s, 5, 100));
    }

    #[test]
    fn master_finished_stops_slaves() {
        let done = snap(&[(100, true), (60, false)]);
        let not_done = snap(&[(90, false), (60, false)]);
        assert!(TerminationPolicy::MasterFinished.should_stop(&done, 60, 100));
        assert!(!TerminationPolicy::MasterFinished.should_stop(&not_done, 60, 100));
        // A non-master finishing does not trigger it.
        let slave_done = snap(&[(90, false), (100, true)]);
        assert!(!TerminationPolicy::MasterFinished.should_stop(&slave_done, 60, 100));
    }

    #[test]
    fn first_finisher_stops_on_any_done() {
        let s = snap(&[(90, false), (100, true), (10, false)]);
        assert!(TerminationPolicy::FirstFinisher.should_stop(&s, 10, 100));
        let none = snap(&[(90, false), (99, false)]);
        assert!(!TerminationPolicy::FirstFinisher.should_stop(&none, 10, 100));
    }

    #[test]
    fn average_iterations_uses_mean() {
        // Mean = (120 + 90 + 90) / 3 = 100.
        let s = snap(&[(120, false), (90, false), (90, false)]);
        assert!(TerminationPolicy::AverageIterations.should_stop(&s, 90, 100));
        let s2 = snap(&[(120, false), (80, false), (90, false)]);
        assert!(!TerminationPolicy::AverageIterations.should_stop(&s2, 90, 100));
    }
}
