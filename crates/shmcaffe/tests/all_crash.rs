//! Every rank in the crash plan: ShmCaffe-A must still terminate.
//!
//! The last rank to file its report ends every run: it stops the
//! background processes — the standby replicator and the page scrubbers —
//! which otherwise loop in virtual time, and reads the final model unless
//! every rank crashed for good, as here, so the report carries no final
//! weights. Each run sits behind a wall-clock watchdog so a regression
//! fails here instead of hanging the suite.

mod watchdog;

use shmcaffe::platforms::ShmCaffeA;
use shmcaffe::trainer::ModeledTrainerFactory;
use shmcaffe::{PlatformError, ShmCaffeConfig, TrainingReport};
use shmcaffe_models::WorkloadModel;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::ClusterSpec;
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;
use watchdog::within_watchdog;

/// Two workers on one GPU node beside a pair of memory servers; both
/// workers crash (rank 0 at 50 ms, rank 1 at 60 ms) and neither rejoins.
fn all_crash(
    platform: impl FnOnce(ShmCaffeA) -> ShmCaffeA + Send + 'static,
) -> Result<TrainingReport, PlatformError> {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
    let cfg = ShmCaffeConfig {
        max_iters: 30,
        progress_every: 5,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let plan = FaultPlan::new(3)
        .crash_worker(0, SimTime::from_millis(50))
        .crash_worker(1, SimTime::from_millis(60));
    let workload = WorkloadModel::custom("all_crash", 1_000_000, SimDuration::from_millis(10));
    let factory = ModeledTrainerFactory::new(workload, JitterModel::NONE, 7);
    within_watchdog(move || {
        platform(ShmCaffeA::new(spec, 2, cfg)).with_fault_plan(plan).run(factory)
    })
}

fn assert_every_rank_crashed(report: &TrainingReport) {
    assert_eq!(report.workers.len(), 2);
    assert!(report.workers.iter().all(|w| w.crashed), "{:?}", report.workers);
    assert!(report.final_weights.is_none(), "every rank is dead, so no final model");
}

#[test]
fn all_crash_without_background_processes_terminates() {
    let report = all_crash(|p| p).expect("crashed ranks are not a platform error");
    assert_every_rank_crashed(&report);
}

#[test]
fn all_crash_with_standby_replicator_terminates() {
    let report = all_crash(|p| p.with_standby(SimDuration::from_millis(20)))
        .expect("crashed ranks are not a platform error");
    assert_every_rank_crashed(&report);
}

#[test]
fn all_crash_with_page_scrubber_terminates() {
    let scrubbed = SmbServerConfig {
        page_elems: 1024,
        scrub_interval: SimDuration::from_millis(25),
        ..Default::default()
    };
    let report = all_crash(move |p| p.with_server_config(scrubbed))
        .expect("crashed ranks are not a platform error");
    assert_every_rank_crashed(&report);
}
