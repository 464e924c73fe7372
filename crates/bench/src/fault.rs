//! `paper fault` — robustness sweep: fault rate × platform
//! (Inception_v1, 8 GPUs, 100 iterations, seed 42).
//!
//! Five experiments, one table each:
//!
//! 1. **Transient-fault sweep** — ShmCaffe-A under a per-operation failure
//!    probability of 0/1/5/10% on the SMB transport. The retry layer rides
//!    the faults out; the table shows the wall-clock cost, fault/retry
//!    counts, the elastic updates still owed when a worker finished (and
//!    so dropped: a failed push is owed, never dropped on the spot), and
//!    worst recovery latency.
//! 2. **Worker-crash matrix** — one rank of eight killed mid-run on every
//!    platform that accepts a fault plan. SEASGD survives with its
//!    remaining workers (lease eviction + survivor completion);
//!    synchronous allreduce has no recovery path and aborts.
//! 3. **Failover sweep** — a replicated memory-server pair whose primary
//!    is crashed at varying points of the run. Clients fail over to the
//!    standby; the table records the recovery cost in virtual time and
//!    the elastic updates still owed, and so dropped, at the end of the
//!    run.
//! 4. **Partition sweep** — an asymmetric network partition isolates the
//!    primary (plus one worker node) from the standby at 25/50/75% of the
//!    run, healing 200 ms later. The primary's authority lease lapses and
//!    it self-fences; the table records the stale writes fenced off, the
//!    increments the minority buffered/dropped/replayed in degraded mode,
//!    and the segments reconciled when the partition healed.
//! 5. **Corruption sweep** — wire bit-flip rate × scrub cadence on a
//!    CRC-paged replicated pair with DRAM decays at 25/50/75% of the run.
//!    The table records detected/repaired/unrepairable corruption counts
//!    and the final-loss delta against a fault-free paged run.

use crate::anchor::Figure;
use crate::experiments::{modeled_factory, shm_cfg, Measurements, SEED};
use crate::table::Table;
use shmcaffe::platforms::{MpiCaffe, ShmCaffeA, SsgdConfig};
use shmcaffe::trainer::ModeledTrainerFactory;
use shmcaffe::ShmCaffeConfig;
use shmcaffe_models::CnnModel;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::topology::{ClusterSpec, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;

const GPUS: usize = 8;
const NODES: usize = 2;
const ITERS: usize = 100;

fn factory() -> ModeledTrainerFactory {
    modeled_factory(CnnModel::InceptionV1, SEED)
}

/// The library's default exchange (the striped read window).
fn cfg() -> ShmCaffeConfig {
    shm_cfg(ITERS, true)
}

/// The five tables, in the order above. No anchors: the paper states no
/// fault numbers.
pub fn figure(_: &mut Measurements) -> Figure {
    let mut transient = Table::new(
        "ShmCaffe-A under transient SMB op failures",
        &["op fail", "wall (s)", "faults", "retries", "dropped", "max recovery (ms)"],
    );
    for rate in [0.0f64, 0.01, 0.05, 0.10] {
        let plan = FaultPlan::new(SEED).with_op_failure_prob(rate);
        let report = ShmCaffeA::new(ClusterSpec::paper_testbed(NODES), GPUS, cfg())
            .with_fault_plan(plan)
            .run(factory())
            .expect("retry layer absorbs transient faults");
        transient.row_owned(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{:.3}", report.wall.as_secs_f64()),
            report.total_faults().to_string(),
            report.total_retries().to_string(),
            report.total_partition_dropped().to_string(),
            format!("{:.2}", report.max_recovery_ms()),
        ]);
    }

    let crash = || FaultPlan::new(SEED).crash_worker(1, SimTime::from_millis(500));
    let mut crashes = Table::new(
        "One of 8 workers killed at t = 500 ms",
        &["platform", "outcome", "survivor iters", "crashed", "wall (s)"],
    );
    let shm = ShmCaffeA::new(ClusterSpec::paper_testbed(NODES), GPUS, cfg())
        .with_fault_plan(crash())
        .with_server_config(SmbServerConfig {
            lease_timeout: SimDuration::from_millis(200),
            ..Default::default()
        })
        .run(factory());
    let wall = |report: &shmcaffe::TrainingReport| format!("{:.3}", report.wall.as_secs_f64());
    match shm {
        Ok(report) => {
            let survivor_iters =
                report.workers.iter().filter(|w| !w.crashed).map(|w| w.iters).min().unwrap_or(0);
            let crashed = report.crashed_workers().to_string();
            crashes.row(&[
                "ShmCaffe-A",
                "completed",
                &survivor_iters.to_string(),
                &crashed,
                &wall(&report),
            ])
        }
        Err(e) => crashes.row(&["ShmCaffe-A", &format!("FAILED: {e}"), "-", "-", "-"]),
    };
    // MPICaffe's ranks abort by panicking ("simulation aborted"), which
    // `run` catches and reports; the hook only keeps the expected
    // backtraces off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mpi = MpiCaffe::new(
        ClusterSpec::paper_testbed(NODES),
        GPUS,
        SsgdConfig { max_iters: ITERS, ..Default::default() },
    )
    .with_fault_plan(crash())
    .run(factory());
    std::panic::set_hook(hook);
    match mpi {
        Ok(report) => {
            let iters = report.workers.iter().map(|w| w.iters).min().unwrap_or(0).to_string();
            crashes.row(&["MPICaffe", "completed (unexpected)", &iters, "0", &wall(&report)])
        }
        Err(_) => crashes.row(&["MPICaffe", "aborted (no recovery path)", "-", "1", "-"]),
    };

    // Failover sweep: replicated memory-server pair, primary crashed at
    // 25/50/75% of the fault-free wall clock. The first retrying client to
    // hit the dead primary promotes the standby for the whole fleet.
    let replicated = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(NODES) };
    let primary = NodeId(replicated.gpu_nodes);
    // Every remaining experiment runs on the pair, 20 ms replication.
    let run_pair = |server: SmbServerConfig, plan: Option<FaultPlan>| {
        let mut platform = ShmCaffeA::new(replicated, GPUS, cfg())
            .with_standby(SimDuration::from_millis(20))
            .with_server_config(server);
        if let Some(plan) = plan {
            platform = platform.with_fault_plan(plan);
        }
        platform.run(factory())
    };
    let plain = SmbServerConfig::default();
    let clean = run_pair(plain, None).expect("fault-free replicated run");
    let mut failover = Table::new(
        "Primary memory-server crash with standby failover",
        &[
            "crash at (s)",
            "wall (s)",
            "wall delta (s)",
            "max op recovery (ms)",
            "faults",
            "retries",
            "dropped",
        ],
    );
    for frac in [0.25f64, 0.50, 0.75] {
        let at = SimTime::from_nanos((clean.wall.as_nanos() as f64 * frac) as u64);
        let plan = FaultPlan::new(SEED).crash_memory_server(primary, at);
        let report = run_pair(plain, Some(plan)).expect("standby absorbs the primary's crash");
        failover.row_owned(vec![
            format!("{:.3}", at.as_secs_f64()),
            format!("{:.3}", report.wall.as_secs_f64()),
            format!("{:+.3}", report.wall.as_secs_f64() - clean.wall.as_secs_f64()),
            format!("{:.2}", report.max_recovery_ms()),
            report.total_faults().to_string(),
            report.total_retries().to_string(),
            report.total_partition_dropped().to_string(),
        ]);
    }
    // Partition sweep: the primary (with the workers of node 0) is severed
    // from the standby (with node 1) at 25/50/75% of the run for 200 ms.
    // The authority lease (60 ms, renewed by 20 ms replication passes)
    // lapses inside every window, so the stale primary self-fences, the
    // majority side promotes the standby, and the minority rides the
    // outage in degraded mode until the heal.
    let standby = NodeId(replicated.gpu_nodes + 1);
    let fencing =
        SmbServerConfig { authority_timeout: SimDuration::from_millis(60), ..Default::default() };
    let part_clean = run_pair(fencing, None).expect("fault-free fenced run");
    let mut partition = Table::new(
        "200 ms split-brain partition isolating the primary",
        &[
            "partition at (s)",
            "wall (s)",
            "wall delta (s)",
            "fenced",
            "buffered",
            "dropped",
            "replayed",
            "resynced",
        ],
    );
    for frac in [0.25f64, 0.50, 0.75] {
        let at = SimTime::from_nanos((part_clean.wall.as_nanos() as f64 * frac) as u64);
        let heal = at + SimDuration::from_millis(200);
        let plan = FaultPlan::new(SEED).partition(
            vec![vec![NodeId(0), primary], vec![NodeId(1), standby]],
            at,
            Some(heal),
        );
        let report = run_pair(fencing, Some(plan)).expect("fencing absorbs the split brain");
        partition.row_owned(vec![
            format!("{:.3}", at.as_secs_f64()),
            format!("{:.3}", report.wall.as_secs_f64()),
            format!("{:+.3}", report.wall.as_secs_f64() - part_clean.wall.as_secs_f64()),
            report.fenced_rejections.to_string(),
            report.total_partition_buffered().to_string(),
            report.total_partition_dropped().to_string(),
            report.total_reconciled_updates().to_string(),
            format!("{}/{}", report.reconcile_discarded, report.reconcile_resynced),
        ]);
    }

    // Corruption sweep: wire bit-flip rate × scrub cadence on a CRC-paged
    // replicated pair, with three DRAM decays scheduled at 25/50/75% of
    // the clean run on the primary. Every flip is caught by the page CRC
    // (wire flips on the transfer, decays by the scrubber or the next
    // read), poisoned pages are re-fetched from the standby, and the loss
    // delta shows what the stale-snapshot repairs cost convergence.
    let clean_mean_loss = |r: &shmcaffe::TrainingReport| {
        r.workers.iter().map(|w| w.final_loss as f64).sum::<f64>() / r.workers.len() as f64
    };
    let paged = |scrub_ms: u64| SmbServerConfig {
        page_elems: 65_536,
        scrub_interval: SimDuration::from_millis(scrub_ms),
        ..Default::default()
    };
    let decay_times: Vec<SimTime> = [0.25f64, 0.50, 0.75]
        .iter()
        .map(|f| SimTime::from_nanos((clean.wall.as_nanos() as f64 * f) as u64))
        .collect();
    let run_corrupted = |flip: f64, scrub_ms: u64| {
        let mut plan = FaultPlan::new(SEED).with_wire_flip_prob(flip);
        for &at in &decay_times {
            plan = plan.decay_dram(primary, at);
        }
        run_pair(paged(scrub_ms), Some(plan))
            .expect("the CRC grid + standby repair absorb seeded corruption")
    };
    let paged_clean = run_pair(paged(10), None).expect("fault-free paged run");
    let base_loss = clean_mean_loss(&paged_clean);
    let mut corruption = Table::new(
        "Wire flips + DRAM decay on a CRC-paged pair (repair from standby)",
        &[
            "flip rate",
            "scrub (ms)",
            "wall (s)",
            "detected",
            "repaired",
            "unrepairable",
            "loss delta",
        ],
    );
    for flip in [0.0f64, 0.01, 0.05] {
        for scrub_ms in [5u64, 20] {
            let report = run_corrupted(flip, scrub_ms);
            corruption.row_owned(vec![
                format!("{:.0}%", flip * 100.0),
                scrub_ms.to_string(),
                format!("{:.3}", report.wall.as_secs_f64()),
                report.total_corruptions_detected().to_string(),
                report.total_corruptions_repaired().to_string(),
                report.total_corruptions_unrepairable().to_string(),
                format!("{:+.4}", clean_mean_loss(&report) - base_loss),
            ]);
        }
    }
    (vec![transient, crashes, failover, partition, corruption], Vec::new())
}
