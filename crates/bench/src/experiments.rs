//! Parameterised timing-experiment runners.
//!
//! Timing runs simulate a few hundred steady-state iterations per
//! configuration and extrapolate epoch totals, exactly as the paper's
//! Tables V/VI average "the training time during 1000 iterations".

use shmcaffe::config::ShmCaffeConfig;
use shmcaffe::platforms::{CaffeMpi, CaffeSsgd, MpiCaffe, ShmCaffeA, ShmCaffeH, SsgdConfig};
use shmcaffe::report::TrainingReport;
use shmcaffe::trainer::ModeledTrainerFactory;
use shmcaffe::PlatformError;
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::ClusterSpec;

/// ImageNet ILSVRC-2012 training-set size (paper §IV-C).
pub const IMAGENET_TRAIN: usize = 1_281_167;

/// Epochs trained in the paper's headline experiment.
pub const PAPER_EPOCHS: usize = 15;

/// Iterations simulated per timing measurement (steady state; the paper
/// averages 1000, we default lower for wall-clock frugality — pass 1000 to
/// match exactly).
pub const DEFAULT_MEASURE_ITERS: usize = 200;

/// The platforms compared in §IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// BVLC Caffe multi-GPU SSGD.
    Caffe,
    /// Inspur Caffe-MPI star SSGD.
    CaffeMpi,
    /// The authors' MPI_Allreduce SSGD.
    MpiCaffe,
    /// Asynchronous ShmCaffe (SEASGD).
    ShmCaffeA,
    /// Hybrid ShmCaffe (groups of 4 unless the GPU count is smaller).
    ShmCaffeH,
}

impl Platform {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Caffe => "Caffe",
            Platform::CaffeMpi => "Caffe-MPI",
            Platform::MpiCaffe => "MPICaffe",
            Platform::ShmCaffeA => "ShmCaffe-A",
            Platform::ShmCaffeH => "ShmCaffe-H",
        }
    }

    /// All five platforms.
    pub const ALL: [Platform; 5] = [
        Platform::Caffe,
        Platform::CaffeMpi,
        Platform::MpiCaffe,
        Platform::ShmCaffeA,
        Platform::ShmCaffeH,
    ];
}

/// Nodes needed for `workers` at 4 GPUs per node.
fn nodes_for(workers: usize) -> usize {
    workers.div_ceil(4).max(1)
}

fn modeled_factory(model: CnnModel, seed: u64) -> ModeledTrainerFactory {
    ModeledTrainerFactory::new(WorkloadModel::from_cnn(model), JitterModel::hpc_default(), seed)
}

fn shm_cfg(iters: usize) -> ShmCaffeConfig {
    ShmCaffeConfig {
        max_iters: iters,
        progress_every: 25,
        // Jitter lives in the trainer; the platform's own jitter field is
        // unused by modeled runs.
        jitter: JitterModel::NONE,
        // The figures and tables reproduce the *paper's* exchange — one
        // tile, one SMB stream, W_g read after the update — so the
        // paper-vs-measured rows of EXPERIMENTS.md stay anchored to what
        // the paper measured. The library default (the striped read
        // window) is reported on its own by `ablations` and
        // `exchange_bench`.
        pipelined_exchange: false,
        ..Default::default()
    }
}

/// Runs a steady-state timing measurement for one platform, model and GPU
/// count; `measure_iters` iterations per worker.
///
/// A single GPU degenerates to standalone Caffe for every platform, as in
/// the paper's 1-GPU baseline column (its communication time is zero).
///
/// # Errors
///
/// Propagates platform failures.
pub fn measure(
    platform: Platform,
    model: CnnModel,
    gpus: usize,
    measure_iters: usize,
    seed: u64,
) -> Result<TrainingReport, PlatformError> {
    if gpus == 1 {
        return CaffeSsgd::new(
            ClusterSpec::paper_testbed(1),
            1,
            SsgdConfig { max_iters: measure_iters, ..Default::default() },
        )
        .run(modeled_factory(model, seed));
    }
    match platform {
        Platform::Caffe => CaffeSsgd::new(
            ClusterSpec::paper_testbed(nodes_for(gpus)),
            gpus,
            SsgdConfig { max_iters: measure_iters, ..Default::default() },
        )
        .run(modeled_factory(model, seed)),
        Platform::CaffeMpi => CaffeMpi::new(
            ClusterSpec::paper_testbed(nodes_for(gpus)),
            gpus,
            SsgdConfig { max_iters: measure_iters, ..Default::default() },
        )
        .run(modeled_factory(model, seed)),
        Platform::MpiCaffe => MpiCaffe::new(
            ClusterSpec::paper_testbed(nodes_for(gpus)),
            gpus,
            SsgdConfig { max_iters: measure_iters, ..Default::default() },
        )
        .run(modeled_factory(model, seed)),
        Platform::ShmCaffeA => ShmCaffeA::new(
            ClusterSpec::paper_testbed(nodes_for(gpus)),
            gpus,
            shm_cfg(measure_iters),
        )
        .run(modeled_factory(model, seed)),
        Platform::ShmCaffeH => {
            let (groups, group_size) = hybrid_shape(gpus);
            ShmCaffeH::new(
                ClusterSpec::paper_testbed(groups.max(1)),
                groups,
                group_size,
                shm_cfg(measure_iters),
            )
            .run(modeled_factory(model, seed))
        }
    }
}

/// The paper's hybrid decomposition for a GPU count: groups of 4 when
/// possible (16 → S4×A4, 8 → S4×A2, 4 → S2×A2 per §IV-D).
pub fn hybrid_shape(gpus: usize) -> (usize, usize) {
    match gpus {
        0 | 1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        n if n % 4 == 0 => (n / 4, 4),
        n if n % 2 == 0 => (n / 2, 2),
        n => (n, 1),
    }
}

/// Explicit hybrid measurement for a Table III configuration `S×A`
/// (`group_size` synchronous GPUs per group, `groups` async groups).
///
/// # Errors
///
/// Propagates platform failures.
pub fn measure_hybrid(
    model: CnnModel,
    groups: usize,
    group_size: usize,
    measure_iters: usize,
    seed: u64,
) -> Result<TrainingReport, PlatformError> {
    ShmCaffeH::new(
        ClusterSpec::paper_testbed(groups.max(1)),
        groups,
        group_size,
        shm_cfg(measure_iters),
    )
    .run(modeled_factory(model, seed))
}

/// Projects a steady-state report to the paper's 15-epoch training time in
/// hours. Per-worker iterations = dataset × epochs / (workers × batch) for
/// both the synchronous (global batch) and asynchronous (sharded data)
/// regimes.
pub fn epochs_hours(
    report: &TrainingReport,
    model: CnnModel,
    workers: usize,
    epochs: usize,
) -> f64 {
    let iters_per_worker =
        (IMAGENET_TRAIN * epochs) as f64 / (workers.max(1) * model.minibatch()) as f64;
    iters_per_worker * report.mean_iter_ms() / 3.6e6
}

/// One row of the Fig 12-15 style comp/comm breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Configuration label (e.g. `"8 (S4xA2)"`).
    pub label: String,
    /// Mean computation time per iteration (ms).
    pub comp_ms: f64,
    /// Mean non-overlapped communication time per iteration (ms).
    pub comm_ms: f64,
}

impl Breakdown {
    /// Extracts the breakdown from a report.
    pub fn from_report(label: &str, report: &TrainingReport) -> Self {
        Breakdown {
            label: label.to_string(),
            comp_ms: report.mean_comp_ms(),
            comm_ms: report.mean_comm_ms(),
        }
    }

    /// Communication share of the iteration.
    pub fn comm_ratio(&self) -> f64 {
        let total = self.comp_ms + self.comm_ms;
        if total == 0.0 {
            0.0
        } else {
            self.comm_ms / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_shapes_match_paper_configs() {
        assert_eq!(hybrid_shape(16), (4, 4));
        assert_eq!(hybrid_shape(8), (2, 4));
        assert_eq!(hybrid_shape(4), (2, 2));
        assert_eq!(hybrid_shape(2), (2, 1));
        assert_eq!(hybrid_shape(1), (1, 1));
    }

    #[test]
    fn one_gpu_baseline_has_zero_comm() {
        let r = measure(Platform::ShmCaffeA, CnnModel::InceptionV1, 1, 20, 1).unwrap();
        assert!(r.mean_comm_ms() < 1.0);
        assert!((r.mean_comp_ms() - 257.0).abs() < 20.0);
    }

    #[test]
    fn epochs_projection_matches_caffe_single_gpu() {
        let r = measure(Platform::Caffe, CnnModel::InceptionV1, 1, 20, 1).unwrap();
        let hours = epochs_hours(&r, CnnModel::InceptionV1, 1, PAPER_EPOCHS);
        // Paper: 22:59 for Caffe on one GPU.
        assert!((hours - 22.98).abs() < 1.5, "estimated {hours} h");
    }

    #[test]
    fn breakdown_ratio() {
        let b = Breakdown { label: "x".into(), comp_ms: 257.0, comm_ms: 90.0 };
        assert!((b.comm_ratio() - 90.0 / 347.0).abs() < 1e-12);
    }
}
