//! Parameterised timing-experiment runners.
//!
//! Timing runs simulate a few hundred steady-state iterations per
//! configuration and extrapolate epoch totals, exactly as the paper's
//! Tables V/VI average "the training time during 1000 iterations".

use shmcaffe::config::ShmCaffeConfig;
use shmcaffe::platforms::{CaffeMpi, CaffeSsgd, MpiCaffe, ShmCaffeA, ShmCaffeH, SsgdConfig};
use shmcaffe::report::TrainingReport;
use shmcaffe::trainer::{ModeledTrainerFactory, TrainerFactory};
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

    /// How this platform lays out `gpus` GPUs: ShmCaffe-H as `(groups,
    /// group size)` in the paper's decomposition ([`hybrid_shape`]), every
    /// other platform as `(gpus, 1)`.
    pub fn shape(self, gpus: usize) -> (usize, usize) {
        if self == Platform::ShmCaffeH {
            hybrid_shape(gpus)
        } else {
            (gpus, 1)
        }
    }
}

/// Seed of every timing measurement.
pub const SEED: u64 = 42;

/// The modeled trainers of a timing run: `model`'s calibrated compute time
/// under the HPC jitter model.
pub fn modeled_factory(model: CnnModel, seed: u64) -> ModeledTrainerFactory {
    ModeledTrainerFactory::new(WorkloadModel::from_cnn(model), JitterModel::hpc_default(), seed)
}

/// The ShmCaffe configuration of a timing run. The figures and tables of
/// the paper reproduce the *paper's* exchange (`striped = false`: one
/// tile, one SMB stream, `W_g` read after the update), so the
/// paper-vs-measured rows stay anchored to what the paper measured; the
/// library default (the striped read window) is what `paper comm`,
/// `paper fault` and `paper ablations` report.
pub fn shm_cfg(iters: usize, striped: bool) -> ShmCaffeConfig {
    ShmCaffeConfig {
        max_iters: iters,
        progress_every: 25,
        // Jitter lives in the trainer; the platform's own jitter field is
        // unused by modeled runs.
        jitter: JitterModel::NONE,
        pipelined_exchange: striped,
        ..Default::default()
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

/// Builds `platform` in the given [`Platform::shape`] — `(workers, 1)`,
/// or `(groups, group size)` for ShmCaffe-H — on the paper testbed (4 GPUs
/// per node; ShmCaffe-H one group per node) and runs it with `factory`:
/// the one platform → constructor dispatch behind both the timing
/// measurements and the convergence runs. The SSGD baselines take `ssgd`,
/// the two ShmCaffe platforms `shm`.
///
/// # Errors
///
/// Propagates platform failures.
pub fn run_platform<F: TrainerFactory>(
    platform: Platform,
    (n, group_size): (usize, usize),
    ssgd: SsgdConfig,
    shm: ShmCaffeConfig,
    factory: F,
) -> Result<TrainingReport, PlatformError> {
    let testbed = |nodes: usize| ClusterSpec::paper_testbed(nodes.max(1));
    let spec = testbed(n.div_ceil(4));
    match platform {
        Platform::Caffe => CaffeSsgd::new(spec, n, ssgd).run(factory),
        Platform::CaffeMpi => CaffeMpi::new(spec, n, ssgd).run(factory),
        Platform::MpiCaffe => MpiCaffe::new(spec, n, ssgd).run(factory),
        Platform::ShmCaffeA => ShmCaffeA::new(spec, n, shm).run(factory),
        Platform::ShmCaffeH => ShmCaffeH::new(testbed(n), n, group_size, shm).run(factory),
    }
}

/// Steady-state timing measurements, memoised: a configuration asked for
/// by several figures (Fig 10 re-reads Fig 9's runs, Fig 15 those of
/// Figs 12 and 14) is simulated once.
#[derive(Debug, Default)]
pub struct Measurements {
    /// One entry per simulation run: what was run — platform, model,
    /// (workers, 1) or (groups, group size), iterations, seed — and its
    /// report.
    memo: Vec<(Key, TrainingReport)>,
    /// Calls answered from the memo instead of a simulation.
    pub served: usize,
}

type Key = (Platform, CnnModel, (usize, usize), usize, u64);

impl Measurements {
    /// Simulations run so far.
    pub fn ran(&self) -> usize {
        self.memo.len()
    }

    /// Measures one platform, model and GPU count over `measure_iters`
    /// iterations per worker.
    ///
    /// A single GPU degenerates to standalone Caffe for every platform, as
    /// in the paper's 1-GPU baseline column (its communication time is
    /// zero).
    ///
    /// # Errors
    ///
    /// Propagates platform failures.
    pub fn measure(
        &mut self,
        platform: Platform,
        model: CnnModel,
        gpus: usize,
        measure_iters: usize,
        seed: u64,
    ) -> Result<TrainingReport, PlatformError> {
        let platform = if gpus == 1 { Platform::Caffe } else { platform };
        self.run((platform, model, platform.shape(gpus), measure_iters, seed))
    }

    /// Explicit hybrid measurement for a Table III configuration `S×A`
    /// (`group_size` synchronous GPUs per group, `groups` async groups).
    ///
    /// # Errors
    ///
    /// Propagates platform failures.
    pub fn measure_hybrid(
        &mut self,
        model: CnnModel,
        groups: usize,
        group_size: usize,
        measure_iters: usize,
        seed: u64,
    ) -> Result<TrainingReport, PlatformError> {
        self.run((Platform::ShmCaffeH, model, (groups, group_size), measure_iters, seed))
    }

    fn run(&mut self, key: Key) -> Result<TrainingReport, PlatformError> {
        if let Some((_, report)) = self.memo.iter().find(|(k, _)| *k == key) {
            self.served += 1;
            return Ok(report.clone());
        }
        let (platform, model, shape, iters, seed) = key;
        let ssgd = SsgdConfig { max_iters: iters, ..Default::default() };
        let report = run_platform(
            platform,
            shape,
            ssgd,
            shm_cfg(iters, false),
            modeled_factory(model, seed),
        )?;
        self.memo.push((key, report.clone()));
        Ok(report)
    }
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
        let r = Measurements::default()
            .measure(Platform::ShmCaffeA, CnnModel::InceptionV1, 1, 20, 1)
            .unwrap();
        assert!(r.mean_comm_ms() < 1.0);
        assert!((r.mean_comp_ms() - 257.0).abs() < 20.0);
    }

    #[test]
    fn epochs_projection_matches_caffe_single_gpu() {
        let r = Measurements::default()
            .measure(Platform::Caffe, CnnModel::InceptionV1, 1, 20, 1)
            .unwrap();
        let hours = epochs_hours(&r, CnnModel::InceptionV1, 1, PAPER_EPOCHS);
        // Paper: 22:59 for Caffe on one GPU.
        assert!((hours - 22.98).abs() < 1.5, "estimated {hours} h");
    }

    #[test]
    fn memo_serves_equal_reports_and_keys_on_iterations_and_seed() {
        let same = |a: &TrainingReport, b: &TrainingReport| format!("{a:?}") == format!("{b:?}");
        let model = CnnModel::InceptionV1;
        let mut lab = Measurements::default();
        let first = lab.measure(Platform::ShmCaffeA, model, 4, 12, 42).unwrap();
        let again = lab.measure(Platform::ShmCaffeA, model, 4, 12, 42).unwrap();
        let fresh = Measurements::default().measure(Platform::ShmCaffeA, model, 4, 12, 42).unwrap();
        assert_eq!((lab.ran(), lab.served), (1, 1));
        assert!(same(&first, &again) && same(&first, &fresh), "the memo changes no report");

        // Fig 9's 150-iteration runs must not be served to Fig 12's 200.
        let longer = lab.measure(Platform::ShmCaffeA, model, 4, 16, 42).unwrap();
        let reseeded = lab.measure(Platform::ShmCaffeA, model, 4, 12, 43).unwrap();
        assert_eq!((lab.ran(), lab.served), (3, 1));
        assert_eq!(longer.workers[0].iters, 16);
        assert!(!same(&first, &reseeded));

        // One configuration, however it is asked for: 8 hybrid GPUs are
        // S4xA2, and one GPU is standalone Caffe on every platform.
        let by_count = lab.measure(Platform::ShmCaffeH, model, 8, 12, 42).unwrap();
        let by_shape = lab.measure_hybrid(model, 2, 4, 12, 42).unwrap();
        lab.measure(Platform::Caffe, model, 1, 12, 42).unwrap();
        lab.measure(Platform::MpiCaffe, model, 1, 12, 42).unwrap();
        assert_eq!((lab.ran(), lab.served), (5, 3));
        assert!(same(&by_count, &by_shape));
    }
}
