//! A miniature of the paper's §IV-C comparison: all five platforms
//! training Inception_v1 (calibrated timing model) on 8 GPUs, with the
//! per-iteration computation/communication breakdown and projected
//! 15-epoch training times.
//!
//! Run with `cargo run --release --example platform_comparison`.

use shmcaffe_repro::models::CnnModel;
use shmcaffe_repro::models::WorkloadModel;
use shmcaffe_repro::platform::config::ShmCaffeConfig;
use shmcaffe_repro::platform::platforms::{
    CaffeMpi, CaffeSsgd, MpiCaffe, ShmCaffeA, ShmCaffeH, SsgdConfig,
};
use shmcaffe_repro::platform::report::TrainingReport;
use shmcaffe_repro::platform::trainer::ModeledTrainerFactory;
use shmcaffe_repro::simnet::jitter::JitterModel;
use shmcaffe_repro::simnet::topology::ClusterSpec;

const GPUS: usize = 8;
const ITERS: usize = 100;

fn factory() -> ModeledTrainerFactory {
    ModeledTrainerFactory::new(
        WorkloadModel::from_cnn(CnnModel::InceptionV1),
        JitterModel::hpc_default(),
        42,
    )
}

fn describe(name: &str, report: &TrainingReport) {
    // 15 ImageNet epochs at batch 60 per worker.
    let iters_per_worker = (1_281_167.0 * 15.0) / (GPUS as f64 * 60.0);
    let hours = iters_per_worker * report.mean_iter_ms() / 3.6e6;
    println!(
        "{name:<11}  comp {:>6.1} ms  comm {:>6.1} ms  ({:>4.1}%)  => 15 epochs in {:>5.2} h",
        report.mean_comp_ms(),
        report.mean_comm_ms(),
        report.comm_ratio() * 100.0,
        hours
    );
}

fn main() {
    println!("platform comparison: Inception_v1, {GPUS} GPUs, {ITERS} measured iterations\n");
    let spec = ClusterSpec::paper_testbed(2);
    let ssgd = SsgdConfig { max_iters: ITERS, ..Default::default() };
    let shm = ShmCaffeConfig { max_iters: ITERS, progress_every: 25, ..Default::default() };

    describe("Caffe", &CaffeSsgd::new(spec, GPUS, ssgd).run(factory()).expect("runs"));
    describe("Caffe-MPI", &CaffeMpi::new(spec, GPUS, ssgd).run(factory()).expect("runs"));
    describe("MPICaffe", &MpiCaffe::new(spec, GPUS, ssgd).run(factory()).expect("runs"));
    describe("ShmCaffe-A", &ShmCaffeA::new(spec, GPUS, shm).run(factory()).expect("runs"));
    describe("ShmCaffe-H", &ShmCaffeH::new(spec, 2, 4, shm).run(factory()).expect("runs"));

    println!("\n(the full Table II / Fig 9 sweep lives in `cargo run -p shmcaffe-bench --bin paper -- fig09`)");
}
