//! End-to-end: the paper's headline pairing — an Inception-architecture
//! network trained with Hybrid SGD across node groups — at proxy scale.

use std::sync::Arc;

use shmcaffe_repro::dnn::data::SyntheticImages;
use shmcaffe_repro::dnn::layers::{Conv2d, InnerProduct, Pool2d, Relu};
use shmcaffe_repro::dnn::{LrPolicy, Net, SolverConfig};
use shmcaffe_repro::models::proxies;
use shmcaffe_repro::platform::config::ShmCaffeConfig;
use shmcaffe_repro::platform::platforms::{ShmCaffeA, ShmCaffeH};
use shmcaffe_repro::platform::trainer::RealTrainerFactory;
use shmcaffe_repro::simnet::jitter::JitterModel;
use shmcaffe_repro::simnet::topology::ClusterSpec;
use shmcaffe_repro::simnet::SimDuration;
use shmcaffe_repro::tensor::conv::Conv2dGeometry;
use shmcaffe_repro::tensor::init::Filler;

fn image_factory(net_seed: u64) -> RealTrainerFactory {
    RealTrainerFactory::builder()
        .dataset(Arc::new(SyntheticImages::new(3, 1, 8, 240, 0.08, 17)))
        .net_builder(move |s| {
            proxies::mini_inception(1, 8, 3, s ^ net_seed).expect("geometry fits")
        })
        .solver(SolverConfig {
            base_lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0005,
            policy: LrPolicy::Fixed,
            clip_gradients: Some(5.0),
        })
        .batch(12)
        .comp_model(SimDuration::from_millis(3), JitterModel::NONE)
        .build()
}

#[test]
fn mini_inception_trains_under_hybrid_sgd() {
    let cfg = ShmCaffeConfig {
        max_iters: 60,
        progress_every: 15,
        eval_every: 60,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let report = ShmCaffeH::new(ClusterSpec::paper_testbed(2), 2, 2, cfg)
        .run(image_factory(5))
        .expect("platform runs");
    let last = report.final_eval().expect("evaluations recorded");
    assert!(last.top1 > 0.7, "hybrid-trained mini inception should learn: top-1 {}", last.top1);
    // All four workers completed in lockstep.
    for w in &report.workers {
        assert_eq!(w.iters, 60);
    }
}

/// conv 6 3×3 pad 1 → ReLU → max-pool 2 → fc 32 → ReLU → fc 3 over
/// 1×8×8 inputs: a second architecture beside `mini_inception`. Layer
/// names seed each layer's filler, so these are the deleted net-spec
/// parser's names and the net starts on the weights it built.
fn conv_net(seed: u64) -> Net {
    let mut net = Net::new("conv");
    let conv = Conv2dGeometry::square(1, 8, 3, 1, 1);
    net.add(Conv2d::new("conv0", conv, 6, Filler::Msra, seed).expect("geometry fits"));
    net.add(Relu::new("relu1"));
    net.add(Pool2d::max_square("pool2", 6, 8, 2, 2).expect("geometry fits"));
    net.add(InnerProduct::new("fc3", 6 * 4 * 4, 32, Filler::Xavier, seed));
    net.add(Relu::new("relu4"));
    net.add(InnerProduct::new("fc5", 32, 3, Filler::Xavier, seed));
    net
}

#[test]
fn conv_net_trains_under_async_seasgd() {
    let factory = RealTrainerFactory::builder()
        .dataset(Arc::new(SyntheticImages::new(3, 1, 8, 240, 0.08, 29)))
        .net_builder(conv_net)
        .solver(SolverConfig { base_lr: 0.05, ..Default::default() })
        .batch(12)
        .comp_model(SimDuration::from_millis(3), JitterModel::NONE)
        .build();
    let cfg = ShmCaffeConfig {
        max_iters: 80,
        progress_every: 20,
        eval_every: 80,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let report =
        ShmCaffeA::new(ClusterSpec::paper_testbed(1), 4, cfg).run(factory).expect("platform runs");
    let last = report.final_eval().expect("evaluations recorded");
    assert!(last.top1 > 0.7, "conv net should learn: top-1 {}", last.top1);
}
