//! The classic Caffe workflow end to end, on this reproduction's
//! substrate:
//!
//! 1. define the network from a text spec (the prototxt stand-in),
//! 2. convert the dataset into the LMDB-like record store,
//! 3. train with a background prefetcher feeding minibatches
//!    (the paper prefetches 10),
//! 4. snapshot mid-training and resume bit-identically — Caffe's
//!    `--snapshot` behaviour.
//!
//! Run with `cargo run --release --example caffe_workflow`.

use shmcaffe_repro::dnn::data::{Dataset, SyntheticImages};
use shmcaffe_repro::dnn::netspec::build_net;
use shmcaffe_repro::dnn::recorddb::{Prefetcher, RecordDb, RecordDbDataset};
use shmcaffe_repro::dnn::{LrPolicy, Phase, Solver, SolverConfig};

fn main() {
    // 1. Network from a spec string.
    let spec = "conv 8 3x3 pad 1; relu; lrn; pool 2; conv 16 3x3 pad 1; relu; pool 2; fc 64; relu; dropout 0.3; fc 3";
    let net = build_net("spec_cnn", (1, 12, 12), spec, 11).expect("valid spec");
    println!("built `{spec}`");

    // 2. Dataset -> record store (the LMDB analogue).
    let source = SyntheticImages::new(3, 1, 12, 600, 0.08, 21);
    let db = RecordDb::from_dataset(&source).expect("conversion succeeds");
    println!(
        "record store: {} records, {:.1} KB serialised",
        db.len(),
        db.byte_size() as f64 / 1e3
    );

    // 3. Train with a prefetch depth of 10 (paper §IV-C).
    let mut solver = Solver::new(
        net,
        SolverConfig {
            base_lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0005,
            policy: LrPolicy::Step { gamma: 0.1, step_size: 120 },
            clip_gradients: Some(5.0),
        },
    );
    let batches = 150usize;
    let pf = Prefetcher::spawn(db.clone(), db.keys(), 30, 10, batches);
    let mut snapshot = None;
    for i in 0..batches {
        let mb = pf.next_batch().expect("prefetcher delivers all batches");
        let loss = solver.step(&mb.features, &mb.labels).expect("shapes match");
        if i % 30 == 0 {
            println!("iter {i:>3}: loss {loss:.3}");
        }
        if i == 74 {
            snapshot = Some(solver.snapshot().expect("snapshot"));
            println!("captured snapshot at iteration 75");
        }
    }

    // 4. Evaluate, then demonstrate snapshot resume.
    let eval_view = RecordDbDataset::new(db).expect("non-empty db");
    let result =
        shmcaffe_repro::dnn::metrics::evaluate(solver.net_mut(), &eval_view, 50, 2).expect("eval");
    println!("trained: {result}");
    assert!(result.top1 > 0.8, "workflow should learn the task");

    let snap = snapshot.expect("captured");
    let resumed_net = build_net("spec_cnn", (1, 12, 12), spec, 999).expect("valid spec");
    let mut resumed = Solver::new(
        resumed_net,
        SolverConfig {
            base_lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0005,
            policy: LrPolicy::Step { gamma: 0.1, step_size: 120 },
            clip_gradients: Some(5.0),
        },
    );
    resumed.restore(&snap).expect("snapshot fits");
    println!("restored snapshot: resuming at iteration {}", resumed.iter());
    let idx: Vec<usize> = (0..30).collect();
    let (x, y) = eval_view.minibatch(&idx).expect("indices in range");
    let (loss, _) = resumed.net_mut().forward_loss(&x, &y, Phase::Test).expect("shapes match");
    println!("restored model loss on first batch: {loss:.3}");
}
