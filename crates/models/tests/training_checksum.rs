//! End-to-end kernel oracles: two proxies trained for a fixed seeded
//! schedule must end on exactly these weight bits, at any thread count.
//!
//! `small_cnn` covers the 3x3 conv / 2x2 pool / fc path, the benchmark's
//! `mini_inception(3, 32, 4)` the 1x1/3x3/5x5 convs, padded stride-1
//! pools, LRN and the Inception concat. A kernel change that reorders a
//! reduction moves a hash even when it moves it the same way at every
//! thread count, which is why the hashes are literals here and not a
//! 1-thread-vs-4 comparison.

use shmcaffe_dnn::data::{Dataset, SyntheticImages};
use shmcaffe_dnn::{LrPolicy, Net, Solver, SolverConfig};
use shmcaffe_models::proxies;
use shmcaffe_tensor::parallel;

/// Trains `net` (4 classes of 3-channel `hw x hw` images) for 30 steps of
/// batch 16 and returns the FNV-1a hash of the final weight bits.
fn training_checksum(net: Net, hw: usize) -> u64 {
    let mut solver = Solver::new(
        net,
        SolverConfig {
            base_lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0005,
            policy: LrPolicy::Step { gamma: 0.1, step_size: 20 },
            clip_gradients: Some(5.0),
        },
    );
    let data = SyntheticImages::new(4, 3, hw, 64, 0.5, 20180707);
    let batch = 16;
    for step in 0..30 {
        let indices: Vec<usize> = (0..batch).map(|j| (step * batch + j) % data.len()).collect();
        let (x, labels) = data.minibatch(&indices).expect("indices in range");
        solver.step(&x, &labels).expect("shapes match");
    }
    let mut net = solver.into_net();
    let mut weights = vec![0.0f32; net.param_len()];
    net.copy_weights_to(&mut weights).expect("sized to param_len");

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in weights {
        for byte in w.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn ends_on_the_pinned_weights(threads: usize) {
    parallel::with_threads(threads, || {
        let small_cnn = proxies::small_cnn(3, 16, 4, 7).expect("geometry fits");
        assert_eq!(training_checksum(small_cnn, 16), 0x67fc8aab7eb99820, "small_cnn");
        let inception = proxies::mini_inception(3, 32, 4, 7).expect("geometry fits");
        assert_eq!(training_checksum(inception, 32), 0x632699351a24fce4, "mini_inception");
    });
}

// Two tests, not one loop: the harness runs them side by side.
#[test]
fn seeded_training_ends_on_the_pinned_weights_at_1_thread() {
    ends_on_the_pinned_weights(1);
}

#[test]
fn seeded_training_ends_on_the_pinned_weights_at_4_threads() {
    ends_on_the_pinned_weights(4);
}
