//! Bit-level golden of the [`Inception`] module: an FNV-1a hash over the
//! bits of two training steps' forward outputs and input gradients and of
//! every parameter gradient they accumulate, for the two modules of
//! `proxies::mini_inception` (8→16 and 16→24 at 16×16) and an all-width-1
//! module at 4×4, at batches 1, 3 and 16.
//!
//! The literals were captured on the module as four separately computed
//! branches (one convolution per `Conv2d`, concatenation and gradient
//! split by copies) and must never change: any restructuring of the
//! module's kernels has to reproduce every bit, at every thread count.
//! Operands are salted with `±0.0`, exact zeros, negatives and denormals,
//! so that every ReLU masks something and signed-zero handling shows.

use shmcaffe_dnn::layers::{Inception, InceptionSpec};
use shmcaffe_dnn::{Layer, Phase};
use shmcaffe_tensor::{parallel, Tensor};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Deterministic salted fill (LCG): values in `[-0.5, 0.5)`, a quarter of
/// them exact `+0.0`, and `-0.0` and ± denormals a twelfth each.
fn salted(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(2891336453);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = ((state >> 16) as f32 / 65536.0) - 0.5;
            match (state >> 8) % 12 {
                0..=2 => 0.0,
                3 => -0.0,
                4 => f32::from_bits(1 + (state & 0xffff)),
                5 => -f32::from_bits(1 + (state & 0xffff)),
                _ => v,
            }
        })
        .collect()
}

fn fnv(mut h: u64, v: &[f32]) -> u64 {
    for x in v {
        h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Two forward + backward steps of a freshly built module whose every
/// parameter is overwritten with salted values; the hash of both outputs,
/// both input gradients and the accumulated parameter gradients.
fn module_hash(in_channels: usize, hw: usize, spec: InceptionSpec, batch: usize) -> u64 {
    let mut m = Inception::new("golden", in_channels, hw, spec, 5).expect("geometry fits");
    for (i, (p, _)) in m.params_and_grads().into_iter().enumerate() {
        let len = p.len();
        p.data_mut().copy_from_slice(&salted(len, 100 + i as u32));
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for step in 0..2u32 {
        let x_dims = [batch, in_channels, hw, hw];
        let y_dims = [batch, spec.out_channels(), hw, hw];
        let x = Tensor::from_vec(salted(x_dims.iter().product(), 1 + step), &x_dims).expect("dims");
        let dy =
            Tensor::from_vec(salted(y_dims.iter().product(), 11 + step), &y_dims).expect("dims");
        let y = m.forward(&x, Phase::Train).expect("forward");
        let dx = m.backward(&dy).expect("backward");
        h = fnv(fnv(h, y.data()), dx.data());
    }
    for (_, g) in m.params_and_grads() {
        h = fnv(h, g.data());
    }
    h
}

fn assert_golden(in_channels: usize, hw: usize, spec: InceptionSpec, expected: [u64; 3]) {
    for (batch, want) in [1, 3, 16].into_iter().zip(expected) {
        for t in THREAD_COUNTS {
            let got = parallel::with_threads(t, || module_hash(in_channels, hw, spec, batch));
            assert_eq!(got, want, "batch {batch}, threads {t}: {got:#018x}");
        }
    }
}

#[test]
fn inception_3a_module_is_bit_identical_in_parallel() {
    let spec = InceptionSpec { c1: 4, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 2, pool_proj: 2 };
    assert_golden(8, 16, spec, [0x18419dbc9626f22e, 0x17ac8d75c620d6c9, 0x7297a26999925559]);
}

#[test]
fn inception_3b_module_is_bit_identical_in_parallel() {
    let spec = InceptionSpec { c1: 6, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 4, pool_proj: 6 };
    assert_golden(16, 16, spec, [0x03433565dbe77d47, 0x499ef978a62064ea, 0xc81cd69ca72d23de]);
}

#[test]
fn width_one_module_is_bit_identical_in_parallel() {
    let spec = InceptionSpec { c1: 1, c3_reduce: 1, c3: 1, c5_reduce: 1, c5: 1, pool_proj: 1 };
    assert_golden(2, 4, spec, [0xd081f93960e6f4df, 0xc3bfec4c3105e5c7, 0x48ef8d08a245272b]);
}
