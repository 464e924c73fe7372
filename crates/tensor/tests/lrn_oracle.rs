//! The row-major LRN kernels against the per-element formulation they
//! replaced.
//!
//! [`oracle_forward`] / [`oracle_backward`] are the loops `Lrn` ran before
//! the arithmetic moved into `shmcaffe_tensor::lrn`: a channel-strided
//! window gather per element, `powf` once per element forward and once per
//! window neighbour backward. They stay here as the executable definition:
//! `scale` must match bit for bit (same ascending-channel fold), outputs
//! and gradients to 1e-5 relative (the kernels evaluate `s^-β` differently
//! and backward in Caffe's ratio form).

use proptest::prelude::*;
use shmcaffe_tensor::lrn::{lrn_backward, lrn_forward, LrnParams};

fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(2891336453);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0 - 0.5) * 4.0
        })
        .collect()
}

fn window(p: &LrnParams, c: usize, channels: usize) -> std::ops::Range<usize> {
    c.saturating_sub(p.size / 2)..(c + p.size / 2 + 1).min(channels)
}

fn oracle_forward(
    p: &LrnParams,
    batch: usize,
    channels: usize,
    spatial: usize,
    x: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let alpha_n = p.alpha / p.size as f32;
    let mut out = vec![0.0f32; x.len()];
    let mut scale = vec![0.0f32; x.len()];
    for n in 0..batch {
        let base = n * channels * spatial;
        for c in 0..channels {
            for s in 0..spatial {
                let mut acc = 0.0f32;
                for cc in window(p, c, channels) {
                    let v = x[base + cc * spatial + s];
                    acc += v * v;
                }
                let idx = base + c * spatial + s;
                scale[idx] = p.k + alpha_n * acc;
                out[idx] = x[idx] * scale[idx].powf(-p.beta);
            }
        }
    }
    (out, scale)
}

/// `dx_i = dy_i·s_i^-β − 2αβ/n · x_i · Σ_{j: i∈win(j)} dy_j·x_j·s_j^(-β-1)`.
fn oracle_backward(
    p: &LrnParams,
    batch: usize,
    channels: usize,
    spatial: usize,
    x: &[f32],
    scale: &[f32],
    dy: &[f32],
) -> Vec<f32> {
    let alpha_n = p.alpha / p.size as f32;
    let mut dx = vec![0.0f32; x.len()];
    for n in 0..batch {
        let base = n * channels * spatial;
        for c in 0..channels {
            for s in 0..spatial {
                let idx = base + c * spatial + s;
                let mut grad = dy[idx] * scale[idx].powf(-p.beta);
                for j in window(p, c, channels) {
                    let jdx = base + j * spatial + s;
                    grad -= 2.0
                        * alpha_n
                        * p.beta
                        * x[idx]
                        * dy[jdx]
                        * x[jdx]
                        * scale[jdx].powf(-p.beta - 1.0);
                }
                dx[idx] = grad;
            }
        }
    }
    dx
}

/// Largest `|got − want|` relative to the larger of `|want|` and the
/// vector's own magnitude (gradients cancel to near zero element-wise).
fn max_rel_err(got: &[f32], want: &[f32]) -> f32 {
    let floor = want.iter().fold(1e-3f32, |m, v| m.max(v.abs()));
    got.iter().zip(want).fold(0.0f32, |m, (g, w)| m.max((g - w).abs() / w.abs().max(floor)))
}

fn pick<T: Copy + std::fmt::Debug + 'static>(values: &'static [T]) -> impl Strategy<Value = T> {
    (0usize..values.len()).prop_map(move |i| values[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_match_the_per_element_oracle(
        batch in 1usize..4,
        channels in 1usize..10,
        spatial in 1usize..40,
        size in pick(&[1usize, 3, 5, 7]),
        alpha in pick(&[1e-4f32, 0.5, 2.0]),
        beta in pick(&[0.5f32, 0.75, 1.0, 0.9]),
        k in pick(&[1.0f32, 2.0, 0.5]),
        seed in 0u32..1000,
    ) {
        let p = LrnParams { size, alpha, beta, k };
        let len = batch * channels * spatial;
        let x = fill(len, seed);
        let dy = fill(len, seed ^ 0x0f0f);

        let (want_out, want_scale) = oracle_forward(&p, batch, channels, spatial, &x);
        let mut out = vec![f32::NAN; len];
        let mut scale = vec![f32::NAN; len];
        lrn_forward(&p, batch, channels, spatial, &x, &mut out, &mut scale);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&scale), bits(&want_scale), "scale must be bit-equal");
        let fwd_err = max_rel_err(&out, &want_out);
        prop_assert!(fwd_err <= 1e-5, "forward deviates by {}", fwd_err);

        let want_dx = oracle_backward(&p, batch, channels, spatial, &x, &want_scale, &dy);
        let mut dx = vec![f32::NAN; len];
        lrn_backward(&p, batch, channels, spatial, &x, &scale, &dy, &mut dx);
        let bwd_err = max_rel_err(&dx, &want_dx);
        prop_assert!(bwd_err <= 1e-5, "backward deviates by {}", bwd_err);
    }
}
