//! Property-based proof that the parallel kernels are schedule-independent.
//!
//! Every hot kernel in this crate decomposes work along **fixed split
//! points** derived only from the problem size, and combines partial
//! results in a fixed order on the calling thread. Consequently the output
//! must be *bit-identical* for any logical thread count. These tests
//! execute genuinely different schedules in one process via
//! [`parallel::with_threads`] and compare raw `f32::to_bits`
//! representations, so even a one-ulp reassociation difference fails.
//!
//! A separate tolerance check compares the packed gemm against a naive
//! triple loop, guarding against the parallel paths all agreeing on a
//! wrong answer.

use proptest::prelude::*;
use shmcaffe_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeometry};
use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::lrn::{lrn_backward, lrn_forward, LrnParams};
use shmcaffe_tensor::pool::{pool_backward, pool_forward, PoolKind};
use shmcaffe_tensor::{ops, parallel};

/// The schedules under test: serial, even splits, and a count that does
/// not divide typical panel counts (forces ragged round-robin buckets).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Deterministic pseudo-random fill (LCG), independent of any crate RNG.
fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(2891336453);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Naive O(mnk) reference gemm supporting both transpose flags.
#[allow(clippy::too_many_arguments)]
fn gemm_reference(
    trans_a: Transpose,
    trans_b: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                let av = match trans_a {
                    Transpose::No => a[i * k + p],
                    Transpose::Yes => a[p * m + i],
                };
                let bv = match trans_b {
                    Transpose::No => b[p * n + j],
                    Transpose::Yes => b[j * k + p],
                };
                acc += f64::from(av) * f64::from(bv);
            }
            let old = if beta == 0.0 { 0.0 } else { f64::from(c[i * n + j]) * f64::from(beta) };
            c[i * n + j] = (f64::from(alpha) * acc + old) as f32;
        }
    }
}

fn transpose_flag() -> impl Strategy<Value = Transpose> {
    (0usize..2).prop_map(|i| if i == 0 { Transpose::No } else { Transpose::Yes })
}

fn pick(values: &'static [f32]) -> impl Strategy<Value = f32> {
    (0usize..values.len()).prop_map(move |i| values[i])
}

fn pick_usize(values: &'static [usize]) -> impl Strategy<Value = usize> {
    (0usize..values.len()).prop_map(move |i| values[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// gemm output is bit-identical across thread counts for all four
    /// transpose combinations and non-square shapes spanning several
    /// MC=64 row panels.
    #[test]
    fn gemm_bit_identical_across_thread_counts(
        trans_a in transpose_flag(),
        trans_b in transpose_flag(),
        m in 1usize..200,
        n in 1usize..40,
        k in 1usize..70,
        alpha in pick(&[1.0, 0.5, -2.0]),
        beta in pick(&[0.0, 1.0, 0.25]),
        seed in 0u32..1000,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0xabcd);
        let c0 = fill(m * n, seed ^ 0x1234);

        let run = |threads: usize| {
            let mut c = c0.clone();
            parallel::with_threads(threads, || {
                gemm(trans_a, trans_b, m, n, k, alpha, &a, &b, beta, &mut c);
            });
            c
        };

        let serial = run(1);
        for &t in &THREAD_COUNTS[1..] {
            let par = run(t);
            prop_assert_eq!(
                bits(&serial), bits(&par),
                "gemm diverged at threads={} ({:?},{:?}) m={} n={} k={}",
                t, trans_a, trans_b, m, n, k
            );
        }

        // The schedules agreeing is not enough: check against a naive
        // reference so they cannot all agree on a wrong answer.
        let mut reference = c0.clone();
        gemm_reference(trans_a, trans_b, m, n, k, alpha, &a, &b, beta, &mut reference);
        for (got, want) in serial.iter().zip(reference.iter()) {
            prop_assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "gemm wrong vs reference: {got} vs {want}"
            );
        }
    }

    /// Convolution forward and backward (the fused im2col → packed-GEMM
    /// path) are bit-identical across thread counts, including the
    /// batch fold into dW/db inside the filter-row-block tasks.
    #[test]
    fn conv_bit_identical_across_thread_counts(
        batch in 1usize..9,
        channels in 1usize..4,
        out_channels in 1usize..6,
        hw in 3usize..10,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        prop_assume!(kernel <= hw + 2 * pad);
        let geom = Conv2dGeometry::square(channels, hw, kernel, stride, pad);
        prop_assume!(geom.out_h().is_ok());
        let spatial = geom.out_h().unwrap() * geom.out_w().unwrap();
        let in_total = batch * geom.in_len();
        let out_total = batch * out_channels * spatial;
        let w_len = out_channels * geom.col_rows();

        let input = fill(in_total, seed);
        let weights = fill(w_len, seed ^ 0x5555);
        let bias = fill(out_channels, seed ^ 0xaaaa);
        let d_output = fill(out_total, seed ^ 0x0f0f);

        let run = |threads: usize| {
            let mut output = vec![0.0f32; out_total];
            let mut d_weights = fill(w_len, seed ^ 0x7777); // non-zero: backward accumulates
            let mut d_bias = fill(out_channels, seed ^ 0x8888);
            let mut d_input = vec![0.0f32; in_total];
            parallel::with_threads(threads, || {
                conv2d_forward(
                    &geom, batch, out_channels, &input, &weights, &bias,
                    &mut output,
                );
                conv2d_backward(
                    &geom, batch, out_channels, &input, &weights, &d_output,
                    &mut d_weights, &mut d_bias, &mut d_input,
                );
            });
            (output, d_weights, d_bias, d_input)
        };

        let serial = run(1);
        for &t in &THREAD_COUNTS[1..] {
            let par = run(t);
            prop_assert_eq!(bits(&serial.0), bits(&par.0), "conv fwd diverged at threads={}", t);
            prop_assert_eq!(bits(&serial.1), bits(&par.1), "conv dW diverged at threads={}", t);
            prop_assert_eq!(bits(&serial.2), bits(&par.2), "conv db diverged at threads={}", t);
            prop_assert_eq!(bits(&serial.3), bits(&par.3), "conv dX diverged at threads={}", t);
        }
    }

    /// LRN forward (output and scale map) and backward are bit-identical
    /// across thread counts: one task per image, nothing shared.
    #[test]
    fn lrn_bit_identical_across_thread_counts(
        batch in 1usize..9,
        channels in 1usize..9,
        spatial in 1usize..50,
        size in pick_usize(&[1, 3, 5]),
        beta in pick(&[0.75, 0.5]),
        seed in 0u32..1000,
    ) {
        let params = LrnParams { size, alpha: 0.3, beta, k: 1.0 };
        let len = batch * channels * spatial;
        let input = fill(len, seed);
        let d_output = fill(len, seed ^ 0x0f0f);

        let run = |threads: usize| {
            let mut output = vec![0.0f32; len];
            let mut scale = vec![0.0f32; len];
            let mut d_input = vec![0.0f32; len];
            parallel::with_threads(threads, || {
                lrn_forward(&params, batch, channels, spatial, &input, &mut output, &mut scale);
                lrn_backward(
                    &params, batch, channels, spatial, &input, &scale, &d_output, &mut d_input,
                );
            });
            (output, scale, d_input)
        };

        let serial = run(1);
        for &t in &THREAD_COUNTS[1..] {
            let par = run(t);
            prop_assert_eq!(bits(&serial.0), bits(&par.0), "lrn fwd diverged at threads={}", t);
            prop_assert_eq!(bits(&serial.1), bits(&par.1), "lrn scale diverged at threads={}", t);
            prop_assert_eq!(bits(&serial.2), bits(&par.2), "lrn bwd diverged at threads={}", t);
        }
    }

    /// Max and average pooling — outputs, argmax choices and input
    /// gradients — are bit-identical across thread counts, padded and
    /// overlapping windows included.
    #[test]
    fn pool_bit_identical_across_thread_counts(
        max in 0usize..2,
        batch in 1usize..9,
        channels in 1usize..5,
        hw in 2usize..12,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        let kind = if max == 1 { PoolKind::Max } else { PoolKind::Average };
        let geom = Conv2dGeometry::square(channels, hw, kernel, stride, pad);
        prop_assume!(geom.out_h().is_ok());
        let out_total = batch * channels * geom.out_h().unwrap() * geom.out_w().unwrap();
        let in_total = batch * geom.in_len();
        let input = fill(in_total, seed);
        let d_output = fill(out_total, seed ^ 0x0f0f);

        let run = |threads: usize| {
            let mut output = vec![0.0f32; out_total];
            let mut argmax = vec![0u32; if kind == PoolKind::Max { out_total } else { 0 }];
            let mut d_input = vec![0.0f32; in_total];
            parallel::with_threads(threads, || {
                pool_forward(kind, &geom, batch, &input, &mut output, &mut argmax);
                pool_backward(kind, &geom, batch, &d_output, &argmax, &mut d_input);
            });
            (output, argmax, d_input)
        };

        let serial = run(1);
        for &t in &THREAD_COUNTS[1..] {
            let par = run(t);
            prop_assert_eq!(bits(&serial.0), bits(&par.0), "pool fwd diverged at threads={}", t);
            prop_assert_eq!(&serial.1, &par.1, "pool argmax diverged at threads={}", t);
            prop_assert_eq!(bits(&serial.2), bits(&par.2), "pool bwd diverged at threads={}", t);
        }
    }

    /// Element-wise ops and the chunked dot reduction are bit-identical
    /// across thread counts even when the length spans many chunks.
    #[test]
    fn elementwise_bit_identical_across_thread_counts(
        extra in 0usize..1000,
        seed in 0u32..1000,
    ) {
        // Straddle multiple ELEMWISE_CHUNK boundaries plus a ragged tail.
        let n = 2 * parallel::ELEMWISE_CHUNK + extra + 1;
        let x = fill(n, seed);
        let y0 = fill(n, seed ^ 0x9999);

        let run = |threads: usize| {
            let mut y = y0.clone();
            let d = parallel::with_threads(threads, || {
                ops::axpy(0.75, &x, &mut y);
                ops::dot(&x, &y)
            });
            (y, d)
        };

        let (y1, d1) = run(1);
        for &t in &THREAD_COUNTS[1..] {
            let (yt, dt) = run(t);
            prop_assert_eq!(bits(&y1), bits(&yt), "axpy diverged at threads={}", t);
            prop_assert_eq!(d1.to_bits(), dt.to_bits(), "dot diverged at threads={}", t);
        }
    }
}
