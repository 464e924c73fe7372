//! Property-based proof that the direct register-tiled convolution
//! (forward, `d_input` and `dW`) is **bit-identical** to the materialised
//! im2col/col2im reference formulation
//! (`oracle::conv2d_forward_ref`/`conv2d_backward_ref`), at every thread
//! count.
//!
//! The direct kernels fold filter taps in the reference gemm's order —
//! same KC k-block grid, same overwrite-then-accumulate write-back, the
//! `d_input` taps completed over `C_out` before they are added, the `dW`
//! chains folded over spatial positions per KC block and image and then
//! added to the running gradient — reading shifted windows of a staged
//! zero-padded band instead of a column matrix. If any of that drifts — a
//! different block grid, a reassociated fold, an off-by-one in the staging
//! — these tests fail on raw `f32::to_bits` comparison, across random
//! non-square geometries, per-axis strides and pads (including
//! `pad >= kernel`), widths that straddle one and two register tiles,
//! every k-block fold, partial lane and tap blocks, signed zeros and
//! denormals, batch sizes and thread counts.

mod oracle;

use oracle::{col2im, conv2d_backward_ref, conv2d_forward_ref, im2col};
use proptest::prelude::*;
use shmcaffe_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeometry};
use shmcaffe_tensor::parallel;

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

/// [`fill`] with the awkward values mixed in: a third of the elements are
/// exact `+0.0` (what a ReLU leaves behind), and `-0.0`, positive and
/// negative denormals each take a share of the rest.
fn fill_edgy(len: usize, seed: u32) -> Vec<f32> {
    let mut v = fill(len, seed);
    let mut state = seed ^ 0x9e37_79b9;
    for x in &mut v {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        match (state >> 24) % 12 {
            0..=3 => *x = 0.0,
            4 => *x = -0.0,
            5 => *x = f32::from_bits(1 + (state & 0xffff)),
            6 => *x = -f32::from_bits(1 + (state & 0xffff)),
            _ => {}
        }
    }
    v
}

fn pick(values: &'static [usize]) -> impl Strategy<Value = usize> {
    (0usize..values.len()).prop_map(move |i| values[i])
}

/// One forward + backward comparison against the oracle at every thread
/// count. Empty `bias` / `d_bias` / `d_input` select the no-bias and
/// params-only task shapes.
fn assert_matches_oracle(
    geom: &Conv2dGeometry,
    batch: usize,
    out_channels: usize,
    with_bias: bool,
    with_dx: bool,
    seed: u32,
) {
    let spatial = geom.col_cols().unwrap();
    let w_len = out_channels * geom.col_rows();
    let input = fill_edgy(batch * geom.in_len(), seed);
    let weights = fill_edgy(w_len, seed ^ 0x5555);
    let bias = if with_bias { fill_edgy(out_channels, seed ^ 0xaaaa) } else { Vec::new() };
    let d_output = fill_edgy(batch * out_channels * spatial, seed ^ 0x0f0f);
    let dw0 = fill(w_len, seed ^ 0x7777);
    let db0 = if with_bias { fill(out_channels, seed ^ 0x8888) } else { Vec::new() };
    let dx_len = if with_dx { input.len() } else { 0 };

    let mut col = vec![0.0f32; geom.col_rows() * spatial];
    let mut out_ref = vec![0.0f32; batch * out_channels * spatial];
    conv2d_forward_ref(geom, batch, out_channels, &input, &weights, &bias, &mut out_ref, &mut col);
    let (mut dw_ref, mut db_ref) = (dw0.clone(), db0.clone());
    // Stale garbage: `d_input` is overwritten, never accumulated into.
    let mut dx_ref = vec![f32::NAN; dx_len];
    conv2d_backward_ref(
        geom,
        batch,
        out_channels,
        &input,
        &weights,
        &d_output,
        &mut dw_ref,
        &mut db_ref,
        &mut dx_ref,
        &mut col,
    );

    for &t in &THREAD_COUNTS {
        let mut out = vec![f32::NAN; out_ref.len()];
        let (mut dw, mut db) = (dw0.clone(), db0.clone());
        let mut dx = vec![f32::NAN; dx_len];
        parallel::with_threads(t, || {
            conv2d_forward(geom, batch, out_channels, &input, &weights, &bias, &mut out);
            conv2d_backward(
                geom,
                batch,
                out_channels,
                &input,
                &weights,
                &d_output,
                &mut dw,
                &mut db,
                &mut dx,
            );
        });
        assert_eq!(bits(&out_ref), bits(&out), "forward diverged at threads={t} geom={geom:?}");
        assert_eq!(bits(&dw_ref), bits(&dw), "dW diverged at threads={t} geom={geom:?}");
        assert_eq!(bits(&db_ref), bits(&db), "db diverged at threads={t} geom={geom:?}");
        assert_eq!(bits(&dx_ref), bits(&dx), "dX diverged at threads={t} geom={geom:?}");
    }
}

/// `C_in * KH * KW = 288 > KC`: the forward tap fold crosses into a second
/// k-block (overwrite, then accumulate), on a width with a partial tile.
#[test]
fn forward_tap_fold_crosses_a_k_block() {
    let geom = Conv2dGeometry::square(32, 19, 3, 1, 1);
    assert_matches_oracle(&geom, 2, 6, true, true, 11);
}

/// `C_out = 260 > KC`: every `d_input` tap is completed over two k-blocks
/// of output channels before it is added to `dX`.
#[test]
fn input_grad_tap_fold_crosses_a_k_block() {
    let geom = Conv2dGeometry { stride_w: 2, ..Conv2dGeometry::square(2, 9, 3, 1, 1) };
    assert_matches_oracle(&geom, 1, 260, true, true, 12);
}

/// `dW` folds spatial positions in KC = 256 blocks: one short of a block,
/// exactly one, one over (a 1-position second block, on a single 257-wide
/// row), and four — each over three images, whose chains are added to the
/// pre-loaded gradient in image order, with and without a `d_input`.
#[test]
fn weight_grad_position_fold_crosses_k_blocks() {
    for (seed, (h, w)) in [(15, 17), (16, 16), (1, 257), (32, 32)].into_iter().enumerate() {
        let geom = Conv2dGeometry { in_h: h, in_w: w, ..Conv2dGeometry::square(2, 0, 3, 1, 1) };
        assert_matches_oracle(&geom, 3, 5, true, seed % 2 == 0, 20 + seed as u32);
    }
}

/// `dW` tiles are 8 output channels x 12 taps: every partial first lane
/// block, a partial second (9, 10) and third (17) one, against tap counts
/// below, at and past whole tap blocks (3, 12, 24, 27, 50).
#[test]
fn weight_grad_partial_lane_and_tap_blocks() {
    let geoms = [
        Conv2dGeometry::square(3, 5, 1, 1, 0),
        Conv2dGeometry { kernel_h: 3, kernel_w: 4, ..Conv2dGeometry::square(1, 6, 0, 1, 1) },
        Conv2dGeometry { kernel_h: 3, kernel_w: 4, ..Conv2dGeometry::square(2, 6, 0, 1, 1) },
        Conv2dGeometry::square(3, 6, 3, 1, 1),
        Conv2dGeometry::square(2, 7, 5, 1, 2),
    ];
    for (g, geom) in geoms.iter().enumerate() {
        for out_channels in (1..=10).chain([17]) {
            assert_matches_oracle(
                geom,
                3,
                out_channels,
                true,
                false,
                (g * 32 + out_channels) as u32,
            );
        }
    }
}

/// `C_in * KH * KW = 540 > NC`: the weight gradient splits into two column
/// tasks, the second starting mid-channel (tap 512 = channel 56, tap 8) and
/// staging only the channels it reads.
#[test]
fn weight_grad_column_tasks_stage_their_own_channels() {
    let geom = Conv2dGeometry::square(60, 5, 3, 1, 1);
    assert_matches_oracle(&geom, 2, 9, true, false, 40);
}

/// Strides 2 and 3 with `pad >= kernel`: column phases, rows and columns of
/// windows wholly in padding, three images, parameters only.
#[test]
fn weight_grad_strided_with_padding_past_the_kernel() {
    let geom = Conv2dGeometry {
        stride_h: 2,
        stride_w: 3,
        pad_h: 3,
        pad_w: 2,
        ..Conv2dGeometry::square(3, 9, 2, 0, 0)
    };
    assert_matches_oracle(&geom, 3, 9, true, false, 41);
    let geom =
        Conv2dGeometry { stride_h: 3, stride_w: 2, ..Conv2dGeometry::square(2, 11, 3, 0, 3) };
    assert_matches_oracle(&geom, 3, 4, false, false, 42);
}

/// A window that lies wholly in the padding (`pad >= kernel`) produces
/// `bias` forward and contributes nothing backward.
#[test]
fn windows_wholly_in_padding() {
    let geom =
        Conv2dGeometry { pad_h: 3, pad_w: 2, stride_h: 2, ..Conv2dGeometry::square(2, 4, 1, 1, 0) };
    assert_matches_oracle(&geom, 2, 3, true, true, 13);
    let geom = Conv2dGeometry { pad_h: 3, pad_w: 3, ..Conv2dGeometry::square(1, 3, 2, 3, 0) };
    assert_matches_oracle(&geom, 1, 5, false, true, 14);
}

/// Direct forward/backward equal the materialised reference bitwise and
/// stay bit-identical across thread counts (name keeps it in the Miri
/// `parallel` filter of scripts/miri.sh).
#[test]
fn fused_conv_parallel_matches_reference_bitwise() {
    assert_matches_oracle(&Conv2dGeometry::square(3, 6, 3, 1, 1), 2, 5, true, true, 1);
}

#[test]
fn oracle_im2col_identity_kernel() {
    // 1x1 kernel, stride 1: im2col is the identity.
    let g = Conv2dGeometry::square(2, 3, 1, 1, 0);
    let image: Vec<f32> = (0..18).map(|v| v as f32).collect();
    let mut col = vec![0.0; 18];
    im2col(&g, &image, &mut col);
    assert_eq!(col, image);
}

#[test]
fn oracle_im2col_known_patch() {
    // 3x3 image, 2x2 kernel, stride 1, no pad -> 2x2 output, 4 rows.
    let g = Conv2dGeometry::square(1, 3, 2, 1, 0);
    let image = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
    let mut col = vec![0.0; 4 * 4];
    im2col(&g, &image, &mut col);
    // Row 0 = kernel offset (0,0) over outputs: 1,2,4,5
    assert_eq!(&col[0..4], &[1., 2., 4., 5.]);
    // Row 3 = kernel offset (1,1): 5,6,8,9
    assert_eq!(&col[12..16], &[5., 6., 8., 9.]);
}

/// col2im is the adjoint of im2col: <im2col(x), c> == <x, col2im(c)>.
#[test]
fn oracle_col2im_is_adjoint_of_im2col() {
    let g = Conv2dGeometry::square(2, 5, 3, 2, 1);
    let cols = g.col_rows() * g.col_cols().unwrap();
    let x: Vec<f32> = (0..g.in_len()).map(|i| (i as f32 * 0.37).sin()).collect();
    let c: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.11).cos()).collect();

    let mut col = vec![0.0; cols];
    im2col(&g, &x, &mut col);
    let lhs: f32 = col.iter().zip(c.iter()).map(|(a, b)| a * b).sum();

    let mut img = vec![0.0; g.in_len()];
    col2im(&g, &c, &mut img);
    let rhs: f32 = x.iter().zip(img.iter()).map(|(a, b)| a * b).sum();

    assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Fused forward == reference forward, bit for bit, at 1/2/4/7
    /// threads, over rectangular images, rectangular kernels, mixed
    /// strides and pads, and batch sizes crossing the task-grid floor.
    #[test]
    fn fused_forward_is_bit_identical_to_reference(
        batch in 1usize..6,
        channels in 1usize..4,
        out_channels in 1usize..10,
        h in 3usize..11,
        w in 3usize..11,
        kernel_h in 1usize..4,
        kernel_w in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        let geom = Conv2dGeometry {
            in_channels: channels,
            in_h: h,
            in_w: w,
            kernel_h,
            kernel_w,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        };
        prop_assume!(geom.out_h().is_ok() && geom.out_w().is_ok());
        let spatial = geom.col_cols().unwrap();
        let input = fill(batch * geom.in_len(), seed);
        let weights = fill(out_channels * geom.col_rows(), seed ^ 0x5555);
        let bias = fill(out_channels, seed ^ 0xaaaa);

        let mut col = vec![0.0f32; geom.col_rows() * spatial];
        let mut reference = vec![0.0f32; batch * out_channels * spatial];
        conv2d_forward_ref(
            &geom, batch, out_channels, &input, &weights, &bias, &mut reference, &mut col,
        );

        for &t in &THREAD_COUNTS {
            let mut fused = vec![0.0f32; reference.len()];
            parallel::with_threads(t, || {
                conv2d_forward(&geom, batch, out_channels, &input, &weights, &bias, &mut fused);
            });
            prop_assert_eq!(
                bits(&reference), bits(&fused),
                "fused forward diverged at threads={} geom={:?}", t, geom
            );
        }
    }

    /// Fused backward == reference backward (dW, db, dX), bit for bit,
    /// with pre-seeded gradient buffers so the accumulate contract is
    /// covered too.
    #[test]
    fn fused_backward_is_bit_identical_to_reference(
        batch in 1usize..6,
        channels in 1usize..4,
        out_channels in 1usize..10,
        h in 3usize..11,
        w in 3usize..11,
        kernel_h in 1usize..4,
        kernel_w in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        let geom = Conv2dGeometry {
            in_channels: channels,
            in_h: h,
            in_w: w,
            kernel_h,
            kernel_w,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        };
        prop_assume!(geom.out_h().is_ok() && geom.out_w().is_ok());
        let spatial = geom.col_cols().unwrap();
        let w_len = out_channels * geom.col_rows();
        let input = fill(batch * geom.in_len(), seed);
        let weights = fill(w_len, seed ^ 0x5555);
        let d_output = fill(batch * out_channels * spatial, seed ^ 0x0f0f);
        // Non-zero seeds: the backward contract accumulates dW/db.
        let dw0 = fill(w_len, seed ^ 0x7777);
        let db0 = fill(out_channels, seed ^ 0x8888);

        let mut col = vec![0.0f32; geom.col_rows() * spatial];
        let mut dw_ref = dw0.clone();
        let mut db_ref = db0.clone();
        let mut dx_ref = vec![0.0f32; input.len()];
        conv2d_backward_ref(
            &geom, batch, out_channels, &input, &weights, &d_output,
            &mut dw_ref, &mut db_ref, &mut dx_ref, &mut col,
        );

        for &t in &THREAD_COUNTS {
            let mut dw = dw0.clone();
            let mut db = db0.clone();
            let mut dx = vec![0.0f32; input.len()];
            parallel::with_threads(t, || {
                conv2d_backward(
                    &geom, batch, out_channels, &input, &weights, &d_output,
                    &mut dw, &mut db, &mut dx,
                );
            });
            prop_assert_eq!(bits(&dw_ref), bits(&dw), "dW diverged at threads={} geom={:?}", t, geom);
            prop_assert_eq!(bits(&db_ref), bits(&db), "db diverged at threads={} geom={:?}", t, geom);
            prop_assert_eq!(bits(&dx_ref), bits(&dx), "dX diverged at threads={} geom={:?}", t, geom);
        }
    }

    /// No-bias and no-d_input variants stay bit-identical too (these hit
    /// different task shapes: db skipped, d_input tasks absent).
    #[test]
    fn fused_paths_without_bias_or_dx_match_reference(
        batch in 1usize..4,
        channels in 1usize..3,
        out_channels in 1usize..6,
        hw in 3usize..9,
        kernel in 1usize..4,
        seed in 0u32..1000,
    ) {
        let geom = Conv2dGeometry::square(channels, hw, kernel, 1, 0);
        prop_assume!(geom.out_h().is_ok());
        let spatial = geom.col_cols().unwrap();
        let w_len = out_channels * geom.col_rows();
        let input = fill(batch * geom.in_len(), seed);
        let weights = fill(w_len, seed ^ 0x5555);
        let d_output = fill(batch * out_channels * spatial, seed ^ 0x0f0f);

        let mut col = vec![0.0f32; geom.col_rows() * spatial];
        let mut out_ref = vec![0.0f32; batch * out_channels * spatial];
        conv2d_forward_ref(&geom, batch, out_channels, &input, &weights, &[], &mut out_ref, &mut col);
        let mut dw_ref = vec![0.0f32; w_len];
        conv2d_backward_ref(
            &geom, batch, out_channels, &input, &weights, &d_output,
            &mut dw_ref, &mut [], &mut [], &mut col,
        );

        for &t in &[1usize, 4] {
            let (out, dw) = parallel::with_threads(t, || {
                let mut out = vec![0.0f32; out_ref.len()];
                conv2d_forward(&geom, batch, out_channels, &input, &weights, &[], &mut out);
                let mut dw = vec![0.0f32; w_len];
                conv2d_backward(
                    &geom, batch, out_channels, &input, &weights, &d_output,
                    &mut dw, &mut [], &mut [],
                );
                (out, dw)
            });
            prop_assert_eq!(bits(&out_ref), bits(&out), "no-bias fwd diverged at threads={}", t);
            prop_assert_eq!(bits(&dw_ref), bits(&dw), "no-dx dW diverged at threads={}", t);
        }
    }

    /// The direct kernels over everything the narrow generators above
    /// never reach: independent per-axis strides (1..=3) and pads (0..=3,
    /// so `pad >= kernel` occurs), kernels up to 5, widths straddling one
    /// and two register tiles (TW = 16) with partial last tiles, `C_out`
    /// not a multiple of the tile's four rows, optional bias and
    /// `d_input`, and operands salted with signed zeros, denormals and
    /// ReLU-style exact zeros.
    #[test]
    fn direct_kernels_match_reference_over_wide_geometries(
        (batch, channels, out_channels) in (1usize..4, 1usize..5, 1usize..11),
        (h, w) in (1usize..9, pick(&[1, 2, 5, 15, 16, 17, 18, 31, 32, 33, 35])),
        (kernel_h, kernel_w) in (1usize..6, 1usize..6),
        (stride_h, stride_w, pad_h, pad_w) in (1usize..4, 1usize..4, 0usize..4, 0usize..4),
        (with_bias, with_dx, seed) in (0u32..2, 0u32..4, 0u32..1000),
    ) {
        let geom = Conv2dGeometry {
            in_channels: channels,
            in_h: h,
            in_w: w,
            kernel_h,
            kernel_w,
            stride_h,
            stride_w,
            pad_h,
            pad_w,
        };
        prop_assume!(geom.out_h().is_ok() && geom.out_w().is_ok());
        assert_matches_oracle(&geom, batch, out_channels, with_bias == 1, with_dx != 0, seed);
    }
}
