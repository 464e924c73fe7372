//! Property-based proof that the register-tiled max pooling — a `-inf`
//! staged band folded tap by tap into a `best` / `idx` tile — is
//! **bit-identical**, output *and* argmax, to the clipped per-window scan
//! it replaced (`oracle::max_pool_ref`), at every thread count.
//!
//! What has to survive the rewrite: the first strictly-greater tap in
//! `(kh, kw)` order wins a tie; NaN and `-inf` are never selected; a window
//! with no selectable tap (wholly in padding, or holding only such values)
//! yields `0.0` / `NO_ARGMAX`; argmax is an offset within the image. The
//! generators cover independent per-axis strides and pads (`pad >= kernel`
//! included), kernels to 5, input widths on both sides of every tile width
//! (so the 1/2/4/8/16-wide instantiations and the slid-back last tile all
//! run), column phases of `stride_w` 2 and 3, and inputs made of ties,
//! NaN, `±inf` and all-`-inf` regions.

mod oracle;

use oracle::max_pool_ref;
use proptest::prelude::*;
use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::parallel;
use shmcaffe_tensor::pool::{pool_forward, NO_ARGMAX};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn lcg(state: &mut u32) -> u32 {
    *state = state.wrapping_mul(1664525).wrapping_add(1013904223);
    *state >> 8
}

/// Seeded input in one of four flavours: distinct values; four tied
/// levels; ties salted heavily with `-inf`, NaN, `+inf` and `-0.0`; and
/// nothing selectable at all (`-inf` and NaN only).
fn input(len: usize, flavour: u32, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(747796405).wrapping_add(2891336453);
    (0..len)
        .map(|_| {
            let r = lcg(&mut s);
            let level = (r % 4) as f32 - 2.5;
            match (flavour, (r >> 4) % 16) {
                (0, _) => (r >> 4) as f32 / (1 << 20) as f32 - 0.5,
                (1, _) => level,
                (2, 0..=5) | (3, 0..=11) => f32::NEG_INFINITY,
                (2, 6..=7) | (3, _) => f32::NAN,
                (2, 8) => f32::INFINITY,
                (2, 9) => -0.0,
                _ => level,
            }
        })
        .collect()
}

fn assert_matches_oracle(geom: &Conv2dGeometry, batch: usize, flavour: u32, seed: u32) {
    let out_len = geom.in_channels * geom.out_h().unwrap() * geom.out_w().unwrap();
    let x = input(batch * geom.in_len(), flavour, seed);
    let mut want = vec![f32::NAN; batch * out_len];
    let mut want_argmax = vec![7u32; batch * out_len];
    max_pool_ref(geom, batch, &x, &mut want, &mut want_argmax);
    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
    for &t in &THREAD_COUNTS {
        // Stale garbage: both buffers are overwritten.
        let mut got = vec![f32::NAN; batch * out_len];
        let mut got_argmax = vec![7u32; batch * out_len];
        parallel::with_threads(t, || {
            pool_forward(geom, batch, &x, &mut got, &mut got_argmax);
        });
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got, "output diverged at threads={t} geom={geom:?} flavour={flavour}");
        assert_eq!(
            want_argmax, got_argmax,
            "argmax diverged at threads={t} geom={geom:?} flavour={flavour}"
        );
    }
}

/// Every output width from 1 to 40 under the Inception pool (3x3, stride 1,
/// pad 1) and a strided one: each tile instantiation alone, whole tiles
/// only, and a slid-back last tile of every overlap.
#[test]
fn every_output_width_matches_the_per_window_scan() {
    for w in 1..=40 {
        for flavour in 0..3 {
            let geom = Conv2dGeometry { in_h: 3, ..Conv2dGeometry::square(2, w, 3, 1, 1) };
            assert_matches_oracle(&geom, 2, flavour, w as u32);
            let geom = Conv2dGeometry {
                in_channels: 1,
                in_h: 4,
                in_w: 2 * w + 1,
                kernel_h: 2,
                kernel_w: 3,
                stride_h: 3,
                stride_w: 2,
                pad_h: 2,
                pad_w: 0,
            };
            assert_eq!(geom.out_w().unwrap(), w);
            assert_matches_oracle(&geom, 1, flavour, 100 + w as u32);
        }
    }
}

/// Windows with nothing to select — the image holds only `-inf` and NaN, or
/// the window lies wholly in padding — yield `0.0` and `NO_ARGMAX`.
#[test]
fn unselectable_windows_yield_zero_and_no_argmax() {
    let geom = Conv2dGeometry::square(2, 17, 3, 1, 1);
    assert_matches_oracle(&geom, 2, 3, 5);
    let x = input(geom.in_len(), 3, 5);
    let mut out = vec![f32::NAN; geom.in_len()];
    let mut argmax = vec![0u32; geom.in_len()];
    pool_forward(&geom, 1, &x, &mut out, &mut argmax);
    assert!(out.iter().all(|v| v.to_bits() == 0) && argmax.iter().all(|&a| a == NO_ARGMAX));
    // pad >= kernel: the border windows never touch the image.
    let geom = Conv2dGeometry { pad_h: 3, pad_w: 3, ..Conv2dGeometry::square(1, 9, 2, 2, 0) };
    assert_matches_oracle(&geom, 3, 1, 6);
}

fn pick(values: &'static [usize]) -> impl Strategy<Value = usize> {
    (0usize..values.len()).prop_map(move |i| values[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn max_pool_matches_the_per_window_scan(
        (batch, channels, flavour, seed) in (pick(&[1, 3]), 1usize..4, 0u32..4, 0u32..10_000),
        (h, w) in (1usize..9, pick(&[1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 34, 35])),
        (kernel_h, kernel_w) in (1usize..6, 1usize..6),
        (stride_h, stride_w, pad_h, pad_w) in (1usize..4, 1usize..4, 0usize..4, 0usize..4),
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
        assert_matches_oracle(&geom, batch, flavour, seed);
    }
}
