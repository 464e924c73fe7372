//! Golden fingerprints of the pooling kernels, captured on commit
//! `5194695` (the per-tap bounds-tested loops) and required to hold
//! unmodified for any rewrite of `pool.rs`.
//!
//! Each case hashes, in order: the forward output bits, the max-pool argmax
//! *choice* per output element (the selected offset within its image, or a
//! padding marker), and the backward input-gradient bits for a seeded
//! `d_output`. Inputs are quantised to four levels so most windows hold
//! ties: the first strictly-greater tap in `(kh, kw)` scan order must win.
//! The test is agnostic to the integer type and base of the argmax buffer.

use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::pool::{pool_backward, pool_forward, PoolKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Hashed in place of an offset for a window that lies wholly in padding.
const PADDING_CHOICE: u64 = u64::MAX;

fn fnv(state: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Four levels straddling zero, so ties are the rule and an all-negative
/// window must still beat the excluded padding.
fn tied_input(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..len).map(|_| (splitmix(&mut s) % 4) as f32 - 2.5).collect()
}

fn smooth(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..len).map(|_| (splitmix(&mut s) >> 40) as f32 / (1u64 << 24) as f32 - 0.5).collect()
}

fn fingerprint(kind: PoolKind, geom: &Conv2dGeometry, batch: usize, seed: u64) -> u64 {
    let in_len = geom.in_len();
    let out_len = geom.in_channels * geom.out_h().unwrap() * geom.out_w().unwrap();
    let input = tied_input(batch * in_len, seed);
    let d_output = smooth(batch * out_len, seed ^ 0xd0);
    let mut output = vec![f32::NAN; batch * out_len];
    let mut argmax = vec![0; if kind == PoolKind::Max { batch * out_len } else { 0 }];
    pool_forward(kind, geom, batch, &input, &mut output, &mut argmax);
    let mut d_input = vec![f32::NAN; batch * in_len];
    pool_backward(kind, geom, batch, &d_output, &argmax, &mut d_input);

    let mut h = FNV_OFFSET;
    for v in &output {
        h = fnv(h, u64::from(v.to_bits()));
    }
    for &a in &argmax {
        let a = a as u64;
        h = fnv(h, if a >= input.len() as u64 { PADDING_CHOICE } else { a % in_len as u64 });
    }
    for v in &d_input {
        h = fnv(h, u64::from(v.to_bits()));
    }
    h
}

fn rect() -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: 2,
        in_h: 5,
        in_w: 9,
        kernel_h: 2,
        kernel_w: 3,
        stride_h: 1,
        stride_w: 2,
        pad_h: 1,
        pad_w: 0,
    }
}

/// `(name, geometry, batch, max fingerprint, average fingerprint)`.
fn cases() -> Vec<(&'static str, Conv2dGeometry, usize, u64, u64)> {
    vec![
        (
            "k3s1p1",
            Conv2dGeometry::square(3, 7, 3, 1, 1),
            3,
            0x7575_65b9_4b4e_d4cc,
            0xa967_ed53_a27d_de4e,
        ),
        (
            "k2s2p0",
            Conv2dGeometry::square(2, 8, 2, 2, 0),
            2,
            0x1270_eba4_2932_8c0f,
            0x4bfe_2767_265e_d972,
        ),
        (
            "k3s2p1",
            Conv2dGeometry::square(2, 7, 3, 2, 1),
            3,
            0x479b_9aca_2991_e9d4,
            0xbb90_a832_1f7d_90fe,
        ),
        // 1x1 window, pad 1: every border output lies wholly in padding.
        (
            "k1s1p1_all_padding_border",
            Conv2dGeometry::square(2, 3, 1, 1, 1),
            2,
            0x6089_f72d_1e25_447e,
            0xd4ab_edc6_c496_babe,
        ),
        // 2x2 window, pad 2, stride 3 on 2x2: the windows at oh = 0 or ow = 0 miss
        // the image.
        (
            "k2s3p2",
            Conv2dGeometry::square(1, 2, 2, 3, 2),
            2,
            0x59cb_5ebd_48ad_7e08,
            0xbf49_b16f_06e8_7f38,
        ),
        ("rect_k2x3_s1x2_p1x0", rect(), 2, 0x3244_06a0_ea2e_9340, 0x62de_422c_41aa_e67b),
    ]
}

#[test]
fn pooling_matches_golden_fingerprints() {
    let mut failures = Vec::new();
    for (i, (name, geom, batch, want_max, want_avg)) in cases().into_iter().enumerate() {
        let seed = 0x5eed_0000 + i as u64;
        let got_max = fingerprint(PoolKind::Max, &geom, batch, seed);
        let got_avg = fingerprint(PoolKind::Average, &geom, batch, seed);
        if (got_max, got_avg) != (want_max, want_avg) {
            failures.push(format!("{name}: max {got_max:#018x}, average {got_avg:#018x}"));
        }
    }
    assert!(failures.is_empty(), "pooling fingerprints moved:\n{}", failures.join("\n"));
}

/// The padding cases really do contain windows with no valid tap, and such
/// a window outputs 0 and routes no gradient.
#[test]
fn window_wholly_in_padding_yields_zero_and_no_gradient() {
    let geom = Conv2dGeometry::square(1, 3, 1, 1, 1);
    let input = vec![-1.0f32; 9];
    for kind in [PoolKind::Max, PoolKind::Average] {
        let mut output = vec![f32::NAN; 25];
        let mut argmax = vec![0; if kind == PoolKind::Max { 25 } else { 0 }];
        pool_forward(kind, &geom, 1, &input, &mut output, &mut argmax);
        for oh in 0..5 {
            for ow in 0..5 {
                let inside = (1..4).contains(&oh) && (1..4).contains(&ow);
                assert_eq!(output[oh * 5 + ow], if inside { -1.0 } else { 0.0 }, "{kind:?}");
            }
        }
        let mut d_input = vec![f32::NAN; 9];
        pool_backward(kind, &geom, 1, &[1.0; 25], &argmax, &mut d_input);
        assert_eq!(d_input, vec![1.0; 9], "{kind:?}");
    }
}
