//! Property-based tests for the tensor algebra kernels.

mod oracle;

use oracle::{col2im, im2col};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::ops;
use shmcaffe_tensor::softmax::{softmax, softmax_cross_entropy_backward};

fn small_f32() -> impl Strategy<Value = f32> {
    (-100i32..100).prop_map(|v| v as f32 / 10.0)
}

proptest! {
    /// gemm with the identity matrix returns the operand.
    #[test]
    fn gemm_identity(n in 1usize..8, data in pvec(-10.0f32..10.0, 64)) {
        let a: Vec<f32> = data.iter().take(n * n).cloned().collect();
        prop_assume!(a.len() == n * n);
        let mut identity = vec![0.0f32; n * n];
        for i in 0..n {
            identity[i * n + i] = 1.0;
        }
        let mut c = vec![0.0f32; n * n];
        gemm(Transpose::No, Transpose::No, n, n, n, 1.0, &a, &identity, 0.0, &mut c);
        for (got, want) in c.iter().zip(a.iter()) {
            prop_assert!((got - want).abs() < 1e-4);
        }
    }

    /// (A * B)^T == B^T * A^T, computed through the transpose flags.
    #[test]
    fn gemm_transpose_identity(
        m in 1usize..6, n in 1usize..6, k in 1usize..6,
        seed in 0u32..1000,
    ) {
        let gen = |len: usize, s: u32| -> Vec<f32> {
            let mut state = s.wrapping_mul(747796405).wrapping_add(2891336453);
            (0..len).map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 16) as f32 / 65536.0) - 0.5
            }).collect()
        };
        let a = gen(m * k, seed);
        let b = gen(k * n, seed + 1);
        // C1 = A * B (m x n)
        let mut c1 = vec![0.0f32; m * n];
        gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, 0.0, &mut c1);
        // C2 = B^T * A^T computed with transposes; result is n x m and should be C1^T.
        let mut c2 = vec![0.0f32; n * m];
        gemm(Transpose::Yes, Transpose::Yes, n, m, k, 1.0, &b, &a, 0.0, &mut c2);
        for i in 0..m {
            for j in 0..n {
                prop_assert!((c1[i * n + j] - c2[j * m + i]).abs() < 1e-4);
            }
        }
    }

    /// axpy(a, x, y) then axpy(-a, x, y) restores y.
    #[test]
    fn axpy_inverse(alpha in small_f32(), x in pvec(small_f32(), 1..64)) {
        let y0: Vec<f32> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        let mut y = y0.clone();
        ops::axpy(alpha, &x, &mut y);
        ops::axpy(-alpha, &x, &mut y);
        for (got, want) in y.iter().zip(y0.iter()) {
            prop_assert!((got - want).abs() < 1e-3);
        }
    }

    /// dot is symmetric and dot(x, x) == |x|^2 >= 0.
    #[test]
    fn dot_symmetry(x in pvec(small_f32(), 1..64)) {
        let y: Vec<f32> = x.iter().rev().cloned().collect();
        prop_assert!((ops::dot(&x, &y) - ops::dot(&y, &x)).abs() < 1e-3);
        prop_assert!(ops::dot(&x, &x) >= 0.0);
    }

    /// Softmax rows are probability distributions for arbitrary logits.
    #[test]
    fn softmax_is_distribution(rows in 1usize..5, classes in 2usize..10, seed in 0u32..500) {
        let mut state = seed.wrapping_mul(2654435761);
        let logits: Vec<f32> = (0..rows * classes).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (((state >> 16) as f32 / 65536.0) - 0.5) * 20.0
        }).collect();
        let mut probs = vec![0.0f32; rows * classes];
        softmax(rows, classes, &logits, &mut probs);
        for r in 0..rows {
            let row = &probs[r * classes..(r + 1) * classes];
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    /// The softmax cross-entropy gradient sums to zero over every row.
    #[test]
    fn ce_gradient_rows_sum_zero(classes in 2usize..8, label in 0usize..8, seed in 0u32..500) {
        let label = label % classes;
        let mut state = seed.wrapping_add(7);
        let logits: Vec<f32> = (0..classes).map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        }).collect();
        let mut probs = vec![0.0f32; classes];
        softmax(1, classes, &logits, &mut probs);
        let mut grad = vec![0.0f32; classes];
        softmax_cross_entropy_backward(1, classes, &probs, &[label], &mut grad);
        prop_assert!(grad.iter().sum::<f32>().abs() < 1e-5);
    }

    /// col2im is the adjoint of im2col for random geometries.
    #[test]
    fn im2col_adjoint(
        channels in 1usize..3,
        hw in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..200,
    ) {
        prop_assume!(kernel <= hw + 2 * pad);
        let geom = Conv2dGeometry::square(channels, hw, kernel, stride, pad);
        prop_assume!(geom.out_h().is_ok());
        let cols = geom.col_rows() * geom.col_cols().unwrap();
        let mut state = seed.wrapping_mul(97);
        let mut gen = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        };
        let x: Vec<f32> = (0..geom.in_len()).map(|_| gen()).collect();
        let c: Vec<f32> = (0..cols).map(|_| gen()).collect();

        let mut col = vec![0.0f32; cols];
        im2col(&geom, &x, &mut col);
        let lhs = ops::dot(&col, &c);

        let mut img = vec![0.0f32; geom.in_len()];
        col2im(&geom, &c, &mut img);
        let rhs = ops::dot(&x, &img);
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }
}
