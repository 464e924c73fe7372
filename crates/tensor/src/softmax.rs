//! Softmax, log-softmax and cross-entropy loss kernels.
//!
//! All functions operate row-wise on `(rows, classes)` matrices, matching
//! Caffe's `SoftmaxWithLossLayer` semantics (loss averaged over the batch,
//! numerically stabilised by max subtraction).
//!
//! Rows are independent, so the forward kernel runs row-groups in parallel
//! on the crate worker pool. Group boundaries fall on whole rows and depend
//! only on `classes`, keeping results thread-count invariant.

use crate::parallel::{self, ELEMWISE_CHUNK};

/// Row-wise softmax: each row of `x` (length `classes`) is normalised into
/// `out`.
///
/// # Panics
///
/// Panics if buffer lengths are not `rows * classes`.
pub fn softmax(rows: usize, classes: usize, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), rows * classes, "softmax input size mismatch");
    assert_eq!(out.len(), rows * classes, "softmax output size mismatch");
    if rows == 0 || classes == 0 {
        return;
    }
    // Whole rows per task, roughly ELEMWISE_CHUNK elements each.
    let chunk = (ELEMWISE_CHUNK / classes).max(1) * classes;
    parallel::for_each(out.chunks_mut(chunk).zip(x.chunks(chunk)), |(oc, xc)| {
        for (out_row, row) in oc.chunks_mut(classes).zip(xc.chunks(classes)) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in out_row.iter_mut().zip(row.iter()) {
                let e = (v - max).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in out_row.iter_mut() {
                *o *= inv;
            }
        }
    });
}

/// Cross-entropy loss of softmax probabilities against integer labels,
/// averaged over rows.
///
/// `probs` must already be softmax output; `labels[r]` is the target class of
/// row `r`. Probabilities are clamped to `1e-12` before the log for
/// stability.
///
/// # Panics
///
/// Panics on size mismatches or a label out of range.
pub fn cross_entropy_loss(rows: usize, classes: usize, probs: &[f32], labels: &[usize]) -> f32 {
    assert_eq!(probs.len(), rows * classes, "probs size mismatch");
    assert_eq!(labels.len(), rows, "labels size mismatch");
    let mut loss = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range");
        let p = probs[r * classes + label].max(1e-12);
        loss -= p.ln();
    }
    loss / rows as f32
}

/// Gradient of mean cross-entropy w.r.t. the softmax *input* (logits):
/// `d_logits = (probs - onehot(labels)) / rows`.
///
/// # Panics
///
/// Panics on size mismatches or a label out of range.
pub fn softmax_cross_entropy_backward(
    rows: usize,
    classes: usize,
    probs: &[f32],
    labels: &[usize],
    d_logits: &mut [f32],
) {
    assert_eq!(probs.len(), rows * classes, "probs size mismatch");
    assert_eq!(labels.len(), rows, "labels size mismatch");
    assert_eq!(d_logits.len(), rows * classes, "d_logits size mismatch");
    let scale = 1.0 / rows as f32;
    d_logits.copy_from_slice(probs);
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range");
        d_logits[r * classes + label] -= 1.0;
    }
    crate::ops::scal(scale, d_logits);
}

/// Fraction of rows whose label is among the `k` highest-scoring classes.
///
/// This is the paper's "top-5 accuracy" metric when `k == 5`.
///
/// # Panics
///
/// Panics on size mismatches, `k == 0` or a label out of range.
pub fn top_k_accuracy(
    rows: usize,
    classes: usize,
    scores: &[f32],
    labels: &[usize],
    k: usize,
) -> f32 {
    assert!(k > 0, "k must be positive");
    assert_eq!(scores.len(), rows * classes, "scores size mismatch");
    assert_eq!(labels.len(), rows, "labels size mismatch");
    if rows == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = &scores[r * classes..(r + 1) * classes];
        let target = row[label];
        // Count how many classes strictly beat the target score.
        let better = row.iter().filter(|&&v| v > target).count();
        if better < k {
            hits += 1;
        }
    }
    hits as f32 / rows as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut out = vec![0.0; 6];
        softmax(2, 3, &x, &mut out);
        for r in 0..2 {
            let s: f32 = out[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotonicity: larger logit -> larger probability.
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = vec![1000.0, 1001.0, 1002.0];
        let mut out = vec![0.0; 3];
        softmax(1, 3, &x, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        let y = vec![0.0, 1.0, 2.0];
        let mut out2 = vec![0.0; 3];
        softmax(1, 3, &y, &mut out2);
        for (a, b) in out.iter().zip(out2.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_zero() {
        let probs = vec![1.0, 0.0, 0.0];
        let loss = cross_entropy_loss(1, 3, &probs, &[0]);
        assert!(loss.abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_classes() {
        let probs = vec![0.25; 4];
        let loss = cross_entropy_loss(1, 4, &probs, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let logits = vec![0.3, -0.7, 1.2, 0.0, 0.5, -0.5];
        let labels = vec![2usize, 0];
        let loss_of = |logits: &[f32]| -> f32 {
            let mut probs = vec![0.0; 6];
            softmax(2, 3, logits, &mut probs);
            cross_entropy_loss(2, 3, &probs, &labels)
        };
        let mut probs = vec![0.0; 6];
        softmax(2, 3, &logits, &mut probs);
        let mut grad = vec![0.0; 6];
        softmax_cross_entropy_backward(2, 3, &probs, &labels, &mut grad);

        let eps = 1e-3;
        let mut x = logits.clone();
        for i in 0..6 {
            let orig = x[i];
            x[i] = orig + eps;
            let lp = loss_of(&x);
            x[i] = orig - eps;
            let lm = loss_of(&x);
            x[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((grad[i] - numeric).abs() < 1e-3, "i={i}: {} vs {numeric}", grad[i]);
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // softmax - onehot always sums to zero per row.
        let logits = vec![0.1, 0.2, 0.3, 0.4];
        let mut probs = vec![0.0; 4];
        softmax(1, 4, &logits, &mut probs);
        let mut grad = vec![0.0; 4];
        softmax_cross_entropy_backward(1, 4, &probs, &[3], &mut grad);
        assert!(grad.iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn top_k_accuracy_counts_hits() {
        // Two rows, three classes.
        let scores = vec![
            0.1, 0.7, 0.2, // argmax = 1
            0.5, 0.3, 0.2, // argmax = 0
        ];
        assert_eq!(top_k_accuracy(2, 3, &scores, &[1, 1], 1), 0.5);
        assert_eq!(top_k_accuracy(2, 3, &scores, &[1, 1], 2), 1.0);
        assert_eq!(top_k_accuracy(2, 3, &scores, &[2, 2], 1), 0.0);
        assert_eq!(top_k_accuracy(2, 3, &scores, &[2, 2], 3), 1.0);
    }

    #[test]
    fn top_k_with_ties_is_optimistic() {
        // All-equal scores: no class strictly beats the target, so top-1 hits.
        let scores = vec![0.25; 4];
        assert_eq!(top_k_accuracy(1, 4, &scores, &[3], 1), 1.0);
    }

    #[test]
    fn top_k_empty_rows() {
        assert_eq!(top_k_accuracy(0, 3, &[], &[], 5), 0.0);
    }
}
