//! Evaluation metrics: loss and top-k accuracy over a held-out set.

use shmcaffe_tensor::softmax::{cross_entropy_loss, softmax};
use shmcaffe_tensor::Tensor;

use crate::data::Dataset;
use crate::{DnnError, Net, Phase};

/// Result of evaluating a network on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f32,
    /// Top-k accuracy in `[0, 1]` (the paper reports top-5).
    pub topk: f32,
    /// The `k` used for `topk`.
    pub k: usize,
    /// Number of evaluated samples.
    pub samples: usize,
}

impl std::fmt::Display for EvalResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loss {:.4}, top-1 {:.1}%, top-{} {:.1}% over {} samples",
            self.loss,
            self.top1 * 100.0,
            self.k,
            self.topk * 100.0,
            self.samples
        )
    }
}

/// Evaluates `net` over the whole dataset in minibatches of `batch`.
///
/// Runs the forward pass in [`Phase::Test`], as Caffe's test net does.
///
/// # Errors
///
/// Propagates dataset and layer errors, and returns [`DnnError::BadInput`]
/// for `k == 0` or for labels that do not fit the logits (count or class
/// range) instead of letting the loss and accuracy kernels panic.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn evaluate<D: Dataset + ?Sized>(
    net: &mut Net,
    dataset: &D,
    batch: usize,
    k: usize,
) -> Result<EvalResult, DnnError> {
    assert!(batch > 0, "batch must be positive");
    if k == 0 {
        return Err(DnnError::BadInput {
            layer: net.name().to_string(),
            message: "top-k accuracy needs k > 0".to_string(),
        });
    }
    let total = dataset.len();
    let mut loss_sum = 0.0f64;
    let mut top1_hits = 0.0f64;
    let mut topk_hits = 0.0f64;
    let mut seen = 0usize;
    let mut start = 0usize;
    while start < total {
        let end = (start + batch).min(total);
        let indices: Vec<usize> = (start..end).collect();
        let (x, labels) = dataset.minibatch(&indices)?;
        let logits = net.forward(&x, Phase::Test)?;
        let (rows, classes) = net.label_shape(&logits, &labels)?;
        let mut probs = Tensor::zeros(&[rows, classes]);
        softmax(rows, classes, logits.data(), probs.data_mut());
        loss_sum += cross_entropy_loss(rows, classes, probs.data(), &labels) as f64 * rows as f64;
        top1_hits += Net::accuracy(&logits, &labels, 1) as f64 * rows as f64;
        topk_hits += Net::accuracy(&logits, &labels, k) as f64 * rows as f64;
        seen += rows;
        start = end;
    }
    Ok(EvalResult {
        loss: if seen > 0 { (loss_sum / seen as f64) as f32 } else { 0.0 },
        top1: if seen > 0 { (top1_hits / seen as f64) as f32 } else { 0.0 },
        topk: if seen > 0 { (topk_hits / seen as f64) as f32 } else { 0.0 },
        k,
        samples: seen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticBlobs;
    use crate::layers::{InnerProduct, Relu};
    use crate::{Solver, SolverConfig};
    use shmcaffe_tensor::init::Filler;

    fn blob_net(seed: u64) -> Net {
        let mut net = Net::new("m");
        net.add(InnerProduct::new("fc1", 4, 16, Filler::Xavier, seed));
        net.add(Relu::new("r"));
        net.add(InnerProduct::new("fc2", 16, 3, Filler::Xavier, seed));
        net
    }

    #[test]
    fn evaluate_untrained_is_chance_level() {
        let ds = SyntheticBlobs::new(3, 4, 90, 0.2, 11);
        let mut net = blob_net(1);
        let res = evaluate(&mut net, &ds, 32, 2).unwrap();
        assert_eq!(res.samples, 90);
        assert!(res.loss > 0.5, "untrained loss should be high: {}", res.loss);
        assert!(res.top1 < 0.8);
        assert!(res.topk >= res.top1);
    }

    #[test]
    fn evaluate_trained_reaches_high_accuracy() {
        let ds = SyntheticBlobs::new(3, 4, 120, 0.2, 11);
        let net = blob_net(2);
        let mut solver = Solver::new(net, SolverConfig { base_lr: 0.1, ..Default::default() });
        for epoch in 0..30 {
            for start in (0..120).step_by(30) {
                let idx: Vec<usize> = (start..start + 30).collect();
                let (x, y) = ds.minibatch(&idx).unwrap();
                solver.step(&x, &y).unwrap();
            }
            let _ = epoch;
        }
        let mut net = solver.into_net();
        let res = evaluate(&mut net, &ds, 40, 2).unwrap();
        assert!(res.top1 > 0.9, "trained top-1 {}", res.top1);
        assert!(res.loss < 0.3, "trained loss {}", res.loss);
    }

    #[test]
    fn uneven_final_batch_is_counted() {
        let ds = SyntheticBlobs::new(2, 4, 33, 0.2, 4);
        let mut net = Net::new("m");
        net.add(InnerProduct::new("fc", 4, 2, Filler::Xavier, 0));
        let res = evaluate(&mut net, &ds, 16, 1).unwrap();
        assert_eq!(res.samples, 33);
    }

    #[test]
    fn labels_that_do_not_fit_the_net_are_bad_input() {
        // Three classes of data against a two-class net: label 2 is out of
        // range for its logits.
        let ds = SyntheticBlobs::new(3, 4, 12, 0.2, 5);
        let mut net = Net::new("m");
        net.add(InnerProduct::new("fc", 4, 2, Filler::Xavier, 0));
        let err = evaluate(&mut net, &ds, 12, 1).unwrap_err();
        assert!(matches!(err, DnnError::BadInput { .. }) && err.to_string().contains("label 2"));
        // k == 0 is rejected before any forward pass.
        let mut net = blob_net(3);
        let err = evaluate(&mut net, &ds, 12, 0).unwrap_err();
        assert!(matches!(err, DnnError::BadInput { .. }), "{err}");
    }

    /// A layer whose output is five values whatever the batch.
    struct FiveOut;
    impl crate::Layer for FiveOut {
        fn name(&self) -> &str {
            "five"
        }
        fn forward(&mut self, _input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
            Ok(Tensor::zeros(&[5]))
        }
        fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
            Ok(d_output.clone())
        }
    }

    #[test]
    fn logits_that_do_not_divide_by_the_rows_are_bad_input() {
        let ds = SyntheticBlobs::new(2, 4, 4, 0.2, 6);
        let mut net = Net::new("m");
        net.add(FiveOut);
        let err = evaluate(&mut net, &ds, 4, 1).unwrap_err();
        assert!(matches!(err, DnnError::BadInput { .. }) && err.to_string().contains("labels (4)"));
    }

    #[test]
    fn display_is_informative() {
        let r = EvalResult { loss: 1.0, top1: 0.5, topk: 0.9, k: 5, samples: 10 };
        let s = r.to_string();
        assert!(s.contains("top-5") && s.contains("50.0%"));
    }
}
