//! The layer library: the Caffe building blocks the proxy nets are made of.

mod activations;
mod conv_layer;
mod inception;
mod inner_product;
mod lrn;
mod pool_layer;

use shmcaffe_tensor::Tensor;

use crate::Phase;

pub use activations::Relu;
pub use conv_layer::Conv2d;
pub use inception::{Inception, InceptionSpec};
pub use inner_product::InnerProduct;
pub use lrn::Lrn;
pub use pool_layer::Pool2d;

/// Keeps a copy of a layer's `input` in `slot` for its backward pass. A
/// training forward refills the tensor already there when the shape is
/// unchanged — the steady state of a training loop — and allocates only on
/// first use or a shape change; a test-phase forward keeps nothing and drops
/// what was there, so a `backward` after it fails instead of running on the
/// evaluation batch.
fn cache_input(slot: &mut Option<Tensor>, input: &Tensor, phase: Phase) {
    if phase == Phase::Test {
        *slot = None;
    } else if slot.as_mut().is_none_or(|cached| cached.copy_from(input).is_err()) {
        *slot = Some(input.clone());
    }
}
