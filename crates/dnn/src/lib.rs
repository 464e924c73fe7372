//! Caffe-like deep learning substrate for the ShmCaffe reproduction.
//!
//! ShmCaffe "uses Caffe as a deep learning computation library with very
//! small modifications" (paper §III-A). This crate is that computation
//! library, cut to what the platforms train: the layers of the three proxy
//! nets, sequential nets, the SGD solver with Caffe's hyper-parameters
//! (`base_lr`, `momentum`, `weight_decay`, `gamma`, `step size`) and two
//! in-memory synthetic datasets. Data loading is not modelled: a trainer
//! samples in memory and charges a modelled compute time (DESIGN.md §1).
//!
//! The crucial property for distributed training is the split between
//! gradient computation and weight update:
//!
//! * [`Solver::compute_gradients`] runs forward/backward on one minibatch,
//! * [`Solver::apply_update`] applies the (possibly aggregated or replaced)
//!   gradients with momentum and weight decay.
//!
//! All distributed algorithms in the `shmcaffe` crate (SEASGD, SSGD, HSGD)
//! are built from these two halves plus parameter-vector import/export
//! ([`Net::copy_weights_to`] / [`Net::load_weights_from`]).
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_dnn::{Net, Phase, Solver, SolverConfig};
//! use shmcaffe_dnn::layers::{InnerProduct, Relu};
//! use shmcaffe_dnn::data::{Dataset, SyntheticBlobs};
//! use shmcaffe_tensor::init::Filler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Net::new("mlp");
//! net.add(InnerProduct::new("fc1", 4, 16, Filler::Xavier, 1));
//! net.add(Relu::new("relu1"));
//! net.add(InnerProduct::new("fc2", 16, 3, Filler::Xavier, 1));
//!
//! let data = SyntheticBlobs::new(3, 4, 300, 0.3, 7);
//! let mut solver = Solver::new(net, SolverConfig::default());
//! let (x, y) = data.minibatch(&(0..32).collect::<Vec<_>>())?;
//! let loss = solver.compute_gradients(&x, &y)?;
//! solver.apply_update();
//! assert!(loss > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
mod error;
mod layer;
pub mod layers;
pub mod metrics;
mod net;
mod solver;

pub use error::DnnError;
pub use layer::{Layer, Phase};
pub use net::Net;
pub use solver::{LrPolicy, Solver, SolverConfig};
