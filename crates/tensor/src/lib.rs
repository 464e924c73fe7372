//! Dense f32 tensor algebra for the ShmCaffe reproduction.
//!
//! This crate is the computational substrate that stands in for the
//! CUDA/cuDNN kernels used by Caffe in the original paper. It provides:
//!
//! * [`Tensor`] — a row-major dense f32 tensor with shape metadata,
//! * [`gemm`] — single-precision general matrix multiply (the workhorse of
//!   inner-product layers),
//! * [`conv`] — 2-D convolution forward/backward: direct register-tiled
//!   kernels (forward, `d_input`, `dW`) over a once-staged image, no im2col,
//! * [`pool`] — max pooling forward/backward (forward on register tiles
//!   over a `-inf`-padded staged band),
//! * [`lrn`] — across-channel local response normalisation forward/backward,
//! * [`ops`] — element-wise and BLAS-1 style vector operations (`axpy`,
//!   `scal`, the fused elastic mix, activations),
//! * [`init`] — seeded weight initialisation (Gaussian, Xavier, MSRA),
//! * [`crc32c`] — streaming CRC32C over f32 bit patterns (the SMB integrity
//!   grid's checksum), hardware `crc32` instruction or slicing-by-8 tables,
//!   either in three interleaved chains.
//!
//! Everything is deterministic given a seed and there is no external BLAS
//! dependency. Hot kernels run on a persistent crate-level worker pool
//! ([`parallel`], sized by `SHMCAFFE_THREADS`) with **fixed split points**,
//! so results are bit-identical at any thread count, and draw scratch from
//! reusable per-thread [`workspace`] arenas so steady-state forward/backward
//! allocates nothing. The only unsafe code in the crate is four kinds of
//! audited site in `simd.rs`/`parallel.rs`/`crc32c.rs`: the
//! lifetime-erasure in the pool's dispatch path, the `SliceParts`
//! disjoint-range writer the fixed tile grids borrow output through, the one
//! wide-lane dispatch — the feature-gated AVX-512F and AVX2 recompilations
//! of the gemm micro-kernel, the direct convolution's task bodies, the
//! max-pool tile and the LRN strips (guarded by runtime detection, same
//! IEEE operation order; [`wide_lanes`] names the host's tier) — and the
//! runtime-detected call into the SSE4.2 CRC32C kernel (same checksum as the
//! portable tables).
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_tensor::{Tensor, gemm::{gemm, Transpose}};
//!
//! # fn main() -> Result<(), shmcaffe_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
//! let mut c = Tensor::zeros(&[2, 2]);
//! gemm(Transpose::No, Transpose::No, 2, 2, 2, 1.0, a.data(), b.data(), 0.0, c.data_mut());
//! assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod conv;
pub mod crc32c;
mod error;
pub mod gemm;
pub mod init;
pub mod lrn;
pub mod ops;
pub mod parallel;
pub mod pool;
mod shape;
mod simd;
pub mod softmax;
mod tensor;
pub mod workspace;

pub use error::TensorError;
pub use shape::Shape;
pub use simd::wide_lanes;
pub use tensor::Tensor;
