//! Facade crate for the ShmCaffe reproduction workspace.
//!
//! Re-exports every sub-crate under a single name so that the runnable
//! examples in `examples/` and the cross-crate integration tests in `tests/`
//! can use one coherent namespace.
//!
//! The actual implementation lives in the `crates/` workspace members:
//!
//! * [`tensor`] — dense f32 tensor algebra (gemm, conv, pooling, activations)
//! * [`dnn`] — Caffe-like layers, nets, the SGD solver and datasets
//! * [`simnet`] — deterministic virtual-time cluster fabric simulator
//! * [`rdma`] — verbs-style RDMA layer (memory regions, queue pairs)
//! * [`smb`] — the Soft Memory Box remote shared-memory framework
//! * [`mpi`] — in-process MPI-like message passing substrate
//! * [`collectives`] — NCCL-like ring allreduce / broadcast collectives
//! * [`models`] — CNN model zoo descriptors and trainable proxy networks
//! * [`platform`] — the ShmCaffe platform itself (SEASGD, HSGD, baselines)

pub use shmcaffe as platform;
pub use shmcaffe_collectives as collectives;
pub use shmcaffe_dnn as dnn;
pub use shmcaffe_models as models;
pub use shmcaffe_mpi as mpi;
pub use shmcaffe_rdma as rdma;
pub use shmcaffe_simnet as simnet;
pub use shmcaffe_smb as smb;
pub use shmcaffe_tensor as tensor;
