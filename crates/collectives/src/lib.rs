//! NCCL-like intra-node collectives over the shared PCIe bus.
//!
//! ShmCaffe's Hybrid SGD "aggregates gradients using ncclAllReduce provided
//! by the NVIDIA NCCL library" among the GPUs of one node, and the BVLC
//! Caffe baseline uses the same library for its multi-GPU SSGD (paper
//! §III-D, §IV-C). This crate provides that collective layer, the two
//! operations Hybrid SGD and the Caffe baseline run:
//!
//! * [`IntraNodeGroup`] — a clique of GPU ranks pinned to one node,
//! * [`GpuComm`] — the per-GPU handle with [`GpuComm::all_reduce_wire`]
//!   (ring reduce-scatter + allgather, NCCL's algorithm) and
//!   [`GpuComm::broadcast`] (a binomial tree from the root).
//!
//! Every hop of the ring is charged to the node's shared PCIe bus resource,
//! so the familiar `2·(N−1)·P / BW_bus` cost of a shared-bus ring emerges
//! from the simulation rather than being hard-coded. The paper notes
//! "ShmCaffe uses the PCI-E system bus for communication" intra-node.
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_simnet::{Simulation, topology::{ClusterSpec, Fabric, NodeId}};
//! use shmcaffe_collectives::IntraNodeGroup;
//!
//! let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
//! let group = IntraNodeGroup::new(fabric, NodeId(0), 4);
//! let mut sim = Simulation::new();
//! for gpu in 0..4 {
//!     let mut comm = group.comm(gpu);
//!     sim.spawn(&format!("gpu{gpu}"), move |ctx| {
//!         let summed = comm.all_reduce_wire(&ctx, vec![1.0, 2.0], 8);
//!         assert_eq!(summed, vec![4.0, 8.0]);
//!     });
//! }
//! sim.run();
//! ```

#![warn(missing_docs)]

use shmcaffe_mpi::{Comm, MpiData, MpiWorld};
use shmcaffe_simnet::topology::{Fabric, NodeId};
use shmcaffe_simnet::SimContext;

/// A clique of GPU ranks on one node sharing its PCIe bus.
///
/// Internally this reuses the MPI substrate with every rank mapped to the
/// same node, so all transfers route over the node's PCIe resource.
#[derive(Debug, Clone)]
pub struct IntraNodeGroup {
    world: MpiWorld,
}

impl IntraNodeGroup {
    /// Creates a group of `n_gpus` ranks on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus == 0`.
    pub fn new(fabric: Fabric, node: NodeId, n_gpus: usize) -> Self {
        assert!(n_gpus > 0, "group needs at least one GPU");
        let world = MpiWorld::with_layout(fabric, vec![node; n_gpus]);
        IntraNodeGroup { world }
    }

    /// The per-GPU communicator handle.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn comm(&self, gpu: usize) -> GpuComm {
        GpuComm { comm: self.world.comm(gpu) }
    }
}

/// One GPU's handle to its intra-node collective group.
#[derive(Debug)]
pub struct GpuComm {
    comm: Comm,
}

impl GpuComm {
    /// This GPU's rank within the group.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// ncclAllReduce (sum) of `wire_bytes` logical bytes: every GPU returns
    /// the element-wise sum of `data`.
    pub fn all_reduce_wire(
        &mut self,
        ctx: &SimContext,
        data: Vec<f32>,
        wire_bytes: u64,
    ) -> Vec<f32> {
        self.comm.allreduce_wire(ctx, data, wire_bytes)
    }

    /// ncclBcast: the root's buffer is distributed to every GPU.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast(&mut self, ctx: &SimContext, root: usize, data: Option<Vec<f32>>) -> Vec<f32> {
        self.comm.broadcast(ctx, root, data.map(MpiData::F32s)).into_f32s()
    }

    /// [`GpuComm::broadcast`] with an explicit logical wire size per hop.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast_wire(
        &mut self,
        ctx: &SimContext,
        root: usize,
        data: Option<Vec<f32>>,
        wire_bytes: u64,
    ) -> Vec<f32> {
        self.comm.broadcast_wire(ctx, root, data.map(MpiData::F32s), wire_bytes).into_f32s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use shmcaffe_simnet::topology::ClusterSpec;
    use shmcaffe_simnet::Simulation;
    use std::sync::Arc;

    fn run_group<F>(n_gpus: usize, f: F) -> (Vec<Vec<f32>>, Fabric, shmcaffe_simnet::SimTime)
    where
        F: Fn(&SimContext, &mut GpuComm) -> Vec<f32> + Send + Sync + 'static,
    {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
        let group = IntraNodeGroup::new(fabric.clone(), NodeId(0), n_gpus);
        let results: Arc<Mutex<Vec<Vec<f32>>>> = Arc::new(Mutex::new(vec![Vec::new(); n_gpus]));
        let f = Arc::new(f);
        let mut sim = Simulation::new();
        for gpu in 0..n_gpus {
            let mut comm = group.comm(gpu);
            let results = Arc::clone(&results);
            let f = Arc::clone(&f);
            sim.spawn(&format!("gpu{gpu}"), move |ctx| {
                let out = f(&ctx, &mut comm);
                results.lock()[gpu] = out;
            });
        }
        let end = sim.run();
        let out = results.lock().clone();
        (out, fabric, end)
    }

    #[test]
    fn all_reduce_sums_across_gpus() {
        for n in [1, 2, 3, 4] {
            let (got, _, _) = run_group(n, |ctx, comm| {
                let mine = vec![comm.rank() as f32; 7];
                comm.all_reduce_wire(ctx, mine, 28)
            });
            let expected: f32 = (0..n).map(|r| r as f32).sum();
            for r in got {
                assert_eq!(r, vec![expected; 7]);
            }
        }
    }

    #[test]
    fn traffic_lands_on_pcie_only() {
        let (_, fabric, _) =
            run_group(4, |ctx, comm| comm.all_reduce_wire(ctx, vec![1.0; 8], 8_000_000));
        assert!(fabric.pcie(NodeId(0)).total_bytes() > 0);
        assert_eq!(fabric.hca_tx(NodeId(0)).total_bytes(), 0);
    }

    #[test]
    fn shared_bus_ring_cost_matches_formula() {
        // 4 GPUs, logical P = 120 MB on a 12 GB/s bus:
        // total bus bytes = 2*(N-1)*P/N per rank * N = 2*(N-1)*P = 720 MB
        // => 60 ms of bus service.
        let (_, fabric, end) =
            run_group(4, |ctx, comm| comm.all_reduce_wire(ctx, vec![0.0; 4], 120_000_000));
        let bus = fabric.pcie(NodeId(0));
        let expected_bytes = 2 * 3 * 120_000_000u64;
        assert_eq!(bus.total_bytes(), expected_bytes);
        let ms = end.as_millis_f64();
        assert!((ms - 60.0).abs() < 2.0, "elapsed {ms}");
    }

    #[test]
    fn broadcast_reaches_every_gpu() {
        let (got, _, _) = run_group(4, |ctx, comm| {
            let data = (comm.rank() == 1).then(|| vec![5.0, 6.0]);
            comm.broadcast(ctx, 1, data)
        });
        assert_eq!(got, vec![vec![5.0, 6.0]; 4]);
    }

    #[test]
    fn broadcast_wire_puts_one_copy_per_receiver_on_the_bus() {
        // The hybrid root's per-exchange broadcast: the binomial tree sends
        // P logical bytes to each of the N-1 = 3 other GPUs, all over the
        // node's PCIe bus and none over its HCA.
        const P: u64 = 40_000_000;
        let (got, fabric, _) = run_group(4, |ctx, comm| {
            let data = (comm.rank() == 0).then(|| vec![1.5; 4]);
            comm.broadcast_wire(ctx, 0, data, P)
        });
        assert_eq!(got, vec![vec![1.5; 4]; 4]);
        assert_eq!(fabric.pcie(NodeId(0)).total_bytes(), 3 * P);
        assert_eq!(fabric.hca_tx(NodeId(0)).total_bytes(), 0);
    }
}
