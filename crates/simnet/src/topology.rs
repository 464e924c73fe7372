//! Cluster topology: GPU nodes, InfiniBand fabric, PCIe buses, memory server.
//!
//! Mirrors the paper's testbed (§IV-A): 4-GPU SuperMicro servers with one
//! 56 Gbps FDR HCA each (≈7 GB/s), a non-blocking Mellanox switch, and a
//! dedicated SMB memory server on the same fabric.

use std::fmt;
use std::sync::Arc;

use crate::fault::{FaultError, FaultInjector, FaultPlan, DETECTION_LATENCY};
use crate::resource::{BandwidthResource, LinkModel, TransferReport};
use crate::{SimContext, SimDuration};

/// Identifies an endpoint (GPU node or memory server) on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static description of a cluster. Every endpoint has one
/// [`ClusterSpec::fdr_hca`] per direction and every GPU node one shared
/// [`ClusterSpec::pcie3_bus`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of GPU servers.
    pub gpu_nodes: usize,
    /// GPUs per server (the paper's servers have 4).
    pub gpus_per_node: usize,
    /// Number of dedicated memory servers (SMB hosts) attached. The paper
    /// evaluates a single server and names "multiple SMB servers" as future
    /// work (§V); this reproduction implements both.
    pub memory_servers: usize,
}

impl ClusterSpec {
    /// 56 Gbps FDR InfiniBand HCA: 7 GB/s, ~2 µs latency (paper §IV-B).
    pub fn fdr_hca() -> LinkModel {
        LinkModel::new(7.0e9, SimDuration::from_micros(2))
    }

    /// PCIe 3.0 x16 effective bandwidth shared per node: ~12 GB/s, ~1 µs.
    pub fn pcie3_bus() -> LinkModel {
        LinkModel::new(12.0e9, SimDuration::from_micros(1))
    }

    /// The paper's testbed: `gpu_nodes` servers of 4 GPUs plus the memory
    /// server, all on FDR InfiniBand.
    pub fn paper_testbed(gpu_nodes: usize) -> Self {
        ClusterSpec { gpu_nodes, gpus_per_node: 4, memory_servers: 1 }
    }

    /// Total worker slots (GPUs) in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.gpu_nodes * self.gpus_per_node
    }
}

/// The instantiated fabric: shared bandwidth resources for every endpoint.
///
/// Endpoints `0..gpu_nodes` are GPU servers; if a memory server is present it
/// is the last endpoint (see [`Fabric::memory_server`]).
///
/// # Example
///
/// ```rust
/// use shmcaffe_simnet::{Simulation, topology::{ClusterSpec, Fabric, NodeId}};
///
/// let fabric = Fabric::new(ClusterSpec::paper_testbed(4));
/// let mem = fabric.memory_server().unwrap();
/// let mut sim = Simulation::new();
/// let f = fabric.clone();
/// sim.spawn("w", move |ctx| {
///     // Push 53.5 MB (Inception_v1 weights) from node 0 to the SMB server.
///     f.net_transfer(&ctx, NodeId(0), mem, 53_500_000);
/// });
/// let end = sim.run();
/// assert!(end.as_millis_f64() > 7.0); // 53.5 MB / 7 GB/s ≈ 7.6 ms
/// ```
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

struct FabricInner {
    spec: ClusterSpec,
    hca_tx: Vec<BandwidthResource>,
    hca_rx: Vec<BandwidthResource>,
    pcie: Vec<BandwidthResource>,
    injector: Option<FaultInjector>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric").field("spec", &self.inner.spec).finish()
    }
}

impl Fabric {
    /// Instantiates the fabric for a cluster description.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::build(spec, None)
    }

    /// Instantiates the fabric with a deterministic fault-injection plan
    /// (see [`crate::fault`]). Every transfer consults the shared
    /// [`FaultInjector`], so identical plans yield identical fault
    /// sequences.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn with_faults(spec: ClusterSpec, plan: FaultPlan) -> Self {
        Self::build(spec, Some(FaultInjector::new(plan)))
    }

    fn build(spec: ClusterSpec, injector: Option<FaultInjector>) -> Self {
        let endpoints = spec.gpu_nodes + spec.memory_servers;
        let hca = ClusterSpec::fdr_hca();
        let hca_tx: Vec<BandwidthResource> =
            (0..endpoints).map(|n| BandwidthResource::new(&format!("hca_tx[{n}]"), hca)).collect();
        // A memory server's HCA is half-duplex: its rx is its tx pipe, one
        // queue for both directions. The SMB transport derives from the
        // kernel RDS module and saturates at 6.7 GB/s *aggregate* for a
        // 50/50 read/write mix (Fig. 7), so the two directions are not
        // independent.
        let hca_rx: Vec<BandwidthResource> = (0..endpoints)
            .map(|n| {
                if n < spec.gpu_nodes {
                    BandwidthResource::new(&format!("hca_rx[{n}]"), hca)
                } else {
                    hca_tx[n].clone()
                }
            })
            .collect();
        let pcie = (0..spec.gpu_nodes)
            .map(|n| BandwidthResource::new(&format!("pcie[{n}]"), ClusterSpec::pcie3_bus()))
            .collect();
        Fabric { inner: Arc::new(FabricInner { spec, hca_tx, hca_rx, pcie, injector }) }
    }

    /// The attached fault injector, if the fabric was built with one.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.inner.injector.as_ref()
    }

    /// The cluster description this fabric was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// Number of fabric endpoints (GPU nodes plus memory server).
    pub fn endpoints(&self) -> usize {
        self.inner.hca_tx.len()
    }

    /// The first memory server's endpoint id, if one exists.
    pub fn memory_server(&self) -> Option<NodeId> {
        self.memory_server_at(0)
    }

    /// The `i`-th memory server's endpoint id, if it exists.
    pub fn memory_server_at(&self, i: usize) -> Option<NodeId> {
        (i < self.inner.spec.memory_servers).then(|| NodeId(self.inner.spec.gpu_nodes + i))
    }

    /// Number of memory servers on this fabric.
    pub fn memory_server_count(&self) -> usize {
        self.inner.spec.memory_servers
    }

    /// Which endpoint hosts a given worker rank under the paper's layout
    /// (workers fill nodes in order, `gpus_per_node` per node).
    pub fn node_of_worker(&self, rank: usize) -> NodeId {
        NodeId(rank / self.inner.spec.gpus_per_node)
    }

    /// Moves `bytes` between endpoints, or over the local PCIe bus when
    /// `from == to`. Blocks in virtual time, waiting out any fault window
    /// (callers that must fail fast consult [`Fabric::fault_check`] first).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint id is out of range.
    pub fn net_transfer(
        &self,
        ctx: &SimContext,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> TransferReport {
        if from == to {
            return self.pcie_transfer(ctx, from, bytes);
        }
        // The reliable substrate rides out faults, so shaping cannot fail.
        self.fault_shape(ctx, from, to, false)
            .expect("infallible transfers wait out fault windows");
        let tx = &self.inner.hca_tx[from.0];
        let rx = &self.inner.hca_rx[to.0];
        crate::resource::transfer_path_stream(ctx, &[tx, rx], bytes, None)
    }

    /// Runs the fallible fault gate for a transfer between two endpoints
    /// without moving any bytes. Callers that charge wire time through
    /// their own resource path (the SMB transport) use this to subject
    /// that path to the fabric's fault plan.
    ///
    /// # Errors
    ///
    /// Returns the injected fault (after detection latency).
    pub fn fault_check(
        &self,
        ctx: &SimContext,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), FaultError> {
        self.fault_shape(ctx, from, to, true)
    }

    /// Sleeps through outage windows and draws the failure coin.
    ///
    /// `fallible` selects fail-fast (RDMA-style) versus ride-it-out
    /// (reliable-stream-style) semantics for outages.
    fn fault_shape(
        &self,
        ctx: &SimContext,
        from: NodeId,
        to: NodeId,
        fallible: bool,
    ) -> Result<(), FaultError> {
        let Some(inj) = &self.inner.injector else {
            return Ok(());
        };
        loop {
            let now = ctx.now();
            // A crashed memory server never comes back: fail fast so the
            // caller can fail over. Crashes only make sense on fallible
            // (RDMA/SMB) paths — the synchronous baselines do not talk to
            // memory servers — so an infallible transfer touching a crashed
            // endpoint is a scenario bug, not something to ride out.
            let crashed = [from, to].iter().copied().find(|&n| inj.memory_server_crashed(n, now));
            if let Some(node) = crashed {
                assert!(
                    fallible,
                    "infallible transfer touches crashed memory server {node} at t={} ns",
                    now.as_nanos()
                );
                inj.record_memory_server_crash_hit();
                ctx.sleep(DETECTION_LATENCY);
                return Err(FaultError::NodeCrashed { node, at: ctx.now() });
            }
            let down = [from, to].iter().find_map(|&n| inj.down_until(n, now).map(|u| (n, u)));
            if let Some((node, until)) = down {
                if fallible {
                    inj.record_link_down_hit();
                    ctx.sleep(DETECTION_LATENCY);
                    return Err(FaultError::LinkDown { node, at: ctx.now() });
                }
                ctx.sleep_until(until);
                continue;
            }
            // A severed partition is directional: only the from->to path is
            // consulted, so an asymmetric plan can black-hole one side while
            // the reverse direction keeps flowing.
            if let Some(heal) = inj.partitioned_until(from, to, now) {
                if fallible {
                    inj.record_partition_hit();
                    ctx.sleep(DETECTION_LATENCY);
                    return Err(FaultError::Partitioned { from, to, at: ctx.now() });
                }
                let until = heal.unwrap_or_else(|| {
                    panic!(
                        "infallible transfer {from}->{to} severed by a partition that never \
                         heals (t={} ns)",
                        now.as_nanos()
                    )
                });
                ctx.sleep_until(until);
                continue;
            }
            break;
        }
        if fallible && inj.draw_op_failure() {
            ctx.sleep(DETECTION_LATENCY);
            return Err(FaultError::Injected { from, to, at: ctx.now() });
        }
        Ok(())
    }

    /// Moves `bytes` over a node's shared PCIe bus.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a GPU node (the memory server has no GPUs).
    pub fn pcie_transfer(&self, ctx: &SimContext, node: NodeId, bytes: u64) -> TransferReport {
        let bus = &self.inner.pcie[node.0];
        bus.transfer(ctx, bytes)
    }

    /// The transmit-side HCA resource of an endpoint (for stats inspection).
    pub fn hca_tx(&self, node: NodeId) -> &BandwidthResource {
        &self.inner.hca_tx[node.0]
    }

    /// The receive-side HCA resource of an endpoint (for stats inspection).
    pub fn hca_rx(&self, node: NodeId) -> &BandwidthResource {
        &self.inner.hca_rx[node.0]
    }

    /// The PCIe bus resource of a GPU node (for stats inspection).
    pub fn pcie(&self, node: NodeId) -> &BandwidthResource {
        &self.inner.pcie[node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    #[test]
    fn paper_testbed_layout() {
        let spec = ClusterSpec::paper_testbed(4);
        assert_eq!(spec.total_gpus(), 16);
        let fabric = Fabric::new(spec);
        assert_eq!(fabric.endpoints(), 5);
        assert_eq!(fabric.memory_server(), Some(NodeId(4)));
        assert_eq!(fabric.node_of_worker(0), NodeId(0));
        assert_eq!(fabric.node_of_worker(3), NodeId(0));
        assert_eq!(fabric.node_of_worker(4), NodeId(1));
        assert_eq!(fabric.node_of_worker(15), NodeId(3));
    }

    #[test]
    fn no_memory_server_when_disabled() {
        let spec = ClusterSpec { memory_servers: 0, ..ClusterSpec::paper_testbed(2) };
        let fabric = Fabric::new(spec);
        assert_eq!(fabric.endpoints(), 2);
        assert_eq!(fabric.memory_server(), None);
    }

    #[test]
    fn inter_node_transfer_uses_hca_bandwidth() {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(2));
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let rep = f.net_transfer(&ctx, NodeId(0), NodeId(1), 7_000_000_000);
            assert_eq!(rep.duration().as_secs_f64(), 1.0);
        });
        sim.run();
        assert_eq!(fabric.hca_tx(NodeId(0)).total_bytes(), 7_000_000_000);
        assert_eq!(fabric.hca_rx(NodeId(1)).total_bytes(), 7_000_000_000);
        assert_eq!(fabric.hca_rx(NodeId(0)).total_bytes(), 0);
    }

    #[test]
    fn same_node_transfer_uses_pcie() {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            f.net_transfer(&ctx, NodeId(0), NodeId(0), 12_000_000_000);
        });
        sim.run();
        assert_eq!(fabric.pcie(NodeId(0)).total_bytes(), 12_000_000_000);
        assert_eq!(fabric.hca_tx(NodeId(0)).total_bytes(), 0);
    }

    #[test]
    fn memory_servers_are_half_duplex_on_every_fabric() {
        // Every memory server's rx is its tx pipe: bytes it receives land
        // on its tx counter, while a GPU node's rx stays a pipe of its own.
        for (nodes, servers) in [(1, 0), (1, 1), (2, 1), (2, 2), (4, 3)] {
            let fabric = Fabric::new(ClusterSpec {
                memory_servers: servers,
                ..ClusterSpec::paper_testbed(nodes)
            });
            let f = fabric.clone();
            let mut sim = Simulation::new();
            sim.spawn("w", move |ctx| {
                for i in 0..servers {
                    f.net_transfer(&ctx, NodeId(0), f.memory_server_at(i).unwrap(), 1_000);
                }
                if nodes > 1 {
                    f.net_transfer(&ctx, NodeId(0), NodeId(1), 1_000);
                }
            });
            sim.run();
            for i in 0..servers {
                let mem = fabric.memory_server_at(i).unwrap();
                assert_eq!(fabric.hca_tx(mem).total_bytes(), 1_000, "{nodes} nodes, server {i}");
            }
            if nodes > 1 {
                assert_eq!(fabric.hca_tx(NodeId(1)).total_bytes(), 0);
                assert_eq!(fabric.hca_rx(NodeId(1)).total_bytes(), 1_000);
            }
        }
        // One reader and one writer of the memory server share its pipe:
        // 7 GB in each direction takes 2 s, not 1 s.
        let fabric = Fabric::new(ClusterSpec::paper_testbed(2));
        let mem = fabric.memory_server().unwrap();
        let mut sim = Simulation::new();
        {
            let f = fabric.clone();
            sim.spawn("writer", move |ctx| {
                f.net_transfer(&ctx, NodeId(0), mem, 7_000_000_000);
            });
        }
        {
            let f = fabric.clone();
            sim.spawn("reader", move |ctx| {
                f.net_transfer(&ctx, mem, NodeId(1), 7_000_000_000);
            });
        }
        let end = sim.run();
        assert!((end.as_secs_f64() - 2.0).abs() < 0.01, "{}", end.as_secs_f64());
    }

    #[test]
    fn gpu_node_hcas_remain_full_duplex() {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(3));
        let mut sim = Simulation::new();
        {
            let f = fabric.clone();
            sim.spawn("tx", move |ctx| {
                f.net_transfer(&ctx, NodeId(0), NodeId(1), 7_000_000_000);
            });
        }
        {
            let f = fabric.clone();
            sim.spawn("rx", move |ctx| {
                f.net_transfer(&ctx, NodeId(2), NodeId(0), 7_000_000_000);
            });
        }
        // Node 0 sends and receives concurrently: 1 s total.
        let end = sim.run();
        assert!((end.as_secs_f64() - 1.0).abs() < 0.01, "{}", end.as_secs_f64());
    }

    #[test]
    fn infallible_transfer_rides_out_link_down() {
        use crate::fault::FaultPlan;
        use crate::SimTime;
        let plan = FaultPlan::new(1).link_down(NodeId(1), SimTime::ZERO, SimTime::from_millis(250));
        let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(2), plan);
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let rep = f.net_transfer(&ctx, NodeId(0), NodeId(1), 7_000_000);
            // Started only after the outage cleared at 250 ms.
            assert!(rep.start >= SimTime::from_millis(250));
        });
        let end = sim.run();
        assert!(end.as_millis_f64() >= 250.0, "{}", end.as_millis_f64());
    }

    #[test]
    fn fallible_transfer_fails_fast_during_link_down() {
        use crate::fault::{FaultError, FaultPlan};
        use crate::SimTime;
        let plan = FaultPlan::new(1).link_down(NodeId(1), SimTime::ZERO, SimTime::from_secs(1));
        let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(2), plan);
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let err = f.fault_check(&ctx, NodeId(0), NodeId(1)).unwrap_err();
            assert!(matches!(err, FaultError::LinkDown { node: NodeId(1), .. }));
            // Paid only detection latency, not the 1 s outage.
            assert_eq!(ctx.now(), SimTime::from_micros(500));
        });
        sim.run();
        assert_eq!(fabric.fault_injector().unwrap().stats().link_down_hits, 1);
    }

    #[test]
    fn fallible_transfer_fails_fast_against_crashed_memory_server() {
        use crate::fault::{FaultError, FaultPlan};
        use crate::SimTime;
        let spec = ClusterSpec::paper_testbed(2);
        let mem = NodeId(spec.gpu_nodes);
        let plan = FaultPlan::new(1).crash_memory_server(mem, SimTime::from_millis(5));
        let fabric = Fabric::with_faults(spec, plan);
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            // Before the crash the path is clean.
            assert!(f.fault_check(&ctx, NodeId(0), mem).is_ok());
            ctx.sleep_until(SimTime::from_millis(5));
            let err = f.fault_check(&ctx, NodeId(0), mem).unwrap_err();
            assert!(matches!(err, FaultError::NodeCrashed { node, .. } if node == mem));
            // Paid only detection latency; the crash is permanent.
            assert_eq!(ctx.now(), SimTime::from_millis(5) + SimDuration::from_micros(500));
            let err2 = f.fault_check(&ctx, mem, NodeId(1)).unwrap_err();
            assert!(matches!(err2, FaultError::NodeCrashed { node, .. } if node == mem));
        });
        sim.run();
        assert_eq!(fabric.fault_injector().unwrap().stats().memory_server_crash_hits, 2);
    }

    #[test]
    fn fallible_transfer_fails_fast_across_partition() {
        use crate::fault::{FaultError, FaultPlan};
        use crate::SimTime;
        let plan = FaultPlan::new(1).partition_one_way(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            SimTime::ZERO,
            Some(SimTime::from_secs(1)),
        );
        let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(2), plan);
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let err = f.fault_check(&ctx, NodeId(0), NodeId(1)).unwrap_err();
            assert!(matches!(err, FaultError::Partitioned { from: NodeId(0), to: NodeId(1), .. }));
            // Paid only detection latency, not the 1 s outage.
            assert_eq!(ctx.now(), SimTime::from_micros(500));
            // The reverse direction of a one-way partition keeps flowing.
            assert_eq!(f.fault_check(&ctx, NodeId(1), NodeId(0)), Ok(()));
        });
        sim.run();
        assert_eq!(fabric.fault_injector().unwrap().stats().partition_hits, 1);
    }

    #[test]
    fn infallible_transfer_rides_out_partition_until_heal() {
        use crate::fault::FaultPlan;
        use crate::SimTime;
        let plan = FaultPlan::new(1).partition(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            SimTime::ZERO,
            Some(SimTime::from_millis(250)),
        );
        let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(2), plan);
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let rep = f.net_transfer(&ctx, NodeId(0), NodeId(1), 7_000_000);
            // Started only after the partition healed at 250 ms.
            assert!(rep.start >= SimTime::from_millis(250));
        });
        let end = sim.run();
        assert!(end.as_millis_f64() >= 250.0, "{}", end.as_millis_f64());
    }

    #[test]
    fn fabric_without_plan_never_faults() {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(2));
        assert!(fabric.fault_injector().is_none());
        let f = fabric.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            assert_eq!(f.fault_check(&ctx, NodeId(0), NodeId(1)), Ok(()));
            assert_eq!(ctx.now(), crate::SimTime::ZERO, "a clean gate charges no time");
        });
        sim.run();
    }

    #[test]
    fn many_senders_to_one_receiver_contend_at_receiver() {
        // 4 nodes each send 1 GB to the memory server; its rx HCA (7 GB/s)
        // is the bottleneck: total 4 GB / 7 GB/s ≈ 0.571 s.
        let fabric = Fabric::new(ClusterSpec::paper_testbed(4));
        let mem = fabric.memory_server().unwrap();
        let mut sim = Simulation::new();
        for n in 0..4 {
            let f = fabric.clone();
            sim.spawn(&format!("n{n}"), move |ctx| {
                f.net_transfer(&ctx, NodeId(n), mem, 1_000_000_000);
            });
        }
        let end = sim.run();
        let expect = 4.0 / 7.0;
        assert!((end.as_secs_f64() - expect).abs() < 0.01, "{}", end.as_secs_f64());
    }
}
