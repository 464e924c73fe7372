//! Verbs-style RDMA layer over the simulated InfiniBand fabric.
//!
//! The paper's SMB framework is built on RDMA: "it uses remote direct
//! memory access (RDMA), eliminating communication for data copy operations
//! between application-level buffer and kernel-level buffer" (§I), with the
//! InfiniBand remote key ("rkey") granting direct access to a remote buffer
//! (§III-B). This crate reproduces that layer:
//!
//! * [`RdmaFabric`] — per-node registered memory pools on top of
//!   [`shmcaffe_simnet::topology::Fabric`],
//! * [`MemoryRegion`] — a registered buffer identified by `(node, rkey)`,
//! * the paper's two one-sided verbs, [`RdmaFabric::read`] and
//!   [`RdmaFabric::write`], which move real data between address spaces
//!   while charging virtual time to the HCA and switch resources and
//!   announce the touched range once ([`SimContext::access`]),
//! * their `*_wire` fronts, which decouple the *modelled* wire size from
//!   the physical payload (the timing experiments simulate
//!   multi-hundred-megabyte parameter buffers with small in-memory vectors)
//!   and let a higher layer name the access's kind and site,
//! * the set of faulted queue pairs ([`RdmaFabric::qp_faulted`]) for the
//!   fail-over path, whose re-arm costs virtual time. The set gates no
//!   verb: a transfer on a faulted pair still proceeds (the SMB client
//!   gates its transfers on the fabric's fault plan itself).
//!
//! Addressing is in f32 *elements* (the parameter word), the unit every
//! layer of this system traffics in; wire sizes are element count × 4 bytes.
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_simnet::{Simulation, topology::{ClusterSpec, Fabric, NodeId}};
//! use shmcaffe_rdma::RdmaFabric;
//!
//! let fabric = Fabric::new(ClusterSpec::paper_testbed(2));
//! let rdma = RdmaFabric::new(fabric);
//! let mr = rdma.register(NodeId(1), 4).unwrap();
//! let r2 = rdma.clone();
//! let mut sim = Simulation::new();
//! sim.spawn("w", move |ctx| {
//!     r2.write(&ctx, NodeId(0), &mr, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
//!     let mut buf = [0.0f32; 2];
//!     r2.read(&ctx, NodeId(0), &mr, 2, &mut buf).unwrap();
//!     assert_eq!(buf, [3.0, 4.0]);
//! });
//! sim.run();
//! ```

// The fault injector aims at this data plane: a fault must surface as an
// `RdmaError` the retry/fail-over machinery sees, never as a panic.
// `#[cfg(test)]` modules are exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use shmcaffe_simnet::fault::FaultError;
use shmcaffe_simnet::resource::TransferReport;
use shmcaffe_simnet::topology::{Fabric, NodeId};
use shmcaffe_simnet::{AccessKind, SimContext, SimDuration};

/// Remote access key for a registered memory region (the InfiniBand rkey).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteKey(pub u64);

impl fmt::Display for RemoteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rkey:{:#x}", self.0)
    }
}

/// A registered memory region: `(node, rkey, length-in-elements)`.
///
/// Possession of a `MemoryRegion` value is the capability to access the
/// buffer, mirroring how an rkey "enables remote machine to access directly
/// the shared memory with RDMA" (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryRegion {
    /// Endpoint that hosts the physical buffer.
    pub node: NodeId,
    /// Remote access key.
    pub rkey: RemoteKey,
    /// Buffer length in f32 elements.
    pub len: usize,
}

/// Errors produced by RDMA operations. Every variant names the endpoint(s)
/// involved so callers can report which node failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// The rkey does not name a registered region on that node.
    UnknownRegion {
        /// The stale remote key.
        rkey: RemoteKey,
        /// The node the region was expected on.
        node: NodeId,
    },
    /// The access window `[offset, offset+len)` exceeds the region.
    OutOfBounds {
        /// The node hosting the region.
        node: NodeId,
        /// Requested start offset (elements).
        offset: usize,
        /// Requested length (elements).
        len: usize,
        /// Region capacity (elements).
        capacity: usize,
    },
    /// The node id does not exist on this fabric.
    BadNode(NodeId),
    /// A fabric fault failed the work request. The layer that gates its
    /// transfers on the fault plan marks the pair faulted
    /// ([`RdmaFabric::fault_qp`]) and re-arms it before its next attempt.
    QpFault {
        /// Local endpoint.
        local: NodeId,
        /// Remote endpoint.
        remote: NodeId,
        /// The underlying injected fault.
        fault: FaultError,
    },
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::UnknownRegion { rkey, node } => {
                write!(f, "unknown memory region {rkey} on {node}")
            }
            RdmaError::OutOfBounds { node, offset, len, capacity } => {
                write!(
                    f,
                    "access of {len} elements at offset {offset} exceeds region capacity \
                     {capacity} on {node}"
                )
            }
            RdmaError::BadNode(n) => write!(f, "no such fabric endpoint: {n}"),
            RdmaError::QpFault { local, remote, fault } => {
                write!(f, "qp {local}->{remote} faulted: {fault}")
            }
        }
    }
}

impl std::error::Error for RdmaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RdmaError::QpFault { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

struct NodePool {
    // BTreeMap, not HashMap: diagnostics and teardown paths iterate the
    // registered regions, and iteration order must be deterministic.
    regions: Mutex<BTreeMap<u64, Vec<f32>>>,
}

struct FabricInner {
    fabric: Fabric,
    pools: Vec<NodePool>,
    next_key: Mutex<u64>,
    /// The faulted (local, remote) queue pairs; a pair stays here through
    /// its re-arm.
    faulted_qps: Mutex<BTreeSet<(NodeId, NodeId)>>,
}

/// The payload side of a one-sided verb: where a read lands, or what a
/// write carries.
enum Payload<'a> {
    Read(&'a mut [f32]),
    Write(&'a [f32]),
}

/// The RDMA-capable fabric: registered memory pools on every endpoint.
///
/// Cheap to clone (shared handle).
#[derive(Clone)]
pub struct RdmaFabric {
    inner: Arc<FabricInner>,
}

impl fmt::Debug for RdmaFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RdmaFabric").field("endpoints", &self.inner.pools.len()).finish()
    }
}

impl RdmaFabric {
    /// Wraps a fabric with per-endpoint memory pools.
    pub fn new(fabric: Fabric) -> Self {
        let pools = (0..fabric.endpoints())
            .map(|_| NodePool { regions: Mutex::new(BTreeMap::new()) })
            .collect();
        RdmaFabric {
            inner: Arc::new(FabricInner {
                fabric,
                pools,
                next_key: Mutex::new(1),
                faulted_qps: Mutex::new(BTreeSet::new()),
            }),
        }
    }

    /// Whether the queue pair from `local` to `remote` is faulted (or
    /// mid re-arm).
    pub fn qp_faulted(&self, local: NodeId, remote: NodeId) -> bool {
        self.inner.faulted_qps.lock().contains(&(local, remote))
    }

    /// Marks a QP as faulted. Higher layers (e.g. the SMB client, whose
    /// data path charges wire time itself) call this when the fabric's
    /// fault injector fails one of their transfers; the pair stays faulted
    /// until [`RdmaFabric::rearm_qp`].
    pub fn fault_qp(&self, local: NodeId, remote: NodeId) {
        self.inner.faulted_qps.lock().insert((local, remote));
    }

    /// Re-arms a faulted QP: pays a small re-initialisation latency in
    /// virtual time, through which the pair stays faulted, then clears it.
    /// A no-op on a pair that is not faulted.
    pub fn rearm_qp(&self, ctx: &SimContext, local: NodeId, remote: NodeId) {
        if self.qp_faulted(local, remote) {
            self.reinit_qp(ctx, local, remote);
        }
    }

    /// Fails over a client's QP from a dead peer to a new one: the old pair
    /// is marked faulted (where it stays — the peer is gone), and a fresh
    /// pair to `new_remote` is brought up like a re-arm, paying the
    /// re-initialisation latency. The SMB failover path calls this after
    /// promoting a standby server.
    pub fn reconnect_qp(
        &self,
        ctx: &SimContext,
        local: NodeId,
        old_remote: NodeId,
        new_remote: NodeId,
    ) {
        self.fault_qp(local, old_remote);
        self.fault_qp(local, new_remote);
        self.reinit_qp(ctx, local, new_remote);
    }

    /// The re-initialisation of a faulted pair: 10 µs, then it is cleared.
    fn reinit_qp(&self, ctx: &SimContext, local: NodeId, remote: NodeId) {
        ctx.sleep(SimDuration::from_micros(10));
        self.inner.faulted_qps.lock().remove(&(local, remote));
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    fn pool(&self, node: NodeId) -> Result<&NodePool, RdmaError> {
        self.inner.pools.get(node.0).ok_or(RdmaError::BadNode(node))
    }

    /// Registers a zero-initialised buffer of `len` elements on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::BadNode`] for an unknown endpoint.
    pub fn register(&self, node: NodeId, len: usize) -> Result<MemoryRegion, RdmaError> {
        self.register_with(node, vec![0.0; len])
    }

    /// Registers an existing buffer on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::BadNode`] for an unknown endpoint.
    pub fn register_with(&self, node: NodeId, data: Vec<f32>) -> Result<MemoryRegion, RdmaError> {
        let pool = self.pool(node)?;
        let key = {
            let mut next = self.inner.next_key.lock();
            let k = *next;
            *next += 1;
            k
        };
        let len = data.len();
        pool.regions.lock().insert(key, data);
        Ok(MemoryRegion { node, rkey: RemoteKey(key), len })
    }

    /// Deregisters a region, returning its final contents.
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::UnknownRegion`] if already deregistered.
    pub fn deregister(&self, mr: &MemoryRegion) -> Result<Vec<f32>, RdmaError> {
        // Rkeys are never reused, so a later region cannot alias this one's
        // recorded access history.
        self.pool(mr.node)?
            .regions
            .lock()
            .remove(&mr.rkey.0)
            .ok_or(RdmaError::UnknownRegion { rkey: mr.rkey, node: mr.node })
    }

    /// Runs `f` over the region's buffer on its host node (a *local* access:
    /// no fabric time is charged). This is how server-side operations such
    /// as the SMB accumulate engine touch their own memory.
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::UnknownRegion`] for a stale region.
    pub fn with_region<R>(
        &self,
        mr: &MemoryRegion,
        f: impl FnOnce(&mut [f32]) -> R,
    ) -> Result<R, RdmaError> {
        let pool = self.pool(mr.node)?;
        let mut regions = pool.regions.lock();
        let buf = regions
            .get_mut(&mr.rkey.0)
            .ok_or(RdmaError::UnknownRegion { rkey: mr.rkey, node: mr.node })?;
        Ok(f(buf))
    }

    /// Runs `f` over two regions on the *same* node simultaneously (the SMB
    /// accumulate path: private ΔW buffer into the shared global buffer).
    ///
    /// # Errors
    ///
    /// Returns [`RdmaError::UnknownRegion`] if either region is stale, or
    /// [`RdmaError::BadNode`] if they live on different nodes.
    pub fn with_two_regions<R>(
        &self,
        src: &MemoryRegion,
        dst: &MemoryRegion,
        f: impl FnOnce(&[f32], &mut [f32]) -> R,
    ) -> Result<R, RdmaError> {
        if src.node != dst.node {
            return Err(RdmaError::BadNode(src.node));
        }
        let pool = self.pool(src.node)?;
        let mut regions = pool.regions.lock();
        // Take src out briefly to get simultaneous access without unsafe.
        let src_buf = regions
            .remove(&src.rkey.0)
            .ok_or(RdmaError::UnknownRegion { rkey: src.rkey, node: src.node })?;
        let result = match regions.get_mut(&dst.rkey.0) {
            Some(dst_buf) => Ok(f(&src_buf, dst_buf)),
            None => Err(RdmaError::UnknownRegion { rkey: dst.rkey, node: dst.node }),
        };
        regions.insert(src.rkey.0, src_buf);
        result
    }

    /// The one transfer behind both verbs: bounds, then the copy and the
    /// wire charge in the direction's order, then one access record.
    ///
    /// A read snapshots the remote bytes when it is issued and pays the
    /// wire (remote → local) afterwards. A write pays the wire first
    /// (local → remote) and lands the bytes on arrival; they are visible
    /// before this process yields control back to the caller, so no other
    /// process can observe a torn state.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &self,
        ctx: &SimContext,
        local: NodeId,
        mr: &MemoryRegion,
        offset: usize,
        payload: Payload<'_>,
        wire_bytes: u64,
        kind: AccessKind,
        site: &'static str,
    ) -> Result<TransferReport, RdmaError> {
        let len = match &payload {
            Payload::Read(out) => out.len(),
            Payload::Write(data) => data.len(),
        };
        let Some(end) = offset.checked_add(len).filter(|&end| end <= mr.len) else {
            return Err(RdmaError::OutOfBounds { node: mr.node, offset, len, capacity: mr.len });
        };
        let wire = |from, to| self.inner.fabric.net_transfer(ctx, from, to, wire_bytes);
        let sent = match payload {
            Payload::Write(_) => Some(wire(local, mr.node)),
            Payload::Read(_) => None,
        };
        self.with_region(mr, |buf| match payload {
            Payload::Read(out) => out.copy_from_slice(&buf[offset..end]),
            Payload::Write(data) => buf[offset..end].copy_from_slice(data),
        })?;
        ctx.access(mr.rkey.0, offset, len, kind, site);
        Ok(sent.unwrap_or_else(|| wire(mr.node, local)))
    }

    /// One-sided RDMA read: copies `out.len()` elements starting at
    /// `offset` from the remote region into `out`, charging the wire time
    /// for `out.len() * 4` bytes. Recorded as a plain read.
    ///
    /// # Errors
    ///
    /// Returns bounds/region errors; on error no time is charged.
    pub fn read(
        &self,
        ctx: &SimContext,
        local: NodeId,
        mr: &MemoryRegion,
        offset: usize,
        out: &mut [f32],
    ) -> Result<TransferReport, RdmaError> {
        let wire_bytes = (out.len() * 4) as u64;
        self.read_wire(ctx, local, mr, offset, out, wire_bytes, AccessKind::Read, "rdma::read")
    }

    /// [`RdmaFabric::read`] with an explicit modelled wire size in bytes,
    /// recorded as a `kind` access from `site` (the caller's own label: it
    /// knows whether the read is stale-tolerant by protocol).
    ///
    /// # Errors
    ///
    /// Returns bounds/region errors; on error no time is charged.
    #[allow(clippy::too_many_arguments)]
    pub fn read_wire(
        &self,
        ctx: &SimContext,
        local: NodeId,
        mr: &MemoryRegion,
        offset: usize,
        out: &mut [f32],
        wire_bytes: u64,
        kind: AccessKind,
        site: &'static str,
    ) -> Result<TransferReport, RdmaError> {
        self.transfer(ctx, local, mr, offset, Payload::Read(out), wire_bytes, kind, site)
    }

    /// One-sided RDMA write: copies `data` into the remote region at
    /// `offset`, charging the wire time for `data.len() * 4` bytes.
    /// Recorded as a plain write.
    ///
    /// # Errors
    ///
    /// Returns bounds/region errors; on error no time is charged.
    pub fn write(
        &self,
        ctx: &SimContext,
        local: NodeId,
        mr: &MemoryRegion,
        offset: usize,
        data: &[f32],
    ) -> Result<TransferReport, RdmaError> {
        let wire_bytes = (data.len() * 4) as u64;
        self.write_wire(ctx, local, mr, offset, data, wire_bytes, AccessKind::Write, "rdma::write")
    }

    /// [`RdmaFabric::write`] with an explicit modelled wire size in bytes,
    /// recorded as a `kind` access from `site` (see
    /// [`RdmaFabric::read_wire`]).
    ///
    /// # Errors
    ///
    /// Returns bounds/region errors; on error no time is charged.
    #[allow(clippy::too_many_arguments)]
    pub fn write_wire(
        &self,
        ctx: &SimContext,
        local: NodeId,
        mr: &MemoryRegion,
        offset: usize,
        data: &[f32],
        wire_bytes: u64,
        kind: AccessKind,
        site: &'static str,
    ) -> Result<TransferReport, RdmaError> {
        self.transfer(ctx, local, mr, offset, Payload::Write(data), wire_bytes, kind, site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_simnet::topology::ClusterSpec;
    use shmcaffe_simnet::Simulation;

    fn test_fabric() -> RdmaFabric {
        RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(2)))
    }

    #[test]
    fn register_deregister_roundtrip() {
        let rdma = test_fabric();
        let mr = rdma.register_with(NodeId(0), vec![1.0, 2.0]).unwrap();
        assert_eq!(mr.len, 2);
        let data = rdma.deregister(&mr).unwrap();
        assert_eq!(data, vec![1.0, 2.0]);
        assert_eq!(
            rdma.deregister(&mr),
            Err(RdmaError::UnknownRegion { rkey: mr.rkey, node: mr.node })
        );
    }

    #[test]
    fn rkeys_are_unique() {
        let rdma = test_fabric();
        let a = rdma.register(NodeId(0), 1).unwrap();
        let b = rdma.register(NodeId(0), 1).unwrap();
        let c = rdma.register(NodeId(1), 1).unwrap();
        assert_ne!(a.rkey, b.rkey);
        assert_ne!(b.rkey, c.rkey);
    }

    #[test]
    fn bad_node_rejected() {
        let rdma = test_fabric();
        assert_eq!(rdma.register(NodeId(99), 4).unwrap_err(), RdmaError::BadNode(NodeId(99)));
    }

    #[test]
    fn write_then_read_roundtrip_with_timing() {
        let rdma = test_fabric();
        let mem = rdma.fabric().memory_server().unwrap();
        let mr = rdma.register(mem, 8).unwrap();
        let r = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let data: Vec<f32> = (0..8).map(|v| v as f32).collect();
            r.write(&ctx, NodeId(0), &mr, 0, &data).unwrap();
            let mut out = vec![0.0f32; 8];
            r.read(&ctx, NodeId(0), &mr, 0, &mut out).unwrap();
            assert_eq!(out, data);
            // 2 transfers of 32 bytes at 7 GB/s + 2 x 2 us latency.
            assert!(ctx.now().as_nanos() >= 4_000);
        });
        sim.run();
    }

    #[test]
    fn out_of_bounds_is_rejected_without_time() {
        let rdma = test_fabric();
        let mr = rdma.register(NodeId(1), 4).unwrap();
        let r = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let mut out = vec![0.0f32; 3];
            let err = r.read(&ctx, NodeId(0), &mr, 2, &mut out).unwrap_err();
            assert!(matches!(err, RdmaError::OutOfBounds { .. }));
            assert_eq!(ctx.now().as_nanos(), 0, "failed op must not charge time");
        });
        sim.run();
    }

    #[test]
    fn wire_variant_charges_logical_size() {
        let rdma = test_fabric();
        let mem = rdma.fabric().memory_server().unwrap();
        let mr = rdma.register(mem, 4).unwrap();
        let r = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            // Physical 16 bytes, modelled as 53.5 MB (Inception_v1 weights).
            r.write_wire(&ctx, NodeId(0), &mr, 0, &[1.0; 4], 53_500_000, AccessKind::Write, "t")
                .unwrap();
            let ms = ctx.now().as_millis_f64();
            // 53.5 MB / 7 GB/s = 7.64 ms.
            assert!((ms - 7.64).abs() < 0.1, "took {ms} ms");
        });
        sim.run();
    }

    #[test]
    fn with_two_regions_accumulates() {
        let rdma = test_fabric();
        let src = rdma.register_with(NodeId(0), vec![1.0, 2.0]).unwrap();
        let dst = rdma.register_with(NodeId(0), vec![10.0, 20.0]).unwrap();
        rdma.with_two_regions(&src, &dst, |s, d| {
            for (dv, sv) in d.iter_mut().zip(s.iter()) {
                *dv += sv;
            }
        })
        .unwrap();
        assert_eq!(rdma.deregister(&dst).unwrap(), vec![11.0, 22.0]);
        // src must still be present after the temporary removal.
        assert_eq!(rdma.deregister(&src).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn with_two_regions_rejects_cross_node() {
        let rdma = test_fabric();
        let a = rdma.register(NodeId(0), 1).unwrap();
        let b = rdma.register(NodeId(1), 1).unwrap();
        assert!(rdma.with_two_regions(&a, &b, |_, _| ()).is_err());
    }

    #[test]
    fn rearming_a_faulted_qp_costs_latency_once() {
        // Re-arming a faulted pair pays the re-initialisation latency once;
        // re-arming a healthy pair is free; ops flow afterwards.
        let rdma = test_fabric();
        let mr = rdma.register(NodeId(1), 4).unwrap();
        let r = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            assert!(!r.qp_faulted(NodeId(0), NodeId(1)));
            r.rearm_qp(&ctx, NodeId(0), NodeId(1));
            assert_eq!(ctx.now().as_nanos(), 0, "re-arming a healthy pair must be free");

            r.fault_qp(NodeId(0), NodeId(1));
            assert!(r.qp_faulted(NodeId(0), NodeId(1)));
            // Faults are per (local, remote) pair: the reverse pair is untouched.
            assert!(!r.qp_faulted(NodeId(1), NodeId(0)));
            assert_eq!(ctx.now().as_nanos(), 0, "faulting a pair must not charge time");

            r.rearm_qp(&ctx, NodeId(0), NodeId(1));
            assert!(!r.qp_faulted(NodeId(0), NodeId(1)));
            assert_eq!(ctx.now().as_nanos(), 10_000, "the re-arm costs 10 us");
            r.rearm_qp(&ctx, NodeId(0), NodeId(1));
            assert_eq!(ctx.now().as_nanos(), 10_000, "the latency is paid once");

            r.write(&ctx, NodeId(0), &mr, 0, &[2.0; 4]).unwrap();
        });
        sim.run();
        assert_eq!(rdma.deregister(&mr).unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn qp_fault_chains_the_fabric_fault() {
        use shmcaffe_simnet::SimTime;
        let fault = FaultError::LinkDown { node: NodeId(1), at: SimTime::ZERO };
        let err = RdmaError::QpFault { local: NodeId(0), remote: NodeId(1), fault };
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some(), "QpFault must chain the fabric fault");
    }

    #[test]
    fn reconnect_qp_moves_client_to_new_peer() {
        let rdma = test_fabric();
        let mem = rdma.fabric().memory_server().unwrap();
        let r = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            r.fault_qp(NodeId(0), mem);
            let t0 = ctx.now();
            r.reconnect_qp(&ctx, NodeId(0), mem, NodeId(1));
            // Old pair stays torn down; new pair is up after the re-init
            // latency.
            assert!(r.qp_faulted(NodeId(0), mem));
            assert!(!r.qp_faulted(NodeId(0), NodeId(1)));
            assert_eq!((ctx.now() - t0).as_nanos(), 10_000, "reconnect pays re-initialisation");
            let mr = r.register(NodeId(1), 2).unwrap();
            r.write(&ctx, NodeId(0), &mr, 0, &[3.0; 2]).unwrap();
        });
        sim.run();
    }

    #[test]
    fn offset_overflow_is_out_of_bounds_not_a_panic() {
        let rdma = test_fabric();
        let mr = rdma.register(NodeId(1), 4).unwrap();
        let r = rdma.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            // usize::MAX + 2 wraps to 1, which a plain `offset + len` would
            // accept.
            let err = r.read(&ctx, NodeId(0), &mr, usize::MAX, &mut [0.0; 2]).unwrap_err();
            assert!(matches!(err, RdmaError::OutOfBounds { offset: usize::MAX, len: 2, .. }));
            assert!(!err.to_string().is_empty());
            let err = r.write(&ctx, NodeId(0), &mr, usize::MAX, &[0.0; 2]).unwrap_err();
            assert!(matches!(err, RdmaError::OutOfBounds { .. }));
            assert_eq!(ctx.now().as_nanos(), 0, "failed op must not charge time");
        });
        sim.run();
    }

    #[test]
    fn concurrent_writers_to_one_server_serialize_on_rx() {
        let rdma = test_fabric();
        let mem = rdma.fabric().memory_server().unwrap();
        let mut sim = Simulation::new();
        for i in 0..2 {
            let r = rdma.clone();
            let mr = rdma.register(mem, 4).unwrap();
            sim.spawn(&format!("w{i}"), move |ctx| {
                r.write_wire(
                    &ctx,
                    NodeId(i),
                    &mr,
                    0,
                    &[1.0; 4],
                    700_000_000,
                    AccessKind::Write,
                    "t",
                )
                .unwrap();
            });
        }
        // Each write is 0.1 s of service; the server rx serialises them.
        let end = sim.run();
        assert!((end.as_secs_f64() - 0.2).abs() < 0.01, "{}", end.as_secs_f64());
    }
}
