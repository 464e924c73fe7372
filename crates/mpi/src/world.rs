use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::topology::{Fabric, NodeId};
use shmcaffe_simnet::SimContext;

/// Message tag, matching MPI's integer tags.
pub type Tag = u32;

/// Message payloads carried by this substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiData {
    /// A vector of parameters or gradients.
    F32s(Vec<f32>),
    /// Small control values (SHM keys, iteration counts, handshakes).
    U64s(Vec<u64>),
}

impl MpiData {
    /// Physical wire size in bytes.
    pub fn byte_len(&self) -> u64 {
        match self {
            MpiData::F32s(v) => (v.len() * 4) as u64,
            MpiData::U64s(v) => (v.len() * 8) as u64,
        }
    }

    /// Extracts an f32 vector.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not `F32s`.
    pub fn into_f32s(self) -> Vec<f32> {
        match self {
            MpiData::F32s(v) => v,
            other => panic!("expected F32s payload, got {other:?}"),
        }
    }

    /// Extracts a u64 vector.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not `U64s`.
    pub fn into_u64s(self) -> Vec<u64> {
        match self {
            MpiData::U64s(v) => v,
            other => panic!("expected U64s payload, got {other:?}"),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub data: MpiData,
}

pub(crate) struct WorldInner {
    pub fabric: Fabric,
    pub node_of: Vec<NodeId>,
    pub mailboxes: Vec<SimChannel<Envelope>>,
}

/// A communicator of `size` ranks laid out over the fabric's GPU nodes
/// (`gpus_per_node` ranks per node, in order — the paper's worker layout).
#[derive(Clone)]
pub struct MpiWorld {
    pub(crate) inner: Arc<WorldInner>,
}

impl fmt::Debug for MpiWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpiWorld").field("size", &self.size()).finish()
    }
}

impl MpiWorld {
    /// Creates a world of `size` ranks on `fabric` with the default layout.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds the fabric's GPU slots.
    pub fn new(fabric: Fabric, size: usize) -> Self {
        assert!(size > 0, "world size must be positive");
        assert!(
            size <= fabric.spec().total_gpus(),
            "world size {size} exceeds {} GPU slots",
            fabric.spec().total_gpus()
        );
        let node_of = (0..size).map(|r| fabric.node_of_worker(r)).collect();
        Self::with_layout(fabric, node_of)
    }

    /// Creates a world with an explicit rank→node mapping.
    ///
    /// # Panics
    ///
    /// Panics if the layout is empty.
    pub fn with_layout(fabric: Fabric, node_of: Vec<NodeId>) -> Self {
        assert!(!node_of.is_empty(), "layout must contain at least one rank");
        let mailboxes =
            (0..node_of.len()).map(|r| SimChannel::new(&format!("mpi_mailbox_{r}"))).collect();
        MpiWorld { inner: Arc::new(WorldInner { fabric, node_of, mailboxes }) }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.node_of.len()
    }

    /// The fabric node hosting `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.inner.node_of[rank]
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// Creates the per-rank handle. Each rank's simulated process should
    /// own exactly one `Comm`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.size(), "rank {rank} out of range");
        Comm { world: Arc::clone(&self.inner), rank, stash: VecDeque::new() }
    }
}

/// A per-rank communicator handle (the `MPI_COMM_WORLD` view of one rank).
pub struct Comm {
    pub(crate) world: Arc<WorldInner>,
    pub(crate) rank: usize,
    /// Messages received but not yet matched by a selective `recv`.
    stash: VecDeque<Envelope>,
}

impl fmt::Debug for Comm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.world.node_of.len())
            .finish()
    }
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.node_of.len()
    }

    /// The fabric node this rank runs on.
    pub fn node(&self) -> NodeId {
        self.world.node_of[self.rank]
    }

    /// Sends `data` to `dst` with `tag`, charging the physical wire size.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send(&self, ctx: &SimContext, dst: usize, tag: Tag, data: MpiData) {
        let bytes = data.byte_len();
        self.send_wire(ctx, dst, tag, data, bytes);
    }

    /// [`Comm::send`] with an explicit modelled wire size.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send_wire(
        &self,
        ctx: &SimContext,
        dst: usize,
        tag: Tag,
        data: MpiData,
        wire_bytes: u64,
    ) {
        let dst_node = self.world.node_of[dst];
        let src_node = self.node();
        if wire_bytes > 0 && dst != self.rank {
            self.world.fabric.net_transfer(ctx, src_node, dst_node, wire_bytes);
        }
        self.world.mailboxes[dst].send(ctx, Envelope { src: self.rank, tag, data });
    }

    /// Receives the oldest message matching `src` (or any source when
    /// `None`) and `tag`, blocking in virtual time.
    pub fn recv(&mut self, ctx: &SimContext, src: Option<usize>, tag: Tag) -> (usize, MpiData) {
        let env = self.take(ctx, |e| e.tag == tag && src.is_none_or(|s| s == e.src));
        (env.src, env.data)
    }

    /// Receives a matching message's f32 payload.
    pub fn recv_f32s(
        &mut self,
        ctx: &SimContext,
        src: Option<usize>,
        tag: Tag,
    ) -> (usize, Vec<f32>) {
        let (s, data) = self.recv(ctx, src, tag);
        (s, data.into_f32s())
    }

    /// Receives the oldest message whose tag is in `tags`, from any source
    /// (a multi-tag `MPI_Recv` with `MPI_ANY_TAG` restricted to a set —
    /// what an event-loop server needs).
    ///
    /// # Panics
    ///
    /// Panics if `tags` is empty.
    pub fn recv_any(&mut self, ctx: &SimContext, tags: &[Tag]) -> (usize, Tag, MpiData) {
        assert!(!tags.is_empty(), "recv_any needs at least one tag");
        let env = self.take(ctx, |e| tags.contains(&e.tag));
        (env.src, env.tag, env.data)
    }

    /// The one receive loop: the oldest stashed message that `matches`,
    /// else mailbox messages in order, stashing those that do not match.
    fn take(&mut self, ctx: &SimContext, matches: impl Fn(&Envelope) -> bool) -> Envelope {
        if let Some(pos) = self.stash.iter().position(&matches) {
            return self.stash.remove(pos).expect("position is valid");
        }
        loop {
            let env = self.world.mailboxes[self.rank].recv(ctx);
            if matches(&env) {
                return env;
            }
            self.stash.push_back(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_simnet::topology::ClusterSpec;
    use shmcaffe_simnet::{SimDuration, Simulation};

    fn world(ranks: usize, nodes: usize) -> MpiWorld {
        MpiWorld::new(Fabric::new(ClusterSpec::paper_testbed(nodes)), ranks)
    }

    #[test]
    fn layout_follows_gpus_per_node() {
        let w = world(8, 2);
        assert_eq!(w.node_of(0), NodeId(0));
        assert_eq!(w.node_of(3), NodeId(0));
        assert_eq!(w.node_of(4), NodeId(1));
        assert_eq!(w.size(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversubscription_rejected() {
        world(9, 2);
    }

    #[test]
    fn send_recv_roundtrip() {
        let w = world(2, 1);
        let mut sim = Simulation::new();
        let c0 = w.comm(0);
        let mut c1 = w.comm(1);
        sim.spawn("r0", move |ctx| {
            c0.send(&ctx, 1, 7, MpiData::F32s(vec![1.0, 2.0]));
        });
        sim.spawn("r1", move |ctx| {
            let (src, data) = c1.recv_f32s(&ctx, Some(0), 7);
            assert_eq!(src, 0);
            assert_eq!(data, vec![1.0, 2.0]);
        });
        sim.run();
    }

    #[test]
    fn selective_recv_matches_by_tag() {
        let w = world(2, 1);
        let mut sim = Simulation::new();
        let c0 = w.comm(0);
        let mut c1 = w.comm(1);
        sim.spawn("r0", move |ctx| {
            c0.send(&ctx, 1, 1, MpiData::U64s(vec![11]));
            c0.send(&ctx, 1, 2, MpiData::U64s(vec![22]));
            c0.send(&ctx, 1, 1, MpiData::U64s(vec![12]));
        });
        sim.spawn("r1", move |ctx| {
            // Ask for tag 2 first: tag-1 messages must be stashed, not lost.
            let (_, d2) = c1.recv(&ctx, None, 2);
            assert_eq!(d2, MpiData::U64s(vec![22]));
            let (_, d1a) = c1.recv(&ctx, Some(0), 1);
            let (_, d1b) = c1.recv(&ctx, Some(0), 1);
            assert_eq!(d1a, MpiData::U64s(vec![11]), "tag-1 order preserved");
            assert_eq!(d1b, MpiData::U64s(vec![12]));
        });
        sim.run();
    }

    #[test]
    fn inter_node_send_charges_wire_time() {
        let w = world(8, 2);
        let fabric = w.fabric().clone();
        let mut sim = Simulation::new();
        let c0 = w.comm(0);
        let mut c4 = w.comm(4); // on node 1
        sim.spawn("r0", move |ctx| {
            // 70 MB across the 7 GB/s HCA: 10 ms.
            c0.send_wire(&ctx, 4, 0, MpiData::F32s(vec![0.0; 4]), 70_000_000);
            assert!((ctx.now().as_millis_f64() - 10.0).abs() < 0.1);
        });
        sim.spawn("r4", move |ctx| {
            let (_, _d) = c4.recv_f32s(&ctx, Some(0), 0);
            assert!(ctx.now().as_millis_f64() >= 10.0);
        });
        sim.run();
        assert_eq!(fabric.hca_tx(NodeId(0)).total_bytes(), 70_000_000);
    }

    #[test]
    fn same_node_send_uses_pcie() {
        let w = world(4, 1);
        let fabric = w.fabric().clone();
        let mut sim = Simulation::new();
        let c0 = w.comm(0);
        let mut c1 = w.comm(1);
        sim.spawn("r0", move |ctx| {
            c0.send_wire(&ctx, 1, 0, MpiData::F32s(vec![0.0]), 12_000_000);
        });
        sim.spawn("r1", move |ctx| {
            let _ = c1.recv_f32s(&ctx, None, 0);
        });
        sim.run();
        assert_eq!(fabric.pcie(NodeId(0)).total_bytes(), 12_000_000);
        assert_eq!(fabric.hca_tx(NodeId(0)).total_bytes(), 0);
    }

    #[test]
    fn self_send_is_free_and_delivered() {
        let w = world(1, 1);
        let mut sim = Simulation::new();
        let mut c0 = w.comm(0);
        sim.spawn("r0", move |ctx| {
            c0.send(&ctx, 0, 3, MpiData::U64s(vec![9]));
            let start = ctx.now();
            let (_, d) = c0.recv(&ctx, Some(0), 3);
            assert_eq!(d, MpiData::U64s(vec![9]));
            assert_eq!(ctx.now(), start);
        });
        sim.run();
    }

    #[test]
    fn recv_any_matches_first_of_tag_set() {
        let w = world(2, 1);
        let mut sim = Simulation::new();
        let c0 = w.comm(0);
        let mut c1 = w.comm(1);
        sim.spawn("r0", move |ctx| {
            c0.send(&ctx, 1, 5, MpiData::U64s(vec![5]));
            c0.send(&ctx, 1, 9, MpiData::U64s(vec![9]));
            c0.send(&ctx, 1, 7, MpiData::U64s(vec![7]));
        });
        sim.spawn("r1", move |ctx| {
            // Tag 5 is not in the set: it must be stashed, not consumed.
            let (src, tag, data) = c1.recv_any(&ctx, &[7, 9]);
            assert_eq!((src, tag), (0, 9));
            assert_eq!(data, MpiData::U64s(vec![9]));
            let (_, tag, _) = c1.recv_any(&ctx, &[7, 9]);
            assert_eq!(tag, 7);
            // The stashed tag-5 message is still retrievable.
            let (_, d) = c1.recv(&ctx, Some(0), 5);
            assert_eq!(d, MpiData::U64s(vec![5]));
        });
        sim.run();
    }

    #[test]
    fn message_order_from_one_sender_is_preserved() {
        let w = world(2, 1);
        let mut sim = Simulation::new();
        let c0 = w.comm(0);
        let mut c1 = w.comm(1);
        sim.spawn("r0", move |ctx| {
            for i in 0..10u64 {
                c0.send(&ctx, 1, 0, MpiData::U64s(vec![i]));
                ctx.sleep(SimDuration::from_micros(1));
            }
        });
        sim.spawn("r1", move |ctx| {
            for i in 0..10u64 {
                let (_, d) = c1.recv(&ctx, Some(0), 0);
                assert_eq!(d, MpiData::U64s(vec![i]));
            }
        });
        sim.run();
    }
}
