//! Collective operations over the point-to-point substrate.
//!
//! * `barrier` gathers to rank 0 and releases; `broadcast` uses a binomial
//!   tree rooted at the designated root (MVAPICH's small-message algorithm).
//! * `allreduce` uses the ring reduce-scatter + allgather algorithm MVAPICH
//!   selects for large messages — the cost model behind MPICaffe's
//!   `MPI_Allreduce` gradient aggregation: `2·(N−1)/N · P` bytes on every
//!   link. Chunks travel the ring by move: each step forwards the buffer
//!   it received instead of copying a fresh one.

use shmcaffe_simnet::SimContext;

use crate::world::{Comm, MpiData, Tag};

/// Internal tag space, above anything user code should use.
const TAG_BASE: Tag = 0xFFFF_0000;
const TAG_BARRIER_UP: Tag = TAG_BASE;
const TAG_BARRIER_DOWN: Tag = TAG_BASE + 1;
const TAG_BCAST: Tag = TAG_BASE + 2;
const TAG_RING_RS: Tag = TAG_BASE + 3;
const TAG_RING_AG: Tag = TAG_BASE + 4;

impl Comm {
    /// Blocks until every rank has entered the barrier (gather-to-0 then
    /// release, each message 8 wire bytes).
    pub fn barrier(&mut self, ctx: &SimContext) {
        let size = self.size();
        if size == 1 {
            return;
        }
        if self.rank() == 0 {
            for _ in 1..size {
                let _ = self.recv(ctx, None, TAG_BARRIER_UP);
            }
            for dst in 1..size {
                self.send(ctx, dst, TAG_BARRIER_DOWN, MpiData::U64s(vec![0]));
            }
        } else {
            self.send(ctx, 0, TAG_BARRIER_UP, MpiData::U64s(vec![0]));
            let _ = self.recv(ctx, Some(0), TAG_BARRIER_DOWN);
        }
    }

    /// Broadcasts `data` from `root` to all ranks over a binomial tree.
    /// Every rank returns the broadcast value.
    pub fn broadcast(&mut self, ctx: &SimContext, root: usize, data: Option<MpiData>) -> MpiData {
        let bytes = data.as_ref().map(|d| d.byte_len()).unwrap_or(0);
        self.broadcast_wire(ctx, root, data, bytes)
    }

    /// [`Comm::broadcast`] with an explicit wire size per hop.
    ///
    /// # Panics
    ///
    /// Panics if the caller is `root` but passed `None`, or vice versa.
    pub fn broadcast_wire(
        &mut self,
        ctx: &SimContext,
        root: usize,
        data: Option<MpiData>,
        wire_bytes: u64,
    ) -> MpiData {
        let size = self.size();
        // Work in a rotated rank space where the root is 0.
        let vrank = (self.rank() + size - root) % size;
        let value = if vrank == 0 {
            data.expect("root must supply the broadcast value")
        } else {
            assert!(data.is_none(), "non-root ranks must pass None");
            let (_, d) = self.recv(ctx, None, TAG_BCAST);
            d
        };
        // Binomial tree: after receiving, forward to vrank + 2^k children.
        let mut mask = 1usize;
        while mask < size {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 {
                let child = vrank | mask;
                if child < size {
                    let dst = (child + root) % size;
                    self.send_wire(ctx, dst, TAG_BCAST, value.clone(), wire_bytes);
                }
            }
            mask <<= 1;
        }
        value
    }

    /// Ring allreduce: returns the element-wise sum across all ranks.
    /// Each rank moves `2·(N−1)/N · bytes` over its links.
    pub fn allreduce(&mut self, ctx: &SimContext, data: Vec<f32>) -> Vec<f32> {
        let bytes = (data.len() * 4) as u64;
        self.allreduce_wire(ctx, data, bytes)
    }

    /// [`Comm::allreduce`] with an explicit total wire size (the logical
    /// size of the full vector; per-step chunks are `wire_bytes / N`).
    ///
    /// The ring forwards buffers instead of copying them. In the
    /// reduce-scatter, the chunk a rank sends at step s+1 is the one it
    /// reduced at step s, so it sums its own chunk into the *received*
    /// buffer (`d + v`, the order a sum into `data` would take) and sends
    /// that same buffer on. In the all-gather, each received buffer is
    /// copied into `data` and forwarded as the next step's payload. The
    /// one payload allocation per call is the copy of the rank's own
    /// first chunk; messages, their order and their wire sizes are those
    /// of a ring that copies every step.
    pub fn allreduce_wire(
        &mut self,
        ctx: &SimContext,
        mut data: Vec<f32>,
        wire_bytes: u64,
    ) -> Vec<f32> {
        let size = self.size();
        if size == 1 {
            return data;
        }
        let rank = self.rank();
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        let n = data.len();
        let chunk = |c: usize| c * n / size..(c + 1) * n / size;
        let chunk_wire = wire_bytes / size as u64;

        // Phase 1: reduce-scatter. Step s sends chunk rank − s and reduces
        // chunk rank − s − 1, which step s+1 sends on. After the last step
        // the payload is the full sum of chunk rank + 1.
        let mut payload = data[chunk(rank)].to_vec();
        for step in 0..size - 1 {
            self.send_wire(ctx, next, TAG_RING_RS, MpiData::F32s(payload), chunk_wire);
            let (_, mut incoming) = self.recv_f32s(ctx, Some(prev), TAG_RING_RS);
            let own = &data[chunk((rank + size - step - 1) % size)];
            assert_eq!(incoming.len(), own.len(), "ring chunk mismatch");
            #[allow(
                clippy::assign_op_pattern,
                reason = "`d + v` is the operand order of a sum into `data`: NaN payloads match too"
            )]
            for (v, d) in incoming.iter_mut().zip(own) {
                *v = *d + *v;
            }
            payload = incoming;
        }
        data[chunk((rank + 1) % size)].copy_from_slice(&payload);
        // Phase 2: all-gather. Step s sends chunk rank + 1 − s and receives
        // chunk rank − s, which step s+1 sends on.
        for step in 0..size - 1 {
            self.send_wire(ctx, next, TAG_RING_AG, MpiData::F32s(payload), chunk_wire);
            let (_, incoming) = self.recv_f32s(ctx, Some(prev), TAG_RING_AG);
            data[chunk((rank + size - step) % size)].copy_from_slice(&incoming);
            payload = incoming;
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MpiWorld;
    use parking_lot::Mutex;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
    use shmcaffe_simnet::Simulation;
    use std::sync::Arc;

    fn run_collective<F>(ranks: usize, nodes: usize, f: F) -> Vec<Vec<f32>>
    where
        F: Fn(&SimContext, &mut Comm) -> Vec<f32> + Send + Sync + 'static,
    {
        let world = MpiWorld::new(Fabric::new(ClusterSpec::paper_testbed(nodes)), ranks);
        let results: Arc<Mutex<Vec<Vec<f32>>>> = Arc::new(Mutex::new(vec![Vec::new(); ranks]));
        let f = Arc::new(f);
        let mut sim = Simulation::new();
        for rank in 0..ranks {
            let mut comm = world.comm(rank);
            let results = Arc::clone(&results);
            let f = Arc::clone(&f);
            sim.spawn(&format!("rank{rank}"), move |ctx| {
                let out = f(&ctx, &mut comm);
                results.lock()[rank] = out;
            });
        }
        sim.run();
        let out = results.lock().clone();
        out
    }

    #[test]
    fn barrier_synchronizes() {
        for ranks in [1, 2, 5, 8] {
            run_collective(ranks, 2, |ctx, comm| {
                // Stagger arrival; everyone must leave after the latest.
                ctx.sleep(shmcaffe_simnet::SimDuration::from_millis(comm.rank() as u64 * 5));
                comm.barrier(ctx);
                let leave_ms = ctx.now().as_millis_f64();
                assert!(leave_ms >= (comm.size() - 1) as f64 * 5.0, "left too early: {leave_ms}");
                vec![]
            });
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for ranks in [2, 3, 8] {
            for root in 0..ranks {
                let got = run_collective(ranks, 2, move |ctx, comm| {
                    let data = (comm.rank() == root).then(|| MpiData::F32s(vec![3.5, -1.0]));
                    comm.broadcast(ctx, root, data).into_f32s()
                });
                for r in got {
                    assert_eq!(r, vec![3.5, -1.0]);
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_sequential_sum() {
        for ranks in [1, 2, 3, 4, 7, 8] {
            let n = 23; // deliberately not divisible by ranks
            let got = run_collective(ranks, 2, move |ctx, comm| {
                let mine: Vec<f32> = (0..n).map(|i| (comm.rank() * n + i) as f32 * 0.5).collect();
                comm.allreduce(ctx, mine)
            });
            let mut expected = vec![0.0f32; n];
            for r in 0..ranks {
                for (i, e) in expected.iter_mut().enumerate() {
                    *e += (r * n + i) as f32 * 0.5;
                }
            }
            for r in &got {
                for (a, b) in r.iter().zip(expected.iter()) {
                    assert!((a - b).abs() < 1e-3, "ranks={ranks}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn allreduce_wire_time_scales_with_logical_size() {
        // 4 ranks on 4 different nodes, logical 280 MB: ring moves
        // 2*(N-1)/N * 280 MB = 420 MB per HCA at 7 GB/s => ~60 ms elapsed.
        let world = MpiWorld::with_layout(
            Fabric::new(ClusterSpec::paper_testbed(4)),
            (0..4).map(shmcaffe_simnet::topology::NodeId).collect(),
        );
        let mut sim = Simulation::new();
        for rank in 0..4 {
            let mut comm = world.comm(rank);
            sim.spawn(&format!("r{rank}"), move |ctx| {
                let out = comm.allreduce_wire(&ctx, vec![1.0; 16], 280_000_000);
                assert_eq!(out, vec![4.0; 16]);
            });
        }
        let end = sim.run();
        let ms = end.as_millis_f64();
        assert!(ms > 50.0 && ms < 80.0, "elapsed {ms} ms");
    }
}
