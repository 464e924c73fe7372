//! Shared training-progress board (paper §III-E).
//!
//! "ShmCaffe workers share training progress information (∀Iter, Iter_x)
//! through the SMB shared memory buffer (control info)". Each worker owns
//! one slot of the control-info segment holding its completed-iteration
//! count and a done flag; any worker can snapshot the whole board to apply
//! a termination-alignment policy.
//!
//! The board is an ordinary segment written and read by the plain range
//! ops: each slot store bumps its version, so a standby's replication
//! passes mirror it like any other segment, and a publish or snapshot
//! that lands on a poisoned page repairs it once like every plain op.
//! Slot stores skip epoch admission, so a rank's progress still lands on
//! a primary isolated by a partition.

use shmcaffe_simnet::SimContext;

use crate::{ShmKey, SmbBuffer, SmbClient, SmbError};

/// Fields per worker slot: `[iterations, done_flag]`.
const SLOT_FIELDS: usize = 2;

/// One worker's progress as read from the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProgress {
    /// Completed training iterations.
    pub iterations: u64,
    /// Whether the worker has finished training.
    pub done: bool,
}

/// A snapshot of every worker's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Per-worker progress, indexed by rank.
    pub workers: Vec<WorkerProgress>,
}

impl ProgressSnapshot {
    /// Mean completed iterations across workers.
    pub fn mean_iterations(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(|w| w.iterations as f64).sum::<f64>() / self.workers.len() as f64
    }

    /// Whether any worker has finished.
    pub fn any_done(&self) -> bool {
        self.workers.iter().any(|w| w.done)
    }

    /// Whether a specific worker has finished.
    pub fn is_done(&self, rank: usize) -> bool {
        self.workers.get(rank).is_some_and(|w| w.done)
    }
}

/// The control-info region: `n_workers` slots in one SMB segment.
///
/// # Example
///
/// See `shmcaffe::termination` for the policies built on this board.
#[derive(Debug, Clone)]
pub struct ProgressBoard {
    buf: SmbBuffer,
    n_workers: usize,
}

impl ProgressBoard {
    /// Creates the control-info segment (master side) and returns the board
    /// plus the SHM key to broadcast.
    ///
    /// # Errors
    ///
    /// Propagates SMB errors.
    pub fn create(
        client: &SmbClient,
        ctx: &SimContext,
        name: &str,
        n_workers: usize,
    ) -> Result<(Self, ShmKey), SmbError> {
        let key = client.create(ctx, name, n_workers * SLOT_FIELDS, None)?;
        let buf = client.alloc(ctx, key)?;
        Ok((ProgressBoard { buf, n_workers }, key))
    }

    /// Attaches to an existing control-info segment from a broadcast key.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] if the segment does not hold
    /// exactly `n_workers` slots.
    pub fn attach(
        client: &SmbClient,
        ctx: &SimContext,
        key: ShmKey,
        n_workers: usize,
    ) -> Result<Self, SmbError> {
        let buf = client.alloc(ctx, key)?;
        if buf.len() != n_workers * SLOT_FIELDS {
            return Err(SmbError::SizeMismatch {
                key,
                expected: n_workers * SLOT_FIELDS,
                got: buf.len(),
            });
        }
        Ok(ProgressBoard { buf, n_workers })
    }

    /// Number of worker slots.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Publishes this worker's progress into its slot.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] for a rank without a slot (the
    /// range check of [`SmbClient::write_range`]); propagates other SMB
    /// errors.
    pub fn publish(
        &self,
        client: &SmbClient,
        ctx: &SimContext,
        rank: usize,
        iterations: u64,
        done: bool,
    ) -> Result<(), SmbError> {
        let slot = [iterations as f32, if done { 1.0 } else { 0.0 }];
        let offset = rank.saturating_mul(SLOT_FIELDS);
        client.write_range(ctx, &self.buf, offset, &slot)
    }

    /// Reads the whole board.
    ///
    /// # Errors
    ///
    /// Propagates SMB errors.
    pub fn snapshot(
        &self,
        client: &SmbClient,
        ctx: &SimContext,
    ) -> Result<ProgressSnapshot, SmbError> {
        let mut raw = vec![0.0f32; self.n_workers * SLOT_FIELDS];
        client.read_range(ctx, &self.buf, 0, &mut raw)?;
        let workers = raw
            .chunks_exact(SLOT_FIELDS)
            .map(|slot| WorkerProgress { iterations: slot[0] as u64, done: slot[1] > 0.5 })
            .collect();
        Ok(ProgressSnapshot { workers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmbServer;
    use shmcaffe_rdma::RdmaFabric;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
    use shmcaffe_simnet::Simulation;

    #[test]
    fn publish_and_snapshot_roundtrip() {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let server = SmbServer::new(rdma).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(server, NodeId(0));
            let (board, _key) = ProgressBoard::create(&client, &ctx, "ctrl", 3).unwrap();
            board.publish(&client, &ctx, 0, 100, false).unwrap();
            board.publish(&client, &ctx, 1, 250, false).unwrap();
            board.publish(&client, &ctx, 2, 50, true).unwrap();
            let snap = board.snapshot(&client, &ctx).unwrap();
            assert_eq!(snap.workers[0], WorkerProgress { iterations: 100, done: false });
            assert_eq!(snap.workers[1], WorkerProgress { iterations: 250, done: false });
            assert_eq!(snap.workers[2], WorkerProgress { iterations: 50, done: true });
            assert!((snap.mean_iterations() - 400.0 / 3.0).abs() < 1e-9);
            assert!(snap.any_done());
            assert!(snap.is_done(2) && !snap.is_done(0));
        });
        sim.run();
    }

    #[test]
    fn attach_checks_size() {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let server = SmbServer::new(rdma).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(server, NodeId(0));
            let (_board, key) = ProgressBoard::create(&client, &ctx, "ctrl", 4).unwrap();
            assert!(ProgressBoard::attach(&client, &ctx, key, 4).is_ok());
            assert!(matches!(
                ProgressBoard::attach(&client, &ctx, key, 5),
                Err(SmbError::SizeMismatch { .. })
            ));
        });
        sim.run();
    }

    #[test]
    fn publish_rejects_a_rank_without_a_slot() {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let server = SmbServer::new(rdma).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(server, NodeId(0));
            let (board, key) = ProgressBoard::create(&client, &ctx, "ctrl", 3).unwrap();
            for rank in 0..3 {
                board.publish(&client, &ctx, rank, 10 + rank as u64, rank == 1).unwrap();
            }
            let before = board.snapshot(&client, &ctx).unwrap();
            for rank in [3, usize::MAX] {
                match board.publish(&client, &ctx, rank, 99, true) {
                    Err(SmbError::SizeMismatch { key: k, expected: 6, .. }) => assert_eq!(k, key),
                    other => panic!("rank {rank}: {other:?}"),
                }
            }
            assert_eq!(board.snapshot(&client, &ctx).unwrap(), before);
        });
        sim.run();
    }

    /// Slot stores version the board like every write, so each
    /// replication pass re-ships it: the promoted standby holds the board
    /// as of the last pass, not the first.
    #[test]
    fn the_promoted_standby_holds_the_last_passs_board() {
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let rdma = RdmaFabric::new(Fabric::new(spec));
        let pair = crate::SmbPair::new(rdma, crate::SmbServerConfig::default()).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::with_failover(pair.clone(), NodeId(0));
            let (board, _key) = ProgressBoard::create(&client, &ctx, "ctrl", 2).unwrap();
            board.publish(&client, &ctx, 0, 4, false).unwrap();
            board.publish(&client, &ctx, 1, 4, false).unwrap();
            pair.replicate(&ctx).unwrap();
            board.publish(&client, &ctx, 0, 8, true).unwrap();
            board.publish(&client, &ctx, 1, 6, false).unwrap();
            pair.replicate(&ctx).unwrap();
            let second_pass = board.snapshot(&client, &ctx).unwrap();
            assert!(pair.promote(&ctx));
            assert_eq!(board.snapshot(&client, &ctx).unwrap(), second_pass);
            assert!(second_pass.is_done(0) && second_pass.workers[1].iterations == 6);
        });
        sim.run();
    }

    #[test]
    fn two_workers_see_each_other() {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(2)));
        let server = SmbServer::new(rdma).unwrap();
        let key_ch = shmcaffe_simnet::channel::SimChannel::<ShmKey>::new("key");
        let mut sim = Simulation::new();
        {
            let server = server.clone();
            let key_ch = key_ch.clone();
            sim.spawn("master", move |ctx| {
                let client = SmbClient::new(server, NodeId(0));
                let (board, key) = ProgressBoard::create(&client, &ctx, "ctrl", 2).unwrap();
                key_ch.send(&ctx, key);
                board.publish(&client, &ctx, 0, 10, false).unwrap();
                ctx.sleep(shmcaffe_simnet::SimDuration::from_millis(10));
                let snap = board.snapshot(&client, &ctx).unwrap();
                assert_eq!(snap.workers[1].iterations, 77);
            });
        }
        {
            let server = server.clone();
            sim.spawn("slave", move |ctx| {
                let client = SmbClient::new(server, NodeId(1));
                let key = key_ch.recv(&ctx);
                let board = ProgressBoard::attach(&client, &ctx, key, 2).unwrap();
                board.publish(&client, &ctx, 1, 77, false).unwrap();
            });
        }
        sim.run();
    }
}
