//! Multiple SMB servers with sharded parameter buffers — the paper's
//! stated future work (§V: "we have a plan to improve the performance of
//! the SMB framework by using multiple SMB servers").
//!
//! A [`ShardedBuffer`] splits one logical parameter vector into contiguous
//! shards, one per memory server. A worker's read/write/accumulate fans
//! out to all shards *concurrently* (each shard op runs in a helper
//! process), so both the single-stream pacing limit and the per-server
//! memory-bus bottleneck divide by the server count.

use std::sync::Arc;

use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::topology::NodeId;
use shmcaffe_simnet::SimContext;

use crate::{ShmKey, SmbBuffer, SmbClient, SmbError, SmbServer, SmbServerConfig};

/// A group of SMB servers, one per memory-server endpoint on the fabric.
#[derive(Debug, Clone)]
pub struct SmbCluster {
    servers: Vec<SmbServer>,
}

impl SmbCluster {
    /// Creates one server per memory-server endpoint with default config.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] if the fabric has none.
    pub fn new(rdma: RdmaFabric) -> Result<Self, SmbError> {
        Self::with_config(rdma, SmbServerConfig::default())
    }

    /// Creates one server per memory-server endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] if the fabric has none.
    pub fn with_config(rdma: RdmaFabric, config: SmbServerConfig) -> Result<Self, SmbError> {
        let count = rdma.fabric().memory_server_count();
        if count == 0 {
            return Err(SmbError::NoMemoryServer);
        }
        let servers = (0..count)
            .map(|i| SmbServer::with_config_at(rdma.clone(), config, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SmbCluster { servers })
    }

    /// Number of servers (shards).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster is empty (never true for a constructed cluster).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The individual servers.
    pub fn servers(&self) -> &[SmbServer] {
        &self.servers
    }
}

/// Keys of a sharded segment, one per server, in shard order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedKey(pub Vec<ShmKey>);

/// An allocated sharded buffer: per-shard SMB buffers plus the shard
/// boundaries of the logical vector.
#[derive(Debug, Clone)]
pub struct ShardedBuffer {
    shards: Vec<SmbBuffer>,
    /// Element offsets: shard `i` covers `bounds[i]..bounds[i+1]`.
    bounds: Vec<usize>,
}

impl ShardedBuffer {
    /// Total logical length in elements.
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("bounds non-empty")
    }

    /// Whether the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Splits `total` into `parts` contiguous near-equal ranges.
fn split_bounds(total: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|i| i * total / parts).collect()
}

/// A worker-side handle fanning operations out over an [`SmbCluster`].
#[derive(Debug, Clone)]
pub struct ShardedClient {
    clients: Vec<SmbClient>,
}

impl ShardedClient {
    /// Binds a client on `local` to every server of the cluster.
    pub fn new(cluster: &SmbCluster, local: NodeId) -> Self {
        ShardedClient {
            clients: cluster.servers().iter().map(|s| SmbClient::new(s.clone(), local)).collect(),
        }
    }

    /// Number of shards this client fans out to.
    pub fn shard_count(&self) -> usize {
        self.clients.len()
    }

    /// Creates a sharded segment of `elems` elements named `name` (each
    /// shard gets `name.shard<k>` on its server); `wire_bytes` is the
    /// logical size of the *whole* vector and is split proportionally.
    ///
    /// # Errors
    ///
    /// Propagates per-shard SMB errors.
    pub fn create(
        &self,
        ctx: &SimContext,
        name: &str,
        elems: usize,
        wire_bytes: Option<u64>,
    ) -> Result<ShardedKey, SmbError> {
        let parts = self.clients.len();
        let bounds = split_bounds(elems, parts);
        let mut keys = Vec::with_capacity(parts);
        for (k, client) in self.clients.iter().enumerate() {
            let shard_elems = bounds[k + 1] - bounds[k];
            let shard_wire = wire_bytes
                .map(|w| (w as f64 * shard_elems as f64 / elems.max(1) as f64).round() as u64);
            keys.push(client.create(ctx, &format!("{name}.shard{k}"), shard_elems, shard_wire)?);
        }
        Ok(ShardedKey(keys))
    }

    /// Allocates every shard of a broadcast [`ShardedKey`].
    ///
    /// # Errors
    ///
    /// Propagates per-shard SMB errors.
    pub fn alloc(&self, ctx: &SimContext, key: &ShardedKey) -> Result<ShardedBuffer, SmbError> {
        assert_eq!(key.0.len(), self.clients.len(), "key shard count mismatch");
        let mut shards = Vec::with_capacity(key.0.len());
        for (client, &k) in self.clients.iter().zip(key.0.iter()) {
            shards.push(client.alloc(ctx, k)?);
        }
        let mut bounds = vec![0usize];
        for s in &shards {
            bounds.push(bounds.last().unwrap() + s.len());
        }
        Ok(ShardedBuffer { shards, bounds })
    }

    /// Runs one closure per shard concurrently (each in a helper process)
    /// and waits for all of them; the whole fan-out completes when the
    /// slowest shard op completes, exactly like a multi-QP RDMA engine.
    fn fan_out<T, F>(
        &self,
        ctx: &SimContext,
        buf: &ShardedBuffer,
        op: F,
    ) -> Result<Vec<T>, SmbError>
    where
        T: Send + 'static,
        F: Fn(&SimContext, &SmbClient, &SmbBuffer, usize) -> Result<T, SmbError>
            + Send
            + Sync
            + 'static,
    {
        let parts = buf.shards.len();
        let done: SimChannel<(usize, Result<T, SmbError>)> = SimChannel::new("shard_fanout");
        let op = Arc::new(op);
        for k in 1..parts {
            let client = self.clients[k].clone();
            let shard = buf.shards[k];
            let done = done.clone();
            let op = Arc::clone(&op);
            ctx.spawn(&format!("shard_op_{k}"), move |cctx| {
                let result = op(&cctx, &client, &shard, k);
                done.send(&cctx, (k, result));
            });
        }
        // Shard 0 runs on the calling process.
        let first = op(ctx, &self.clients[0], &buf.shards[0], 0);
        let mut results: Vec<Option<Result<T, SmbError>>> = (0..parts).map(|_| None).collect();
        results[0] = Some(first);
        for _ in 1..parts {
            let (k, r) = done.recv(ctx);
            results[k] = Some(r);
        }
        results.into_iter().map(|r| r.expect("every shard reported")).collect()
    }

    /// Reads the whole logical vector, all shards concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] or per-shard errors.
    pub fn read(
        &self,
        ctx: &SimContext,
        buf: &ShardedBuffer,
        out: &mut [f32],
    ) -> Result<(), SmbError> {
        if out.len() != buf.len() {
            return Err(SmbError::SizeMismatch {
                key: buf.shards[0].key,
                expected: buf.len(),
                got: out.len(),
            });
        }
        let chunks = self.fan_out(ctx, buf, |cctx, client, shard, _k| {
            let mut chunk = vec![0.0f32; shard.len()];
            client.read(cctx, shard, &mut chunk)?;
            Ok(chunk)
        })?;
        for (k, chunk) in chunks.into_iter().enumerate() {
            out[buf.bounds[k]..buf.bounds[k + 1]].copy_from_slice(&chunk);
        }
        Ok(())
    }

    /// Writes the whole logical vector, all shards concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] or per-shard errors.
    pub fn write(
        &self,
        ctx: &SimContext,
        buf: &ShardedBuffer,
        data: &[f32],
    ) -> Result<(), SmbError> {
        if data.len() != buf.len() {
            return Err(SmbError::SizeMismatch {
                key: buf.shards[0].key,
                expected: buf.len(),
                got: data.len(),
            });
        }
        // Clone the shard slices up front so the helper closures own them.
        let slices: Vec<Vec<f32>> = (0..buf.shards.len())
            .map(|k| data[buf.bounds[k]..buf.bounds[k + 1]].to_vec())
            .collect();
        let slices = Arc::new(slices);
        let s2 = Arc::clone(&slices);
        self.fan_out(ctx, buf, move |cctx, client, shard, k| client.write(cctx, shard, &s2[k]))?;
        Ok(())
    }

    /// Server-side accumulate `dst += src`, shard by shard, concurrently.
    ///
    /// Shard-level concurrency is simulated time (each shard lives on its
    /// own server, so their DRAM-bus charges overlap); within a shard the
    /// server's data-plane add additionally runs element chunks on the
    /// tensor worker pool. Both levels preserve exclusive-accumulate
    /// semantics: shards are disjoint, and the in-shard split uses fixed
    /// chunk boundaries, so the result is thread-count invariant.
    ///
    /// # Errors
    ///
    /// Returns length-mismatch or per-shard errors.
    pub fn accumulate(
        &self,
        ctx: &SimContext,
        src: &ShardedBuffer,
        dst: &ShardedBuffer,
    ) -> Result<(), SmbError> {
        if src.len() != dst.len() || src.shard_count() != dst.shard_count() {
            return Err(SmbError::LengthMismatch {
                src: src.len(),
                dst: dst.len(),
                key: dst.shards[0].key,
            });
        }
        let src_shards: Arc<Vec<SmbBuffer>> = Arc::new(src.shards.clone());
        self.fan_out(ctx, dst, move |cctx, client, dst_shard, k| {
            client.accumulate(cctx, &src_shards[k], dst_shard).map(|_| ())
        })?;
        Ok(())
    }

    /// Frees every shard.
    ///
    /// # Errors
    ///
    /// Propagates per-shard errors.
    pub fn free(&self, ctx: &SimContext, buf: ShardedBuffer) -> Result<(), SmbError> {
        for (client, shard) in self.clients.iter().zip(buf.shards) {
            client.free(ctx, shard)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
    use shmcaffe_simnet::Simulation;

    fn cluster(nodes: usize, servers: usize) -> SmbCluster {
        let spec = ClusterSpec { memory_servers: servers, ..ClusterSpec::paper_testbed(nodes) };
        SmbCluster::new(RdmaFabric::new(Fabric::new(spec))).unwrap()
    }

    #[test]
    fn split_bounds_partitions() {
        assert_eq!(split_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(split_bounds(8, 4), vec![0, 2, 4, 6, 8]);
        assert_eq!(split_bounds(0, 2), vec![0, 0, 0]);
    }

    #[test]
    fn cluster_requires_memory_servers() {
        let spec = ClusterSpec { memory_servers: 0, ..ClusterSpec::paper_testbed(1) };
        assert!(matches!(
            SmbCluster::new(RdmaFabric::new(Fabric::new(spec))),
            Err(SmbError::NoMemoryServer)
        ));
    }

    #[test]
    fn sharded_roundtrip_preserves_data() {
        let cl = cluster(1, 3);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = ShardedClient::new(&cl, NodeId(0));
            assert_eq!(client.shard_count(), 3);
            let key = client.create(&ctx, "wg", 100, Some(1_000_000)).unwrap();
            let buf = client.alloc(&ctx, &key).unwrap();
            assert_eq!(buf.len(), 100);
            let data: Vec<f32> = (0..100).map(|v| v as f32 * 0.5).collect();
            client.write(&ctx, &buf, &data).unwrap();
            let mut out = vec![0.0f32; 100];
            client.read(&ctx, &buf, &mut out).unwrap();
            assert_eq!(out, data);
            client.free(&ctx, buf).unwrap();
        });
        sim.run();
    }

    #[test]
    fn sharded_accumulate_adds() {
        let cl = cluster(1, 2);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = ShardedClient::new(&cl, NodeId(0));
            let wg = client.alloc(&ctx, &client.create(&ctx, "wg", 64, None).unwrap()).unwrap();
            let dw = client.alloc(&ctx, &client.create(&ctx, "dw", 64, None).unwrap()).unwrap();
            client.write(&ctx, &wg, &vec![1.0; 64]).unwrap();
            client.write(&ctx, &dw, &vec![0.25; 64]).unwrap();
            client.accumulate(&ctx, &dw, &wg).unwrap();
            client.accumulate(&ctx, &dw, &wg).unwrap();
            let mut out = vec![0.0f32; 64];
            client.read(&ctx, &wg, &mut out).unwrap();
            assert!(out.iter().all(|&v| (v - 1.5).abs() < 1e-6));
        });
        sim.run();
    }

    #[test]
    fn two_servers_double_unloaded_read_bandwidth() {
        // One worker reading a 300 MB logical buffer: the single-stream
        // pacing applies per shard, so K servers cut the read time ~K-fold.
        let time_with = |servers: usize| -> f64 {
            let cl = cluster(1, servers);
            let mut sim = Simulation::new();
            sim.spawn("w", move |ctx| {
                let client = ShardedClient::new(&cl, NodeId(0));
                let key = client.create(&ctx, "wg", 256, Some(300_000_000)).unwrap();
                let buf = client.alloc(&ctx, &key).unwrap();
                let mut out = vec![0.0f32; 256];
                let t0 = ctx.now();
                client.read(&ctx, &buf, &mut out).unwrap();
                let _ = t0;
            });
            sim.run().as_millis_f64()
        };
        let one = time_with(1);
        let two = time_with(2);
        let four = time_with(4);
        assert!(two < one * 0.6, "2 servers: {two} vs {one}");
        assert!(four < two * 0.7, "4 servers: {four} vs {two}");
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let cl = cluster(1, 2);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = ShardedClient::new(&cl, NodeId(0));
            let buf = client.alloc(&ctx, &client.create(&ctx, "b", 10, None).unwrap()).unwrap();
            let mut small = vec![0.0f32; 5];
            assert!(matches!(
                client.read(&ctx, &buf, &mut small),
                Err(SmbError::SizeMismatch { .. })
            ));
        });
        sim.run();
    }
}
