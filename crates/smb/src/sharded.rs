//! Multiple SMB servers — the paper's stated future work (§V: "we have a
//! plan to improve the performance of the SMB framework by using multiple
//! SMB servers").
//!
//! An [`SmbCluster`] is only the deployment handle: one server per
//! memory-server endpoint plus the shard [`SmbCluster::bounds`] of a
//! parameter vector. There is no sharded client or buffer type: a worker
//! shards by opening one ordinary [`crate::SmbClient`] (a
//! [`crate::SmbClient::with_failover`] one included) and one buffer pair per
//! server and handing them to the exchanger as lanes
//! (`shmcaffe::seasgd::ElasticExchanger::spawn_sharded`), so every shard
//! runs the one op pipeline — gate, admit, verify, repair, retry,
//! fail-over — and both the single-stream pacing limit and the per-server
//! memory-bus bottleneck divide by the server count.

use shmcaffe_rdma::RdmaFabric;

use crate::{SmbError, SmbServer, SmbServerConfig};

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

    /// Shard boundaries of a `total`-element vector: shard `i` covers
    /// `bounds[i]..bounds[i + 1]`, contiguous and near-equal.
    pub fn bounds(&self, total: usize) -> Vec<usize> {
        let parts = self.servers.len();
        (0..=parts).map(|i| i * total / parts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric};

    fn cluster(nodes: usize, servers: usize) -> SmbCluster {
        let spec = ClusterSpec { memory_servers: servers, ..ClusterSpec::paper_testbed(nodes) };
        SmbCluster::new(RdmaFabric::new(Fabric::new(spec))).unwrap()
    }

    #[test]
    fn split_bounds_partitions() {
        assert_eq!(cluster(1, 3).bounds(10), vec![0, 3, 6, 10]);
        assert_eq!(cluster(1, 4).bounds(8), vec![0, 2, 4, 6, 8]);
        assert_eq!(cluster(1, 2).bounds(0), vec![0, 0, 0]);
    }

    #[test]
    fn cluster_requires_memory_servers() {
        let spec = ClusterSpec { memory_servers: 0, ..ClusterSpec::paper_testbed(1) };
        assert!(matches!(
            SmbCluster::new(RdmaFabric::new(Fabric::new(spec))),
            Err(SmbError::NoMemoryServer)
        ));
    }
}
