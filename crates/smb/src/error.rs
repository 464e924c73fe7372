use std::fmt;

use shmcaffe_rdma::RdmaError;
use shmcaffe_simnet::fault::FaultError;
use shmcaffe_simnet::topology::NodeId;
use shmcaffe_simnet::SimDuration;

use crate::server::ShmKey;

/// Errors produced by SMB operations. Every variant names the segment key
/// and/or node involved, so a fault report can say *which* buffer on
/// *which* server failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmbError {
    /// The SHM key does not name a live segment.
    UnknownKey {
        /// The dead key.
        key: ShmKey,
        /// The server node the segment was expected on.
        node: NodeId,
    },
    /// A buffer name was created twice.
    DuplicateName {
        /// The colliding name.
        name: String,
        /// The server node holding the original.
        node: NodeId,
    },
    /// Source and destination of an accumulate differ in length.
    LengthMismatch {
        /// Source segment length (elements).
        src: usize,
        /// Destination segment length (elements).
        dst: usize,
        /// The destination segment's key.
        key: ShmKey,
    },
    /// The client buffer length does not match the caller's slice.
    SizeMismatch {
        /// The segment being accessed.
        key: ShmKey,
        /// Segment length (elements).
        expected: usize,
        /// Slice length provided by the caller.
        got: usize,
    },
    /// No memory server exists on this fabric.
    NoMemoryServer,
    /// The segment's owner lease expired and the server evicted it.
    LeaseExpired {
        /// The evicted segment.
        key: ShmKey,
        /// The owner rank whose heartbeat lapsed.
        owner: usize,
        /// The server node that evicted it.
        node: NodeId,
    },
    /// The operation kept failing until the retry deadline was exhausted.
    Timeout {
        /// The segment being accessed.
        key: ShmKey,
        /// The server node being reached.
        node: NodeId,
        /// Total virtual time spent across all attempts.
        waited: SimDuration,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A single attempt failed with a fabric fault (the retry layer
    /// surfaces this when it judges the error non-retriable).
    Unavailable {
        /// The segment being accessed.
        key: ShmKey,
        /// The server node being reached.
        node: NodeId,
        /// The fabric's fault, as the fault plan raised it.
        fault: FaultError,
    },
    /// The mutation carried a stale fencing epoch: a newer primary has
    /// been promoted since this client last refreshed its epoch, so the
    /// write was rejected before touching segment state.
    FencedEpoch {
        /// The segment the rejected mutation targeted.
        key: ShmKey,
        /// The server node that rejected it.
        node: NodeId,
        /// The epoch the client believed was active.
        carried: u64,
        /// The epoch actually active on the pair.
        active: u64,
    },
    /// A CRC-guarded page failed verification: the server poisoned the
    /// page instead of serving its bytes. Transient — a replicated
    /// deployment repairs the page from the standby's copy and retries.
    Corrupted {
        /// The segment holding the bad page.
        key: ShmKey,
        /// The server node whose copy failed the check.
        node: NodeId,
        /// Index of the failing page in the segment's page grid.
        page: usize,
    },
    /// The end-to-end wire checksum over a transfer's payload did not
    /// match: the payload was damaged in flight. Nothing landed (writes
    /// are rejected server-side; reads discard the buffer), so a plain
    /// retry re-sends over the wire.
    CorruptedWire {
        /// The segment being transferred.
        key: ShmKey,
        /// The server node at the far end of the transfer.
        node: NodeId,
    },
    /// A poisoned page could not be repaired: the standby's copy is also
    /// bad, or the deployment has no standby at all. Permanent — the data
    /// is gone and no retry can bring it back.
    Unrepairable {
        /// The segment holding the lost page.
        key: ShmKey,
        /// The server node whose page is lost.
        node: NodeId,
        /// Index of the lost page in the segment's page grid.
        page: usize,
    },
    /// The accumulate's source range is not the one this client wrote, so
    /// the fold is refused before it lands: a retrying accumulate failed
    /// over to the promoted member part-way (the range there is the
    /// standby's replicated copy), or a source page was poisoned (its
    /// repair would install the other member's older copy). Permanent for
    /// this op — the caller re-writes the source on the member that serves
    /// now and folds again.
    SourceMoved {
        /// The accumulate's source segment.
        key: ShmKey,
    },
    /// An underlying RDMA failure outside any retry context.
    Rdma(RdmaError),
}

impl fmt::Display for SmbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmbError::UnknownKey { key, node } => {
                write!(f, "unknown SHM key {key} on {node}")
            }
            SmbError::DuplicateName { name, node } => {
                write!(f, "buffer name already exists on {node}: {name}")
            }
            SmbError::LengthMismatch { src, dst, key } => {
                write!(f, "accumulate length mismatch into {key}: src {src} vs dst {dst}")
            }
            SmbError::SizeMismatch { key, expected, got } => {
                write!(f, "buffer {key} has {expected} elements but caller passed {got}")
            }
            SmbError::NoMemoryServer => write!(f, "fabric has no memory server endpoint"),
            SmbError::LeaseExpired { key, owner, node } => {
                write!(f, "lease on {key} (owner rank {owner}) expired; evicted by {node}")
            }
            SmbError::Timeout { key, node, waited, attempts } => {
                write!(f, "op on {key} at {node} timed out after {attempts} attempts ({waited})")
            }
            SmbError::Unavailable { key, node, fault } => {
                write!(f, "{node} unavailable for {key}: {fault}")
            }
            SmbError::FencedEpoch { key, node, carried, active } => {
                write!(
                    f,
                    "write to {key} at {node} fenced: carried epoch {carried}, active {active}"
                )
            }
            SmbError::Corrupted { key, node, page } => {
                write!(f, "page {page} of {key} on {node} failed CRC verification (poisoned)")
            }
            SmbError::CorruptedWire { key, node } => {
                write!(f, "wire checksum mismatch transferring {key} to/from {node}")
            }
            SmbError::Unrepairable { key, node, page } => {
                write!(f, "page {page} of {key} on {node} is unrepairable: no clean replica")
            }
            SmbError::SourceMoved { key } => {
                write!(f, "accumulate source {key} was written before a fail-over")
            }
            SmbError::Rdma(e) => write!(f, "rdma error: {e}"),
        }
    }
}

impl std::error::Error for SmbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmbError::Rdma(e) => Some(e),
            SmbError::Unavailable { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

impl From<RdmaError> for SmbError {
    fn from(e: RdmaError) -> Self {
        SmbError::Rdma(e)
    }
}

impl SmbError {
    /// Whether the retry layer should try the operation again: transport
    /// faults and timeouts are transient, protocol errors are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SmbError::Timeout { .. }
                | SmbError::Unavailable { .. }
                | SmbError::FencedEpoch { .. }
                | SmbError::Corrupted { .. }
                | SmbError::CorruptedWire { .. }
        )
    }

    /// Whether this error means the server endpoint itself has permanently
    /// crashed (as opposed to a transient fault). Retrying against the
    /// same endpoint can never succeed; a replicated client fails over to
    /// the standby instead (see [`crate::SmbPair`]).
    pub fn is_server_crash(&self) -> bool {
        matches!(self, SmbError::Unavailable { fault: FaultError::NodeCrashed { .. }, .. })
    }

    /// Whether this error is a fencing rejection: the client's epoch is
    /// stale and it must refresh against the promoted primary before the
    /// mutation can be retried.
    pub fn is_fenced(&self) -> bool {
        matches!(self, SmbError::FencedEpoch { .. })
    }

    /// Whether this error reports detected data corruption — a poisoned
    /// page, a wire checksum mismatch, or an unrepairable page. The
    /// SEASGD lane reader uses this to degrade (treat the tile as stale)
    /// rather than mix damaged bytes into a delta.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            SmbError::Corrupted { .. }
                | SmbError::CorruptedWire { .. }
                | SmbError::Unrepairable { .. }
        )
    }

    /// Whether the fabric's fault is a seeded network partition
    /// ([`FaultError::Partitioned`]). The retry layer combines this with
    /// the pair's authority state: a partition alone is ridden out, but a
    /// partition *plus* an expired primary lease triggers failover to the
    /// standby.
    pub fn is_partitioned(&self) -> bool {
        matches!(self, SmbError::Unavailable { fault: FaultError::Partitioned { .. }, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SmbError::Rdma(RdmaError::UnknownRegion {
            rkey: shmcaffe_rdma::RemoteKey(3),
            node: NodeId(1),
        });
        assert!(e.source().is_some());
        assert!(!e.to_string().is_empty());
        assert!(SmbError::NoMemoryServer.source().is_none());
    }

    #[test]
    fn unavailable_chains_to_the_fabric_fault() {
        use shmcaffe_simnet::SimTime;
        use std::error::Error;
        let fault = FaultError::Injected { from: NodeId(9), to: NodeId(4), at: SimTime::ZERO };
        let e = SmbError::Unavailable { key: ShmKey(2), node: NodeId(4), fault };
        let src = e.source().expect("source chained");
        assert_eq!(src.downcast_ref::<FaultError>(), Some(&fault));
        assert!(src.to_string().contains("node9->node4"));
        assert!(e.to_string().contains("shm:2"));
    }

    #[test]
    fn server_crash_classification() {
        use shmcaffe_simnet::SimTime;
        let unavailable = |fault| SmbError::Unavailable { key: ShmKey(1), node: NodeId(4), fault };
        let e = unavailable(FaultError::NodeCrashed { node: NodeId(4), at: SimTime::ZERO });
        assert!(e.is_server_crash());
        assert!(!e.is_partitioned());
        assert!(e.is_transient(), "crash is still retried — the retry loop fails over");
        let cut = FaultError::Partitioned { from: NodeId(0), to: NodeId(4), at: SimTime::ZERO };
        let e2 = unavailable(cut);
        assert!(!e2.is_server_crash());
        assert!(e2.is_partitioned());
        assert!(!SmbError::NoMemoryServer.is_server_crash());
    }

    #[test]
    fn fenced_epoch_classification() {
        let e = SmbError::FencedEpoch { key: ShmKey(3), node: NodeId(4), carried: 1, active: 2 };
        assert!(e.is_fenced());
        assert!(e.is_transient(), "fenced writes retry after refreshing the epoch");
        assert!(!e.is_server_crash());
        assert!(e.to_string().contains("carried epoch 1"));
        assert!(!SmbError::NoMemoryServer.is_fenced());
    }

    #[test]
    fn transience_classification() {
        assert!(SmbError::Timeout {
            key: ShmKey(1),
            node: NodeId(0),
            waited: SimDuration::from_millis(1),
            attempts: 3,
        }
        .is_transient());
        assert!(!SmbError::NoMemoryServer.is_transient());
        assert!(!SmbError::UnknownKey { key: ShmKey(1), node: NodeId(0) }.is_transient());
        assert!(!SmbError::SourceMoved { key: ShmKey(1) }.is_transient(), "re-write, not retry");
    }

    #[test]
    fn corruption_classification() {
        let poisoned = SmbError::Corrupted { key: ShmKey(1), node: NodeId(4), page: 3 };
        assert!(poisoned.is_corruption());
        assert!(poisoned.is_transient(), "poisoned pages retry through repair");
        assert!(poisoned.to_string().contains("page 3"));

        let wire = SmbError::CorruptedWire { key: ShmKey(1), node: NodeId(4) };
        assert!(wire.is_corruption());
        assert!(wire.is_transient(), "wire damage retries with a fresh transfer");

        let lost = SmbError::Unrepairable { key: ShmKey(1), node: NodeId(4), page: 3 };
        assert!(lost.is_corruption());
        assert!(!lost.is_transient(), "unrepairable pages are permanent");
        assert!(lost.to_string().contains("unrepairable"));

        assert!(!SmbError::NoMemoryServer.is_corruption());
    }
}
