//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is a declarative, seeded schedule of per-operation
//! failure probability, worker and memory-server crashes, partitions and
//! corruption. A node cut off for a window (a flapping link) is a partition
//! of that node from the rest. The plan is attached to a
//! [`Fabric`](crate::topology::Fabric) via
//! [`Fabric::with_faults`](crate::topology::Fabric::with_faults); every
//! transfer then consults the shared [`FaultInjector`], so two runs with
//! the same plan (and the same program) observe bit-identical faults.
//!
//! Fault semantics follow the platform split the paper implies:
//!
//! * **Fallible paths** (RDMA verbs / SMB transport) *fail fast*: a
//!   transfer across an active partition, to a crashed memory server, or
//!   unlucky under the per-op failure probability, pays a detection
//!   latency and returns a [`FaultError`] for the caller's retry policy to
//!   handle.
//! * **Infallible paths** (the MPI/TCP substrate of the synchronous
//!   baselines) *ride out* outages: the transfer silently waits for the
//!   window to close, which is exactly how a reliable byte stream behaves
//!   — and why a crashed peer stalls the whole synchronous job.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

use crate::topology::{ClusterSpec, NodeId};
use crate::{SimDuration, SimTime};

/// Virtual time a fallible operation spends detecting a fault before
/// returning an error (models the RDMA completion-queue timeout).
pub(crate) const DETECTION_LATENCY: SimDuration = SimDuration::from_micros(500);

/// A scheduled worker death: the worker with this rank stops training at
/// the given virtual time and never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCrash {
    /// Global worker rank.
    pub rank: usize,
    /// Crash time; the worker checks at iteration boundaries, so death
    /// takes effect at the first boundary at or after this instant.
    pub at: SimTime,
}

/// A scheduled memory-server death: the endpoint stops serving at the
/// given virtual time and never comes back. Fallible transfers touching it
/// fail fast with [`FaultError::NodeCrashed`] so clients can fail over to
/// a standby (see `shmcaffe-smb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryServerCrash {
    /// The memory-server endpoint that dies.
    pub node: NodeId,
    /// Crash time (permanent from this instant on).
    pub at: SimTime,
}

/// A scheduled DRAM decay event: at virtual time `at`, one seeded bit
/// flips inside the data a memory server on `node` holds — *without* any
/// error being signalled. The victim (segment, element, bit) is selected
/// deterministically from the decay's seed by the server that applies it,
/// so two runs with the same plan corrupt the same bit. The corruption is
/// silent by construction: only an integrity layer (CRC-guarded pages and
/// a scrubber, see `shmcaffe-smb`) can detect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramDecay {
    /// The memory-server endpoint whose DRAM decays.
    pub node: NodeId,
    /// The virtual time at which the bit flips (applied lazily by the
    /// first server-side scan at or after this instant).
    pub at: SimTime,
}

/// A scheduled network partition: the listed node groups lose connectivity
/// to each other for the duration of the window, while intra-group links
/// (and links to nodes not listed in any group) stay healthy.
///
/// Symmetric partitions sever traffic in both directions across the group
/// boundary. A *one-way* partition severs only traffic from an
/// earlier-indexed group toward a later-indexed group — the asymmetric
/// case where, say, the old primary can still be reached by some clients
/// while its own replication traffic toward the standby black-holes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionFault {
    /// Disjoint, non-empty node groups. Traffic *between* groups is
    /// severed; nodes absent from every group are unaffected.
    pub groups: Vec<Vec<NodeId>>,
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Heal instant (exclusive end of the window); `None` means the
    /// partition never heals.
    pub heal_at: Option<SimTime>,
    /// When true, only traffic from a lower-indexed group toward a
    /// higher-indexed group is severed; the reverse direction flows.
    pub one_way: bool,
}

impl PartitionFault {
    fn group_of(&self, node: NodeId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&node))
    }

    /// Whether the partition is in effect at `now`.
    pub fn active(&self, now: SimTime) -> bool {
        self.from <= now && self.heal_at.is_none_or(|h| now < h)
    }

    /// Whether traffic from `from` toward `to` crosses a severed boundary
    /// (ignores the time window — combine with [`PartitionFault::active`]).
    pub fn severs(&self, from: NodeId, to: NodeId) -> bool {
        match (self.group_of(from), self.group_of(to)) {
            (Some(gf), Some(gt)) if gf != gt => !self.one_way || gf < gt,
            _ => false,
        }
    }
}

/// A declarative, seeded fault schedule.
///
/// # Example
///
/// ```rust
/// use shmcaffe_simnet::fault::FaultPlan;
/// use shmcaffe_simnet::topology::{ClusterSpec, NodeId};
/// use shmcaffe_simnet::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new(42)
///     .with_op_failure_prob(0.01)
///     .partition(
///         vec![vec![NodeId(1)], vec![NodeId(0)]],
///         SimTime::from_millis(10),
///         Some(SimTime::from_millis(12)),
///     )
///     .crash_worker(2, SimTime::from_millis(50));
/// assert!(plan.validate(&ClusterSpec::paper_testbed(1)).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-operation failure draw stream.
    pub seed: u64,
    /// Probability that any single fallible fabric operation fails.
    pub op_failure_prob: f64,
    /// Scheduled worker deaths.
    pub worker_crashes: Vec<WorkerCrash>,
    /// Scheduled memory-server deaths (permanent; clients must fail over).
    pub memory_server_crashes: Vec<MemoryServerCrash>,
    /// Scheduled network partitions (symmetric or one-way, with optional
    /// heal events).
    pub partitions: Vec<PartitionFault>,
    /// Probability that a fallible data transfer is corrupted by a wire
    /// bit flip (one seeded bit of the payload inverted in flight). The
    /// flip itself is silent at the transport level; detection is up to
    /// the end-to-end checksum layer.
    pub wire_flip_prob: f64,
    /// Probability that a fallible write is torn: only a seeded prefix of
    /// the payload is delivered, and no error is reported to the writer.
    pub torn_write_prob: f64,
    /// Scheduled silent DRAM decay events on memory-server nodes.
    pub dram_decays: Vec<DramDecay>,
}

impl FaultPlan {
    /// An empty plan with the given seed (no faults until configured).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            op_failure_prob: 0.0,
            worker_crashes: Vec::new(),
            memory_server_crashes: Vec::new(),
            partitions: Vec::new(),
            wire_flip_prob: 0.0,
            torn_write_prob: 0.0,
            dram_decays: Vec::new(),
        }
    }

    /// Sets the per-operation failure probability (`0.0..=1.0`).
    pub fn with_op_failure_prob(mut self, p: f64) -> Self {
        self.op_failure_prob = p;
        self
    }

    /// Schedules a worker crash.
    pub fn crash_worker(mut self, rank: usize, at: SimTime) -> Self {
        self.worker_crashes.push(WorkerCrash { rank, at });
        self
    }

    /// Schedules a permanent memory-server crash.
    pub fn crash_memory_server(mut self, node: NodeId, at: SimTime) -> Self {
        self.memory_server_crashes.push(MemoryServerCrash { node, at });
        self
    }

    /// Schedules a symmetric partition: traffic between any two of the
    /// `groups` is severed from `from` until `heal_at` (or forever when
    /// `heal_at` is `None`).
    pub fn partition(
        mut self,
        groups: Vec<Vec<NodeId>>,
        from: SimTime,
        heal_at: Option<SimTime>,
    ) -> Self {
        self.partitions.push(PartitionFault { groups, from, heal_at, one_way: false });
        self
    }

    /// Schedules a one-way partition: only traffic from a lower-indexed
    /// group toward a higher-indexed group is severed; the reverse
    /// direction keeps flowing for the window.
    pub fn partition_one_way(
        mut self,
        groups: Vec<Vec<NodeId>>,
        from: SimTime,
        heal_at: Option<SimTime>,
    ) -> Self {
        self.partitions.push(PartitionFault { groups, from, heal_at, one_way: true });
        self
    }

    /// Sets the wire bit-flip probability of fallible data transfers
    /// (`0.0..=1.0`).
    pub fn with_wire_flip_prob(mut self, p: f64) -> Self {
        self.wire_flip_prob = p;
        self
    }

    /// Sets the torn-write probability of fallible writes (`0.0..=1.0`).
    pub fn with_torn_write_prob(mut self, p: f64) -> Self {
        self.torn_write_prob = p;
        self
    }

    /// Schedules a silent DRAM decay on a memory-server node.
    pub fn decay_dram(mut self, node: NodeId, at: SimTime) -> Self {
        self.dram_decays.push(DramDecay { node, at });
        self
    }

    /// Whether the plan can corrupt data (as opposed to merely delaying or
    /// failing transfers). Integrity machinery (checksums, scrubbing) only
    /// needs to run when this is true.
    pub fn has_corruption_faults(&self) -> bool {
        self.wire_flip_prob > 0.0 || self.torn_write_prob > 0.0 || !self.dram_decays.is_empty()
    }

    /// Checks the plan against the cluster it is to fault: probabilities
    /// in range, partition groups and windows, partitions only over
    /// endpoints of `spec`, and memory-server crashes and DRAM decays only
    /// on `spec`'s memory servers. Worker ranks belong to the platform
    /// that runs them, so it checks [`FaultPlan::crashed_ranks`] itself.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid entry.
    pub fn validate(&self, spec: &ClusterSpec) -> Result<(), String> {
        let endpoints = spec.gpu_nodes + spec.memory_servers;
        if !(0.0..=1.0).contains(&self.op_failure_prob) {
            return Err(format!("op_failure_prob {} out of [0, 1]", self.op_failure_prob));
        }
        if !(0.0..=1.0).contains(&self.wire_flip_prob) {
            return Err(format!("wire_flip_prob {} out of [0, 1]", self.wire_flip_prob));
        }
        if !(0.0..=1.0).contains(&self.torn_write_prob) {
            return Err(format!("torn_write_prob {} out of [0, 1]", self.torn_write_prob));
        }
        for p in &self.partitions {
            if p.groups.len() < 2 {
                return Err("partition needs at least two groups".to_string());
            }
            if p.groups.iter().any(|g| g.is_empty()) {
                return Err("partition group is empty".to_string());
            }
            let mut seen = std::collections::BTreeSet::new();
            for node in p.groups.iter().flatten() {
                if !seen.insert(*node) {
                    return Err(format!("partition groups overlap on {node}"));
                }
                if node.0 >= endpoints {
                    return Err(format!(
                        "partition names {node} off a fabric of {endpoints} endpoints"
                    ));
                }
            }
            if let Some(heal) = p.heal_at {
                if heal <= p.from {
                    return Err("partition heals before it starts".to_string());
                }
            }
        }
        let crashes = self.memory_server_crashes.iter().map(|c| (c.node, "crash"));
        let decays = self.dram_decays.iter().map(|d| (d.node, "DRAM decay"));
        let not_a_server =
            |&(node, _): &(NodeId, _)| !(spec.gpu_nodes..endpoints).contains(&node.0);
        if let Some((node, fault)) = crashes.chain(decays).find(not_a_server) {
            return Err(format!(
                "memory-server {fault} on {node}, which is not one of the fabric's {} memory \
                 servers",
                spec.memory_servers
            ));
        }
        Ok(())
    }

    /// Ranks scheduled to crash, in plan order.
    pub fn crashed_ranks(&self) -> Vec<usize> {
        self.worker_crashes.iter().map(|c| c.rank).collect()
    }
}

/// Counters of faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fallible operations failed by the per-op probability draw.
    pub injected_op_failures: u64,
    /// Fallible operations that touched a crashed memory server.
    pub memory_server_crash_hits: u64,
    /// Fallible operations severed by an active network partition.
    pub partition_hits: u64,
    /// Wire bit flips injected into transfer payloads.
    pub wire_flips: u64,
    /// Torn writes injected (prefix-only delivery, no error signalled).
    pub torn_writes: u64,
    /// DRAM decay events claimed by a server-side scan.
    pub dram_decays_applied: u64,
}

struct InjectorInner {
    plan: FaultPlan,
    rng: parking_lot::Mutex<ChaCha8Rng>,
    /// Dedicated stream for corruption draws: keeping it apart from the
    /// op-failure stream means enabling corruption faults never shifts the
    /// timeline of a plan's other seeded faults.
    corrupt_rng: parking_lot::Mutex<ChaCha8Rng>,
    /// One claim flag per scheduled DRAM decay, so whichever server-side
    /// scan observes a due event first applies it exactly once.
    decays_claimed: parking_lot::Mutex<Vec<bool>>,
    stats: parking_lot::Mutex<FaultStats>,
}

/// Stream separator between the op-failure RNG and the corruption RNG.
const CORRUPTION_STREAM_SALT: u64 = 0xC0FF_EE00_DA7A_F11F;

/// SplitMix64: derives the per-event victim seed of a DRAM decay.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared handle that answers "is this operation faulted right now?"
/// deterministically from a [`FaultPlan`].
///
/// Cloning shares the underlying RNG and statistics, so all users of one
/// fabric consume a single failure-draw stream. Because the simulation
/// scheduler is deterministic, the draw order — and hence every injected
/// fault — is identical across runs with the same seed.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.inner.plan)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector {
    /// Builds an injector from a plan that passed [`FaultPlan::validate`]
    /// ([`Fabric::with_faults`](crate::topology::Fabric::with_faults)
    /// checks it).
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        let corrupt_rng = ChaCha8Rng::seed_from_u64(plan.seed ^ CORRUPTION_STREAM_SALT);
        let decays_claimed = vec![false; plan.dram_decays.len()];
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                rng: parking_lot::Mutex::new(rng),
                corrupt_rng: parking_lot::Mutex::new(corrupt_rng),
                decays_claimed: parking_lot::Mutex::new(decays_claimed),
                stats: parking_lot::Mutex::new(FaultStats::default()),
            }),
        }
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        *self.inner.stats.lock()
    }

    /// Draws the per-operation failure coin. Always consumes exactly one
    /// draw from the stream so call sites stay aligned across runs.
    pub fn draw_op_failure(&self) -> bool {
        let p = self.inner.plan.op_failure_prob;
        let roll: f64 = self.inner.rng.lock().gen_range(0.0..1.0);
        let hit = roll < p;
        if hit {
            self.inner.stats.lock().injected_op_failures += 1;
        }
        hit
    }

    /// Draws the wire bit-flip coin for a fallible data transfer of
    /// `elems` f32 elements. Always consumes exactly three draws from the
    /// dedicated corruption stream so call sites stay aligned across runs.
    /// On a hit, returns the payload element and bit (`0..32` of the f32
    /// bit pattern) to invert.
    pub fn draw_wire_flip(&self, elems: usize) -> Option<(usize, u32)> {
        let p = self.inner.plan.wire_flip_prob;
        let mut rng = self.inner.corrupt_rng.lock();
        let roll: f64 = rng.gen_range(0.0..1.0);
        let elem = rng.gen_range(0..elems.max(1) as u64) as usize;
        let bit: u32 = rng.gen_range(0..32);
        drop(rng);
        if roll < p && elems > 0 {
            self.inner.stats.lock().wire_flips += 1;
            Some((elem, bit))
        } else {
            None
        }
    }

    /// Draws the torn-write coin for a fallible write of `elems` f32
    /// elements. Always consumes exactly two draws from the corruption
    /// stream. On a hit, returns the delivered prefix length (`0..elems`);
    /// the tail of the payload never lands and no error is signalled.
    pub fn draw_torn_write(&self, elems: usize) -> Option<usize> {
        let p = self.inner.plan.torn_write_prob;
        let mut rng = self.inner.corrupt_rng.lock();
        let roll: f64 = rng.gen_range(0.0..1.0);
        let prefix = rng.gen_range(0..elems.max(1) as u64) as usize;
        drop(rng);
        if roll < p && elems > 0 {
            self.inner.stats.lock().torn_writes += 1;
            Some(prefix)
        } else {
            None
        }
    }

    /// Claims every DRAM decay event scheduled on `node` that is due at
    /// `now` and not yet applied, returning one victim-selection seed per
    /// event. Each event is handed out exactly once: whichever server-side
    /// scan (read-path verify or scrubber pass) observes it first applies
    /// the bit flip. The seeds are pure functions of the plan seed and the
    /// event index, so claim order does not affect which bit decays.
    pub fn take_due_decays(&self, node: NodeId, now: SimTime) -> Vec<u64> {
        let plan = &self.inner.plan;
        if plan.dram_decays.is_empty() {
            return Vec::new();
        }
        let mut claimed = self.inner.decays_claimed.lock();
        let mut seeds = Vec::new();
        for (i, d) in plan.dram_decays.iter().enumerate() {
            if !claimed[i] && d.node == node && d.at <= now {
                claimed[i] = true;
                seeds.push(splitmix64(plan.seed ^ CORRUPTION_STREAM_SALT ^ (i as u64)));
            }
        }
        if !seeds.is_empty() {
            self.inner.stats.lock().dram_decays_applied += seeds.len() as u64;
        }
        seeds
    }

    /// The scheduled crash time for a worker rank, if any (earliest wins).
    pub fn crash_time(&self, rank: usize) -> Option<SimTime> {
        self.inner.plan.worker_crashes.iter().filter(|c| c.rank == rank).map(|c| c.at).min()
    }

    /// The scheduled crash time for a memory-server endpoint, if any
    /// (earliest wins).
    pub fn memory_server_crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.inner.plan.memory_server_crashes.iter().filter(|c| c.node == node).map(|c| c.at).min()
    }

    /// Whether `node` is a crashed memory server at `now` (crashes are
    /// permanent: true from the crash instant on).
    pub fn memory_server_crashed(&self, node: NodeId, now: SimTime) -> bool {
        self.memory_server_crash_time(node).is_some_and(|at| at <= now)
    }

    /// If traffic from `from` toward `to` is severed by an active
    /// partition at `now`, returns `Some(heal)` where `heal` is the
    /// instant the *last* severing partition heals, or `Some(None)` when
    /// one of them never heals. Returns `None` when the path is clear.
    pub fn partitioned_until(
        &self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
    ) -> Option<Option<SimTime>> {
        let mut severed = false;
        let mut heal: Option<SimTime> = Some(SimTime::ZERO);
        for p in &self.inner.plan.partitions {
            if p.active(now) && p.severs(from, to) {
                severed = true;
                heal = match (heal, p.heal_at) {
                    (Some(h), Some(ph)) => Some(h.max(ph)),
                    _ => None,
                };
            }
        }
        severed.then_some(heal)
    }

    /// Whether traffic from `from` toward `to` is severed at `now`.
    pub fn partitioned(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        self.partitioned_until(from, to, now).is_some()
    }

    pub(crate) fn record_memory_server_crash_hit(&self) {
        self.inner.stats.lock().memory_server_crash_hits += 1;
    }

    pub(crate) fn record_partition_hit(&self) {
        self.inner.stats.lock().partition_hits += 1;
    }
}

/// Why a fallible fabric operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The per-operation failure draw fired for this transfer.
    Injected {
        /// Transfer source.
        from: NodeId,
        /// Transfer destination.
        to: NodeId,
        /// Virtual time the failure was detected.
        at: SimTime,
    },
    /// The transfer touched a permanently crashed endpoint (a memory
    /// server). Retrying against the same endpoint can never succeed — the
    /// caller should fail over.
    NodeCrashed {
        /// The crashed endpoint.
        node: NodeId,
        /// Virtual time the failure was detected.
        at: SimTime,
    },
    /// The transfer's source and destination sit on opposite sides of an
    /// active network partition. Retrying against the same endpoint fails
    /// until the partition heals — callers should fail over (and the SMB
    /// fencing layer turns this into an epoch change).
    Partitioned {
        /// Transfer source.
        from: NodeId,
        /// Transfer destination (unreachable from `from`).
        to: NodeId,
        /// Virtual time the failure was detected.
        at: SimTime,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Injected { from, to, at } => {
                write!(f, "injected fault on {from}->{to} (t={} ns)", at.as_nanos())
            }
            FaultError::NodeCrashed { node, at } => {
                write!(f, "endpoint {} crashed (detected t={} ns)", node, at.as_nanos())
            }
            FaultError::Partitioned { from, to, at } => {
                write!(f, "partition severs {from}->{to} (t={} ns)", at.as_nanos())
            }
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// GPU nodes 0–7 and the memory server on node 8.
    fn testbed() -> ClusterSpec {
        ClusterSpec::paper_testbed(8)
    }

    #[test]
    fn plan_builder_and_validation() {
        let plan = FaultPlan::new(7)
            .with_op_failure_prob(0.25)
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], SimTime::from_millis(1), None)
            .crash_worker(3, SimTime::from_millis(6));
        assert!(plan.validate(&testbed()).is_ok());
        assert_eq!(plan.crashed_ranks(), vec![3]);

        let bad = FaultPlan::new(0).with_op_failure_prob(1.5);
        assert!(bad.validate(&testbed()).is_err());
        let empty_window = FaultPlan::new(0).partition(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            SimTime::from_millis(2),
            Some(SimTime::from_millis(2)),
        );
        assert!(empty_window.validate(&testbed()).is_err());
    }

    #[test]
    fn windows_are_half_open() {
        let inj = FaultInjector::new(FaultPlan::new(1).partition(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            SimTime::from_millis(10),
            Some(SimTime::from_millis(20)),
        ));
        let until = |from, to, ms| inj.partitioned_until(from, to, SimTime::from_millis(ms));
        assert_eq!(until(NodeId(0), NodeId(1), 9), None);
        assert_eq!(until(NodeId(0), NodeId(1), 10), Some(Some(SimTime::from_millis(20))));
        assert_eq!(until(NodeId(1), NodeId(0), 19), Some(Some(SimTime::from_millis(20))));
        assert_eq!(until(NodeId(0), NodeId(1), 20), None);
        assert_eq!(until(NodeId(0), NodeId(2), 15), None);
    }

    #[test]
    fn op_failure_draws_are_seed_deterministic() {
        let draws = |seed: u64| {
            let inj = FaultInjector::new(FaultPlan::new(seed).with_op_failure_prob(0.3));
            (0..64).map(|_| inj.draw_op_failure()).collect::<Vec<bool>>()
        };
        let a = draws(99);
        assert_eq!(a, draws(99));
        assert_ne!(a, draws(100));
        assert!(a.iter().any(|&b| b), "0.3 over 64 draws should hit at least once");
        assert!(a.iter().any(|&b| !b));
        let inj = FaultInjector::new(FaultPlan::new(99).with_op_failure_prob(0.3));
        for _ in 0..64 {
            inj.draw_op_failure();
        }
        let hits = a.iter().filter(|&&b| b).count() as u64;
        assert_eq!(inj.stats().injected_op_failures, hits);
    }

    #[test]
    fn zero_probability_never_fails() {
        let inj = FaultInjector::new(FaultPlan::new(5));
        assert!((0..100).all(|_| !inj.draw_op_failure()));
        assert_eq!(inj.stats().injected_op_failures, 0);
    }

    #[test]
    fn crash_time_takes_earliest() {
        let inj = FaultInjector::new(
            FaultPlan::new(1)
                .crash_worker(2, SimTime::from_millis(50))
                .crash_worker(2, SimTime::from_millis(30)),
        );
        assert_eq!(inj.crash_time(2), Some(SimTime::from_millis(30)));
        assert_eq!(inj.crash_time(0), None);
    }

    #[test]
    fn memory_server_crash_is_permanent_and_takes_earliest() {
        let inj = FaultInjector::new(
            FaultPlan::new(1)
                .crash_memory_server(NodeId(8), SimTime::from_millis(40))
                .crash_memory_server(NodeId(8), SimTime::from_millis(20)),
        );
        assert_eq!(inj.memory_server_crash_time(NodeId(8)), Some(SimTime::from_millis(20)));
        assert_eq!(inj.memory_server_crash_time(NodeId(9)), None);
        assert!(!inj.memory_server_crashed(NodeId(8), SimTime::from_millis(19)));
        assert!(inj.memory_server_crashed(NodeId(8), SimTime::from_millis(20)));
        assert!(inj.memory_server_crashed(NodeId(8), SimTime::from_secs(100)));
        assert!(!inj.memory_server_crashed(NodeId(9), SimTime::from_secs(100)));
    }

    #[test]
    fn partition_validation() {
        let ok = FaultPlan::new(1).partition(
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]],
            SimTime::from_millis(5),
            Some(SimTime::from_millis(10)),
        );
        assert!(ok.validate(&testbed()).is_ok());

        let one_group = FaultPlan::new(1).partition(vec![vec![NodeId(0)]], SimTime::ZERO, None);
        assert!(one_group.validate(&testbed()).is_err());
        let empty_group =
            FaultPlan::new(1).partition(vec![vec![NodeId(0)], vec![]], SimTime::ZERO, None);
        assert!(empty_group.validate(&testbed()).is_err());
        let overlap = FaultPlan::new(1).partition(
            vec![vec![NodeId(0)], vec![NodeId(0)]],
            SimTime::ZERO,
            None,
        );
        assert!(overlap.validate(&testbed()).is_err());
        let heals_early = FaultPlan::new(1).partition(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            SimTime::from_millis(5),
            Some(SimTime::from_millis(5)),
        );
        assert!(heals_early.validate(&testbed()).is_err());
        let off_the_fabric = FaultPlan::new(1).partition(
            vec![vec![NodeId(0)], vec![NodeId(9)]],
            SimTime::ZERO,
            None,
        );
        let err = off_the_fabric.validate(&testbed()).unwrap_err();
        assert!(err.contains("node9"), "{err}");
    }

    #[test]
    fn symmetric_partition_severs_both_ways_within_window() {
        let inj = FaultInjector::new(FaultPlan::new(1).partition(
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(4)]],
            SimTime::from_millis(10),
            Some(SimTime::from_millis(20)),
        ));
        let t = SimTime::from_millis(15);
        assert!(inj.partitioned(NodeId(0), NodeId(4), t));
        assert!(inj.partitioned(NodeId(4), NodeId(1), t));
        assert_eq!(
            inj.partitioned_until(NodeId(0), NodeId(4), t),
            Some(Some(SimTime::from_millis(20)))
        );
        // Intra-group and unlisted nodes are unaffected.
        assert!(!inj.partitioned(NodeId(0), NodeId(1), t));
        assert!(!inj.partitioned(NodeId(0), NodeId(9), t));
        assert!(!inj.partitioned(NodeId(9), NodeId(4), t));
        // Half-open window: healed exactly at heal_at, untouched before.
        assert!(!inj.partitioned(NodeId(0), NodeId(4), SimTime::from_millis(9)));
        assert!(inj.partitioned(NodeId(0), NodeId(4), SimTime::from_millis(10)));
        assert!(!inj.partitioned(NodeId(0), NodeId(4), SimTime::from_millis(20)));
    }

    #[test]
    fn one_way_partition_severs_forward_direction_only() {
        let inj = FaultInjector::new(FaultPlan::new(1).partition_one_way(
            vec![vec![NodeId(8)], vec![NodeId(9)]],
            SimTime::from_millis(1),
            None,
        ));
        let t = SimTime::from_millis(2);
        assert!(inj.partitioned(NodeId(8), NodeId(9), t));
        assert!(!inj.partitioned(NodeId(9), NodeId(8), t));
        // heal_at None: never heals.
        assert_eq!(inj.partitioned_until(NodeId(8), NodeId(9), t), Some(None));
        assert!(inj.partitioned(NodeId(8), NodeId(9), SimTime::from_secs(100)));
    }

    #[test]
    fn overlapping_partitions_wait_for_the_last_heal() {
        let groups = vec![vec![NodeId(0)], vec![NodeId(1)]];
        let inj = FaultInjector::new(
            FaultPlan::new(1)
                .partition(groups.clone(), SimTime::from_millis(1), Some(SimTime::from_millis(5)))
                .partition(groups, SimTime::from_millis(2), Some(SimTime::from_millis(9))),
        );
        assert_eq!(
            inj.partitioned_until(NodeId(0), NodeId(1), SimTime::from_millis(3)),
            Some(Some(SimTime::from_millis(9)))
        );
    }

    #[test]
    fn corruption_plan_builders_and_validation() {
        let plan = FaultPlan::new(3)
            .with_wire_flip_prob(0.1)
            .with_torn_write_prob(0.05)
            .decay_dram(NodeId(8), SimTime::from_millis(40));
        assert!(plan.validate(&testbed()).is_ok());
        assert!(plan.has_corruption_faults());
        assert!(!FaultPlan::new(3).has_corruption_faults());
        assert!(FaultPlan::new(3).with_wire_flip_prob(1.5).validate(&testbed()).is_err());
        assert!(FaultPlan::new(3).with_torn_write_prob(-0.1).validate(&testbed()).is_err());
        for plan in [
            FaultPlan::new(3).decay_dram(NodeId(0), SimTime::ZERO),
            FaultPlan::new(3).crash_memory_server(NodeId(9), SimTime::ZERO),
        ] {
            assert!(plan.validate(&testbed()).is_err(), "{plan:?}: not a memory server");
        }
    }

    #[test]
    fn wire_flip_draws_are_seed_deterministic_and_bounded() {
        let draws = |seed: u64| {
            let inj = FaultInjector::new(FaultPlan::new(seed).with_wire_flip_prob(0.4));
            (0..64).map(|_| inj.draw_wire_flip(10)).collect::<Vec<_>>()
        };
        let a = draws(11);
        assert_eq!(a, draws(11));
        assert_ne!(a, draws(12));
        let hits: Vec<_> = a.iter().flatten().collect();
        assert!(!hits.is_empty() && hits.len() < 64);
        for &&(elem, bit) in &hits {
            assert!(elem < 10);
            assert!(bit < 32);
        }
        let inj = FaultInjector::new(FaultPlan::new(11).with_wire_flip_prob(0.4));
        for _ in 0..64 {
            inj.draw_wire_flip(10);
        }
        assert_eq!(inj.stats().wire_flips, hits.len() as u64);
    }

    #[test]
    fn corruption_stream_is_independent_of_op_failure_stream() {
        // Interleaving op-failure draws must not shift the corruption
        // stream (and vice versa): enabling integrity faults on an
        // existing plan leaves its other seeded faults bit-identical.
        let plan = FaultPlan::new(21).with_op_failure_prob(0.3).with_wire_flip_prob(0.3);
        let pure = {
            let inj = FaultInjector::new(plan.clone());
            (0..32).map(|_| inj.draw_wire_flip(8)).collect::<Vec<_>>()
        };
        let interleaved = {
            let inj = FaultInjector::new(plan.clone());
            (0..32)
                .map(|_| {
                    inj.draw_op_failure();
                    inj.draw_wire_flip(8)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(pure, interleaved);
        let ops_pure = {
            let inj = FaultInjector::new(plan.clone());
            (0..32).map(|_| inj.draw_op_failure()).collect::<Vec<_>>()
        };
        let ops_interleaved = {
            let inj = FaultInjector::new(plan);
            (0..32)
                .map(|_| {
                    inj.draw_wire_flip(8);
                    inj.draw_torn_write(8);
                    inj.draw_op_failure()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ops_pure, ops_interleaved);
    }

    #[test]
    fn torn_write_prefix_is_strictly_shorter_than_the_payload() {
        let inj = FaultInjector::new(FaultPlan::new(5).with_torn_write_prob(1.0));
        for _ in 0..64 {
            let p = inj.draw_torn_write(6).expect("probability 1 always tears");
            assert!(p < 6);
        }
        assert_eq!(inj.stats().torn_writes, 64);
        let never = FaultInjector::new(FaultPlan::new(5));
        assert!((0..32).all(|_| never.draw_torn_write(6).is_none()));
    }

    #[test]
    fn dram_decays_are_claimed_exactly_once_per_event() {
        let inj = FaultInjector::new(
            FaultPlan::new(17)
                .decay_dram(NodeId(8), SimTime::from_millis(10))
                .decay_dram(NodeId(8), SimTime::from_millis(30))
                .decay_dram(NodeId(9), SimTime::from_millis(10)),
        );
        assert!(inj.take_due_decays(NodeId(8), SimTime::from_millis(5)).is_empty());
        let first = inj.take_due_decays(NodeId(8), SimTime::from_millis(10));
        assert_eq!(first.len(), 1);
        // Already claimed: a second scan at the same instant gets nothing.
        assert!(inj.take_due_decays(NodeId(8), SimTime::from_millis(10)).is_empty());
        let second = inj.take_due_decays(NodeId(8), SimTime::from_millis(35));
        assert_eq!(second.len(), 1);
        assert_ne!(first[0], second[0], "per-event victim seeds differ");
        assert_eq!(inj.take_due_decays(NodeId(9), SimTime::from_millis(10)).len(), 1);
        assert_eq!(inj.stats().dram_decays_applied, 3);
        // Determinism: a fresh injector over the same plan yields the same
        // victim seeds.
        let again = FaultInjector::new(
            FaultPlan::new(17)
                .decay_dram(NodeId(8), SimTime::from_millis(10))
                .decay_dram(NodeId(8), SimTime::from_millis(30))
                .decay_dram(NodeId(9), SimTime::from_millis(10)),
        );
        assert_eq!(
            again.take_due_decays(NodeId(8), SimTime::from_millis(40)),
            vec![first[0], second[0]]
        );
    }

    #[test]
    fn fault_error_display_and_source() {
        let e = FaultError::Injected { from: NodeId(0), to: NodeId(4), at: SimTime::ZERO };
        assert!(e.to_string().contains("node0->node4"));
        let e3 = FaultError::NodeCrashed { node: NodeId(8), at: SimTime::from_millis(2) };
        assert!(e3.to_string().contains("node8 crashed"));
        let e4 = FaultError::Partitioned { from: NodeId(1), to: NodeId(8), at: SimTime::ZERO };
        assert!(e4.to_string().contains("partition severs node1->node8"));
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_none());
    }
}
