use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use shmcaffe_rdma::{MemoryRegion, RdmaFabric};
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::topology::NodeId;
use shmcaffe_simnet::{AccessKind, HbEdge, SimContext, SimDuration, SimTime};
use shmcaffe_tensor::crc32c::{crc32c_append, crc32c_finish, CRC32C_INIT};

use crate::crc::crc32c_f32;
use crate::SmbError;

/// The shared-memory generation key the master broadcasts (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShmKey(pub u64);

impl fmt::Display for ShmKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shm:{}", self.0)
    }
}

/// Effective bandwidth of the memory server's DRAM bus in bytes/s
/// (E5-2609 v2 + DDR3-1866: ~15 GB/s practical). Every byte RDMA'd in or
/// out of a shared segment crosses this bus once (DMA), and the accumulate
/// engine crosses it three times per byte (read ΔW, read W_g, write W_g).
/// At scale this bus — not the 7 GB/s HCA — is the contended resource,
/// which is what drives the paper's communication ratios (Table V:
/// ResNet_50 56% at 16 workers).
const MEMORY_BPS: f64 = 15.0e9;

/// One-way latency of a control message (allocation and accumulate
/// requests, heartbeats, replication handshakes).
pub(crate) const CONTROL_LATENCY: SimDuration = SimDuration::from_micros(5);

/// Per-stream bandwidth of one client's RDMA read/write to the server, in
/// bytes/s. The SMB transport (derived from the kernel RDS module) cannot
/// saturate the 7 GB/s HCA from a single connection; aggregate bandwidth
/// therefore *grows* with the process count until the HCA saturates,
/// reproducing the shape of Fig. 7. Calibrated so ~4-8 concurrent
/// processes reach the ~6.7 GB/s aggregate ceiling.
pub(crate) const STREAM_BPS: f64 = 1.5e9;

/// Wire overhead fraction of the SMB transport (RDS headers, control
/// traffic). The paper measures 6.7 GB/s of *payload* through the 7 GB/s
/// HCA — 96% efficiency — so 4.5% of the wire carries protocol.
pub(crate) const PROTOCOL_OVERHEAD: f64 = 0.045;

/// How long an eviction tombstone is kept after the lease expired.
/// Tombstones let lookups of a reclaimed key report
/// [`SmbError::LeaseExpired`] instead of a bare unknown key; they are
/// garbage-collected once the lapsed owner acknowledges the eviction
/// ([`SmbServer::ack_eviction`]) or after this horizon, whichever comes
/// first, so the table stays bounded over long runs.
pub const TOMBSTONE_HORIZON: SimDuration = SimDuration::from_secs(10);

/// Tunable parameters of the SMB server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmbServerConfig {
    /// How long an owned segment survives without a heartbeat from its
    /// owner before [`SmbServer::evict_stale`] reclaims it. Crashed workers
    /// stop heartbeating, so their ΔW segments are evicted and survivors
    /// keep training (crash-tolerant SEASGD).
    pub lease_timeout: SimDuration,
    /// How long the primary's write authority lasts without a successful
    /// replication pass renewing it. While the lease is live, promotion of
    /// the standby is illegal (the primary may still be accepting writes
    /// on the other side of a partition); once it has demonstrably
    /// expired, the standby may fence the old epoch and take over. Must
    /// comfortably exceed the replication interval or a healthy pair
    /// would fence its own primary.
    pub authority_timeout: SimDuration,
    /// Page size of the CRC-guarded integrity grid, in f32 elements. `0`
    /// disables integrity tracking entirely (the default): segments carry
    /// no per-page checksums and reads are served unverified, matching the
    /// paper's deployment where InfiniBand's hardware ICRC is trusted
    /// end-to-end. When enabled, every segment is divided into fixed pages
    /// of this many elements (last page possibly short); each mutation
    /// refreshes the checksums of the pages it touches, and every read is
    /// verified before its bytes are served.
    pub page_elems: usize,
    /// Virtual-time cadence of the background scrubber
    /// ([`SmbServer::run_scrubber`]): one full walk of every segment's
    /// page grid per interval, poisoning pages whose contents no longer
    /// match their recorded CRC (silent DRAM decay). `SimDuration::ZERO`
    /// (the default) disables the scrubber; corruption is then only found
    /// lazily, when a read or mutation verifies the page.
    pub scrub_interval: SimDuration,
}

impl Default for SmbServerConfig {
    fn default() -> Self {
        SmbServerConfig {
            lease_timeout: SimDuration::from_millis(500),
            authority_timeout: SimDuration::from_millis(500),
            page_elems: 0,
            scrub_interval: SimDuration::ZERO,
        }
    }
}

/// One segment's integrity grid resolved for a single walk: the page table
/// and poison set (borrowed under the `segments` lock) beside the region's
/// bytes (borrowed under the RDMA pool lock). Every grid operation takes
/// that lock pair once, through [`SmbServer::with_grid`], and visits the
/// pages it needs from here.
struct Grid<'a> {
    server: &'a ServerInner,
    key: ShmKey,
    mr: MemoryRegion,
    /// Recorded CRC per page (empty when the grid is off).
    crcs: &'a mut [u32],
    poisoned: &'a mut BTreeSet<usize>,
    bytes: &'a mut [f32],
}

impl Grid<'_> {
    /// Element range of `page`. The last page may be short.
    fn span(&self, page: usize) -> std::ops::Range<usize> {
        let pe = self.server.config.page_elems;
        page * pe..((page + 1) * pe).min(self.bytes.len())
    }

    /// [`Grid::span`] for a page index that arrived from outside the walk.
    fn checked_span(&self, page: usize) -> Result<std::ops::Range<usize>, SmbError> {
        if page >= self.crcs.len() {
            return Err(SmbError::SizeMismatch {
                key: self.key,
                expected: self.crcs.len(),
                got: page + 1,
            });
        }
        Ok(self.span(page))
    }

    /// The page indices overlapping `[offset, offset + len)`. Empty when
    /// the grid is off.
    fn pages(&self, offset: usize, len: usize) -> std::ops::Range<usize> {
        if len == 0 || self.crcs.is_empty() {
            return 0..0;
        }
        let pe = self.server.config.page_elems;
        offset / pe..((offset + len - 1) / pe + 1).min(self.crcs.len())
    }

    /// Checks one page against its recorded CRC, poisoning it on mismatch
    /// (counted once per newly poisoned page).
    fn verify(&mut self, ctx: &SimContext, page: usize) -> Result<(), SmbError> {
        let corrupted = SmbError::Corrupted { key: self.key, node: self.server.node, page };
        if self.poisoned.contains(&page) {
            return Err(corrupted);
        }
        // Deliberately not race-recorded: the CRC walk is a zero-time
        // atomic snapshot of the page — it observes either all of a
        // write's bytes or none of them in the cooperative simulator, so
        // it cannot witness a torn intermediate state.
        if crc32c_f32(&self.bytes[self.span(page)]) == self.crcs[page] {
            return Ok(());
        }
        mark(ctx, "smb.poison", self.key.0, page..page + 1, AccessKind::AtomicWrite);
        self.poisoned.insert(page);
        self.server.corruptions_detected.fetch_add(1, Ordering::Relaxed);
        Err(corrupted)
    }

    /// Records the CRC of the page's actual bytes.
    fn record_actual(&mut self, page: usize) {
        self.crcs[page] = crc32c_f32(&self.bytes[self.span(page)]);
    }

    /// Records the CRC the page would have with `data` overlaid at
    /// `[offset, offset + data.len())`, chaining the checksum over the
    /// untouched prefix, the overlapping slice of `data` and the untouched
    /// suffix — the overlay itself is never materialised.
    fn record_overlay(&mut self, page: usize, offset: usize, data: &[f32]) {
        let span = self.span(page);
        let lo = offset.max(span.start);
        let hi = (offset + data.len()).min(span.end);
        let mut crc = crc32c_append(CRC32C_INIT, &self.bytes[span.start..lo]);
        crc = crc32c_append(crc, &data[lo - offset..hi - offset]);
        crc = crc32c_append(crc, &self.bytes[hi..span.end]);
        self.crcs[page] = crc32c_finish(crc);
    }
}

/// Memory-bus passes per byte of a server-side accumulate: read ΔW, read
/// W_g, write W_g.
const ACCUMULATE_MEM_PASSES: u64 = 3;

/// The one pricing rule of the SMB data plane: how many modelled bytes a
/// transfer on a buffer whose full size is modelled as `wire_bytes` costs
/// — client ops, replication, repair and the accumulate engine all charge
/// through here. `share` = `None` prices the whole buffer,
/// `floor(wire_bytes·(1+overhead))`; `Some((len, total))` prices a
/// `len`-of-`total`-element span at its proportional share,
/// `ceil(wire_bytes·(1+overhead)·len/total)`, rounded up to a whole byte
/// so a stream of chunks never undercuts the monolithic cost. The two are
/// deliberately not interchangeable: a full-length share rounds the other
/// way. `overhead` is the protocol's fractional framing cost (0 for the
/// server-local engine traffic).
pub(crate) fn modelled_bytes(wire_bytes: u64, overhead: f64, share: Option<(usize, usize)>) -> u64 {
    let full = wire_bytes as f64 * (1.0 + overhead);
    match share {
        None => full as u64,
        Some((len, total)) => (full * len as f64 / total.max(1) as f64).ceil() as u64,
    }
}

/// Pseudo-region id for exploration footprints on control-plane state that
/// has no backing memory region. High-bit tagged so it can never collide
/// with an rkey (rkeys are small sequential integers). `salt` names the
/// table ("smb.version", "smb.poison", …), `key` the row.
pub(crate) fn pseudo_region(salt: &str, key: u64) -> u64 {
    let mut h = shmcaffe_simnet::explore::Fnv::new();
    h.write_bytes(salt.as_bytes());
    h.write_u64(key);
    h.finish() | (1 << 63)
}

/// The one access guard of the control-plane tables: a `kind` access to
/// `cells` of row `row` of table `table` (the table name doubles as the
/// access site). Every kind used here is engine-serialized, so these
/// order schedules for the explorer and never read as a race.
fn mark(
    ctx: &SimContext,
    table: &'static str,
    row: u64,
    cells: std::ops::Range<usize>,
    kind: AccessKind,
) {
    ctx.access(pseudo_region(table, row), cells.start, cells.len(), kind, table);
}

#[derive(Debug, Clone)]
struct Segment {
    mr: MemoryRegion,
    /// Modelled wire size of a full-segment transfer, in bytes.
    wire_bytes: u64,
    name: String,
    version: u64,
    /// CRC32C per fixed-size page (empty when the integrity grid is off).
    /// Records the *intended* contents: writers refresh it from the data
    /// they meant to land, so a torn wire delivery leaves a recorded CRC
    /// that the actual bytes can no longer match.
    page_crcs: Vec<u32>,
    /// Pages that failed verification. A poisoned page is refused to every
    /// read and mutation until a repair
    /// ([`crate::SmbPair::repair_page`]) re-installs clean bytes — repair
    /// is the *only* way poison clears, so undetected damage can never be
    /// laundered back into a valid checksum by a later partial write.
    poisoned: BTreeSet<usize>,
    /// Released by the creator, acquired by every allocator — the
    /// creation→allocation happens-before edge (the SHM-key handshake of
    /// paper Fig. 2 is a control-plane round trip).
    created: HbEdge,
}

/// Heartbeat state for an owned segment.
#[derive(Debug, Clone)]
pub(crate) struct Lease {
    owner: usize,
    last_heartbeat: SimTime,
    /// Released by the owner at its last heartbeat, acquired by whoever
    /// evicts the lease — the lease release/eviction happens-before edge.
    beat: HbEdge,
}

/// Marker left behind when a lease expires, so later lookups of the dead
/// key can report *why* it vanished. Bounded: reaped by
/// [`SmbServer::ack_eviction`] or after
/// [`TOMBSTONE_HORIZON`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tombstone {
    owner: usize,
    /// When the eviction happened (starts the GC horizon).
    at: SimTime,
}

// All the tables are BTreeMaps, not HashMaps: eviction scans iterate
// `leases`, and the state hash, replication and teardown paths iterate the
// rest, so iteration order must be deterministic.
struct ServerInner {
    node: NodeId,
    rdma: RdmaFabric,
    config: SmbServerConfig,
    /// The shared DRAM bus of the memory server.
    memory: BandwidthResource,
    segments: Mutex<BTreeMap<ShmKey, Segment>>,
    names: Mutex<BTreeMap<String, ShmKey>>,
    next_key: Mutex<u64>,
    /// Heartbeat leases for owned segments.
    leases: Mutex<BTreeMap<ShmKey, Lease>>,
    /// Keys reclaimed by lease expiry, with the lapsed owner — lookups of
    /// these report [`SmbError::LeaseExpired`] rather than a bare unknown
    /// key, so survivors learn *why* a peer's buffer vanished. Bounded by
    /// acknowledgement and the tombstone horizon (see [`Tombstone`]).
    evicted: Mutex<BTreeMap<ShmKey, Tombstone>>,
    /// Pages poisoned so far: every verification failure observed by a
    /// read, a mutation's pre-check or a scrub pass, counted once per
    /// newly poisoned page.
    corruptions_detected: AtomicU64,
    /// Shutdown flag for the background scrubber.
    scrub_stop: AtomicBool,
}

/// The SMB server: a segment table over the memory server's RAM plus the
/// accumulate engine. Cheap to clone (shared handle).
///
/// The server is a *passive* object in this reproduction: clients invoke
/// operations directly, and exclusivity of accumulate processing (paper
/// T.A3: "the SMB server exclusively processes the cumulative update
/// requests") emerges from the FIFO accumulate-engine resource.
#[derive(Clone)]
pub struct SmbServer {
    inner: Arc<ServerInner>,
}

impl fmt::Debug for SmbServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmbServer")
            .field("node", &self.inner.node)
            .field("segments", &self.inner.segments.lock().len())
            .finish()
    }
}

impl SmbServer {
    /// Creates an SMB server on the fabric's memory-server endpoint with
    /// default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] if the fabric has none.
    pub fn new(rdma: RdmaFabric) -> Result<Self, SmbError> {
        Self::with_config(rdma, SmbServerConfig::default())
    }

    /// Creates an SMB server with explicit configuration on the first
    /// memory-server endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] if the fabric has none.
    pub fn with_config(rdma: RdmaFabric, config: SmbServerConfig) -> Result<Self, SmbError> {
        Self::with_config_at(rdma, config, 0)
    }

    /// Creates an SMB server on the `index`-th memory-server endpoint
    /// (multiple-server deployments, paper §V future work).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] if that endpoint does not exist.
    pub fn with_config_at(
        rdma: RdmaFabric,
        config: SmbServerConfig,
        index: usize,
    ) -> Result<Self, SmbError> {
        let node = rdma.fabric().memory_server_at(index).ok_or(SmbError::NoMemoryServer)?;
        Ok(SmbServer {
            inner: Arc::new(ServerInner {
                node,
                rdma,
                config,
                memory: BandwidthResource::new(
                    "smb_server_memory",
                    LinkModel::new(MEMORY_BPS, CONTROL_LATENCY),
                ),
                segments: Mutex::new(BTreeMap::new()),
                names: Mutex::new(BTreeMap::new()),
                next_key: Mutex::new(1),
                leases: Mutex::new(BTreeMap::new()),
                evicted: Mutex::new(BTreeMap::new()),
                corruptions_detected: AtomicU64::new(0),
                scrub_stop: AtomicBool::new(false),
            }),
        })
    }

    /// The fabric endpoint hosting this server.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The server's configuration.
    pub fn config(&self) -> SmbServerConfig {
        self.inner.config
    }

    /// The RDMA fabric this server allocates from.
    pub fn rdma(&self) -> &RdmaFabric {
        &self.inner.rdma
    }

    /// Total bytes that have crossed the server's memory bus so far (DMA
    /// for reads/writes plus the accumulate engine's passes).
    pub fn memory_bytes(&self) -> u64 {
        self.inner.memory.total_bytes()
    }

    /// Share of `[0, horizon]` the server's DRAM bus was busy — the memory
    /// server's counterpart of `Fabric::hca_tx(node).utilization(horizon)`,
    /// for telling a bus-bound exchange from a wire-bound one.
    pub fn memory_utilization(&self, horizon: SimTime) -> f64 {
        self.inner.memory.utilization(horizon)
    }

    /// The server's DRAM-bus resource (for clients to include in their
    /// RDMA data path).
    pub(crate) fn memory_resource(&self) -> &BandwidthResource {
        &self.inner.memory
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.inner.segments.lock().len()
    }

    /// Creates a named segment of `elems` f32 elements. `wire_bytes`
    /// overrides the modelled size of full-segment transfers (used to
    /// simulate the paper's multi-hundred-MB parameter buffers with small
    /// physical vectors); `None` means the physical size `elems * 4`.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::DuplicateName`] for a reused name.
    pub(crate) fn create_segment(
        &self,
        ctx: &SimContext,
        name: &str,
        elems: usize,
        wire_bytes: Option<u64>,
    ) -> Result<ShmKey, SmbError> {
        self.create_segment_owned(ctx, name, elems, wire_bytes, None)
    }

    /// Like [`SmbServer::create_segment`], but optionally binds the segment
    /// to an owner rank's lease: if the owner stops heartbeating for longer
    /// than [`SmbServerConfig::lease_timeout`], [`SmbServer::evict_stale`]
    /// reclaims the segment.
    pub(crate) fn create_segment_owned(
        &self,
        ctx: &SimContext,
        name: &str,
        elems: usize,
        wire_bytes: Option<u64>,
        owner: Option<usize>,
    ) -> Result<ShmKey, SmbError> {
        let now = ctx.now();
        let mut created = HbEdge::default();
        created.release(ctx);
        let mut names = self.inner.names.lock();
        if names.contains_key(name) {
            return Err(SmbError::DuplicateName { name: name.to_string(), node: self.inner.node });
        }
        let mr = self.inner.rdma.register(self.inner.node, elems)?;
        let key = {
            let mut next = self.inner.next_key.lock();
            let k = ShmKey(*next);
            *next += 1;
            k
        };
        self.inner.segments.lock().insert(
            key,
            Segment {
                mr,
                wire_bytes: wire_bytes.unwrap_or((elems * 4) as u64),
                name: name.to_string(),
                version: 0,
                page_crcs: self.initial_page_crcs(elems),
                poisoned: BTreeSet::new(),
                created: created.clone(),
            },
        );
        names.insert(name.to_string(), key);
        if let Some(owner) = owner {
            let lease = Lease { owner, last_heartbeat: now, beat: created };
            self.inner.leases.lock().insert(key, lease);
        }
        Ok(key)
    }

    /// Looks up a segment's access info.
    pub(crate) fn segment(&self, key: ShmKey) -> Result<(MemoryRegion, u64), SmbError> {
        let segments = self.inner.segments.lock();
        match segments.get(&key) {
            Some(seg) => Ok((seg.mr, seg.wire_bytes)),
            None => Err(self.missing(key)),
        }
    }

    /// [`SmbServer::segment`] for an allocator: the reply also acquires the
    /// creator's edge, so creation happens-before every access through the
    /// returned handle.
    pub(crate) fn alloc_segment(
        &self,
        ctx: &SimContext,
        key: ShmKey,
    ) -> Result<(MemoryRegion, u64), SmbError> {
        let segments = self.inner.segments.lock();
        let Some(seg) = segments.get(&key) else { return Err(self.missing(key)) };
        seg.created.acquire(ctx);
        Ok((seg.mr, seg.wire_bytes))
    }

    /// [`SmbServer::segment`] for a data op on `[offset, offset + len)`:
    /// the access info is handed out only once the pages the span touches
    /// verify ([`SmbServer::verify_region`]), so no caller can move bytes
    /// of a poisoned page.
    pub(crate) fn verified_segment(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        offset: usize,
        len: usize,
    ) -> Result<(MemoryRegion, u64), SmbError> {
        let segment = self.segment(key)?;
        self.verify_region(ctx, key, offset, len)?;
        Ok(segment)
    }

    /// The error for a key with no live segment: [`SmbError::LeaseExpired`]
    /// if the server evicted it, otherwise [`SmbError::UnknownKey`].
    fn missing(&self, key: ShmKey) -> SmbError {
        match self.inner.evicted.lock().get(&key) {
            Some(t) => SmbError::LeaseExpired { key, owner: t.owner, node: self.inner.node },
            None => SmbError::UnknownKey { key, node: self.inner.node },
        }
    }

    /// Looks up a segment by name (for late-joining observers).
    pub fn lookup(&self, name: &str) -> Option<ShmKey> {
        self.inner.names.lock().get(name).copied()
    }

    /// Destroys a segment and releases its memory.
    pub(crate) fn destroy_segment(&self, key: ShmKey) -> Result<(), SmbError> {
        let seg = match self.inner.segments.lock().remove(&key) {
            Some(seg) => seg,
            None => return Err(self.missing(key)),
        };
        self.inner.names.lock().remove(&seg.name);
        self.inner.leases.lock().remove(&key);
        self.inner.rdma.deregister(&seg.mr)?;
        Ok(())
    }

    /// Records a heartbeat from `owner`, refreshing every lease that rank
    /// holds. Workers call this (via [`crate::SmbClient::heartbeat`]) at
    /// least once per exchange round; a crashed worker stops.
    pub fn touch_owner(&self, ctx: &SimContext, owner: usize) {
        mark(ctx, "smb.leases", self.inner.node.0 as u64, 0..1, AccessKind::AtomicWrite);
        let now = ctx.now();
        let mut beat = HbEdge::default();
        beat.release(ctx);
        let mut leases = self.inner.leases.lock();
        for lease in leases.values_mut().filter(|l| l.owner == owner) {
            lease.last_heartbeat = now;
            lease.beat = beat.clone();
        }
    }

    /// The owner rank of a leased segment, if any.
    pub fn lease_owner(&self, key: ShmKey) -> Option<usize> {
        self.inner.leases.lock().get(&key).map(|l| l.owner)
    }

    /// Evicts every leased segment whose owner has not heartbeated within
    /// [`SmbServerConfig::lease_timeout`], releasing its memory. Returns
    /// the evicted keys. Subsequent lookups of an evicted key report
    /// [`SmbError::LeaseExpired`] with the lapsed owner.
    pub fn evict_stale(&self, ctx: &SimContext) -> Vec<ShmKey> {
        // Eviction reads the lease table and mutates the tombstone table;
        // neither commutes with heartbeats or rejoin acknowledgements.
        mark(ctx, "smb.leases", self.inner.node.0 as u64, 0..1, AccessKind::AtomicRead);
        mark(ctx, "smb.tombstones", self.inner.node.0 as u64, 0..1, AccessKind::AtomicRmw);
        let now = ctx.now();
        let timeout = self.inner.config.lease_timeout;
        let mut stale: Vec<(ShmKey, usize)> = Vec::new();
        for (&key, lease) in self.inner.leases.lock().iter() {
            if now.since(lease.last_heartbeat) > timeout {
                // The evictor observed the owner's last heartbeat, so every
                // access that preceded that heartbeat happens-before the
                // eviction.
                lease.beat.acquire(ctx);
                stale.push((key, lease.owner));
            }
        }
        let mut evicted = Vec::new();
        for (key, owner) in stale {
            if self.destroy_segment(key).is_ok() {
                self.inner.evicted.lock().insert(key, Tombstone { owner, at: now });
                evicted.push(key);
            }
        }
        // Bounded tombstone GC: anything older than the horizon no longer
        // needs a LeaseExpired explanation — every interested party has had
        // ample time to observe it.
        self.inner.evicted.lock().retain(|_, t| now.since(t.at) <= TOMBSTONE_HORIZON);
        evicted.sort();
        evicted
    }

    /// Drops every tombstone naming `owner`: the lapsed owner (or whoever
    /// acts for it) has observed its [`SmbError::LeaseExpired`] evictions,
    /// so the markers are no longer needed. A rejoining worker calls this
    /// (via [`crate::SmbClient::ack_eviction`]) before re-creating its
    /// buffers. Returns how many tombstones were reclaimed.
    pub fn ack_eviction(&self, ctx: &SimContext, owner: usize) -> usize {
        mark(ctx, "smb.tombstones", self.inner.node.0 as u64, 0..1, AccessKind::AtomicRmw);
        let mut evicted = self.inner.evicted.lock();
        let before = evicted.len();
        evicted.retain(|_, t| t.owner != owner);
        before - evicted.len()
    }

    /// Number of eviction tombstones currently held (bounded by
    /// [`SmbServer::ack_eviction`] and the tombstone horizon).
    pub fn tombstone_count(&self) -> usize {
        self.inner.evicted.lock().len()
    }

    /// Server-side accumulate: `dst += src` between two segments (paper
    /// eq. 7 and step T.A3), over the whole segment (`span` = `None`) or
    /// over `dst[offset..offset+len] += src[offset..offset+len]`
    /// (`Some((offset, len))` — the chunked exchange pushes one fixed grid
    /// chunk at a time through this). The caller is charged the engine's
    /// queueing + service time, which serialises concurrent accumulate
    /// requests exactly as the paper's server does: the destination's full
    /// wire size for the whole segment, the chunk's proportional share for
    /// a span — streaming a whole segment chunk-by-chunk costs the same
    /// bus time as one monolithic accumulate (modulo per-chunk rounding
    /// up).
    ///
    /// Returns the destination's new version number.
    ///
    /// # Errors
    ///
    /// Returns key/length/bounds errors; on error no engine time is charged.
    pub(crate) fn accumulate(
        &self,
        ctx: &SimContext,
        src: ShmKey,
        dst: ShmKey,
        span: Option<(usize, usize)>,
    ) -> Result<u64, SmbError> {
        let (src_mr, _) = self.segment(src)?;
        let (dst_mr, dst_wire) = self.segment(dst)?;
        if src_mr.len != dst_mr.len {
            return Err(SmbError::LengthMismatch { src: src_mr.len, dst: dst_mr.len, key: dst });
        }
        let (offset, len) = span.unwrap_or((0, dst_mr.len));
        let Some(end) = offset.checked_add(len).filter(|&end| end <= dst_mr.len) else {
            let got = offset.saturating_add(len);
            return Err(SmbError::SizeMismatch { key: dst, expected: dst_mr.len, got });
        };
        // Never fold corrupt operands: both sides verify (only the pages
        // the span touches) before the engine reads them, so a poisoned ΔW
        // or W_g page aborts the accumulate instead of spreading damage
        // into the average.
        self.verify_region(ctx, src, offset, len)?;
        self.verify_region(ctx, dst, offset, len)?;
        // The engine serialises accumulates on the DRAM bus, so they are
        // atomic read-modify-writes with respect to each other; concurrent
        // plain writes to the destination still race. The access footprint
        // is the exact span: disjoint chunks from different workers do not
        // conflict, overlapping ones serialise as RMWs.
        let (src_site, dst_site) = match span {
            None => ("smb::server::accumulate(src)", "smb::server::accumulate(dst)"),
            Some(_) => ("smb::server::accumulate_range(src)", "smb::server::accumulate_range(dst)"),
        };
        ctx.access(src_mr.rkey.0, offset, len, AccessKind::AtomicRead, src_site);
        ctx.access(dst_mr.rkey.0, offset, len, AccessKind::AtomicRmw, dst_site);
        // The engine streams ΔW and W_g through server memory (three
        // passes per byte), serialised on the shared DRAM bus (T.A3:
        // requests are processed exclusively). The exclusivity is a
        // sim-time property of the bus; the data-plane add below may use
        // the tensor worker pool (fixed chunks, thread-count invariant)
        // without changing the accounting.
        let wire = modelled_bytes(dst_wire, 0.0, span.map(|_| (len, dst_mr.len)));
        self.inner.memory.transfer(ctx, wire * ACCUMULATE_MEM_PASSES);
        self.inner.rdma.with_two_regions(&src_mr, &dst_mr, |s, d| {
            shmcaffe_tensor::ops::axpy(1.0, &s[offset..end], &mut d[offset..end]);
        })?;
        self.refresh_page_range(dst, offset, len);
        let version = self.bump_version(ctx, dst);
        Ok(version)
    }

    /// Bumps a segment's version; returns the new version (0 for a dead
    /// segment).
    pub(crate) fn bump_version(&self, ctx: &SimContext, key: ShmKey) -> u64 {
        // Version bumps on the same key never commute for exploration
        // purposes: callers observe the intermediate values.
        mark(ctx, "smb.version", key.0, 0..1, AccessKind::AtomicRmw);
        self.inner.segments.lock().get_mut(&key).map_or(0, |seg| {
            seg.version += 1;
            seg.version
        })
    }

    /// Current version of a segment (0 if never updated).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::UnknownKey`] for a dead segment.
    pub fn version(&self, key: ShmKey) -> Result<u64, SmbError> {
        let segments = self.inner.segments.lock();
        match segments.get(&key) {
            Some(s) => Ok(s.version),
            None => Err(self.missing(key)),
        }
    }

    /// FNV fingerprint of the server's observable state: the segment table
    /// (names, versions, contents), leases and tombstones.
    /// Fed to [`shmcaffe_simnet::Simulation::set_state_probe`] so the
    /// schedule explorer can fingerprint terminal states and collapse
    /// schedules that converge to the same server state. Iterates BTreeMaps,
    /// so the hash is order-deterministic; simulated time is deliberately
    /// excluded (two interleavings that produce the same state at different
    /// virtual times are the same state).
    pub fn state_hash(&self) -> u64 {
        let mut h = shmcaffe_simnet::explore::Fnv::new();
        for (key, seg) in self.inner.segments.lock().iter() {
            h.write_u64(key.0);
            h.write_bytes(seg.name.as_bytes());
            h.write_u64(seg.version);
            h.write_u64(seg.mr.len as u64);
            if let Ok(data) = self.inner.rdma.with_region(&seg.mr, |b| b.to_vec()) {
                for v in data {
                    h.write_u64(u64::from(v.to_bits()));
                }
            }
            for crc in &seg.page_crcs {
                h.write_u64(u64::from(*crc) ^ 0xcc32);
            }
            for page in &seg.poisoned {
                h.write_u64(*page as u64 ^ 0x9015);
            }
        }
        for (key, lease) in self.inner.leases.lock().iter() {
            h.write_u64(key.0 ^ 0x1eaa);
            h.write_u64(lease.owner as u64);
        }
        for (key, t) in self.inner.evicted.lock().iter() {
            h.write_u64(key.0 ^ 0x70b5);
            h.write_u64(t.owner as u64);
        }
        h.finish()
    }

    // ---- data integrity: CRC-guarded pages, scrubbing, poison --------------

    /// Page size of the integrity grid in elements (0 = grid disabled).
    fn paging(&self) -> usize {
        self.inner.config.page_elems
    }

    /// Page CRCs for a freshly allocated (all-zero) segment: every full
    /// page shares one checksum and a short last page has its own, so two
    /// hashes cover a segment of any size.
    fn initial_page_crcs(&self, elems: usize) -> Vec<u32> {
        let pe = self.paging();
        if pe == 0 {
            return Vec::new();
        }
        let zeros = vec![0.0f32; pe.min(elems)];
        let (full, tail) = (elems / pe, elems % pe);
        let mut crcs = Vec::with_capacity(full + 1);
        if full > 0 {
            crcs.resize(full, crc32c_f32(&zeros));
        }
        if tail > 0 {
            crcs.push(crc32c_f32(&zeros[..tail]));
        }
        crcs
    }

    /// Runs `f` over one segment's [`Grid`], taking the `segments` lock and
    /// the region's pool lock once for the whole walk.
    fn with_grid<R>(&self, key: ShmKey, f: impl FnOnce(&mut Grid<'_>) -> R) -> Result<R, SmbError> {
        let mut segments = self.inner.segments.lock();
        let seg = segments.get_mut(&key).ok_or_else(|| self.missing(key))?;
        self.grid_of(key, seg, f)
    }

    /// [`SmbServer::with_grid`] for a caller already holding the segment
    /// table (the scrubber walks every segment under one lock).
    fn grid_of<R>(
        &self,
        key: ShmKey,
        seg: &mut Segment,
        f: impl FnOnce(&mut Grid<'_>) -> R,
    ) -> Result<R, SmbError> {
        let mr = seg.mr;
        let (crcs, poisoned) = (seg.page_crcs.as_mut_slice(), &mut seg.poisoned);
        Ok(self.inner.rdma.with_region(&mr, |bytes| {
            f(&mut Grid { server: &self.inner, key, mr, crcs, poisoned, bytes })
        })?)
    }

    /// Applies any seeded DRAM-decay faults that have come due on this
    /// node: each flips one seed-chosen bit of one seed-chosen element in
    /// one seed-chosen segment *without* touching the recorded page CRC —
    /// silent corruption for verification or the scrubber to find. Decay
    /// is applied lazily (on the next verify or scrub pass after its due
    /// time), which is exactly when it becomes observable; each seeded
    /// event lands at most once (the injector claims it).
    pub fn apply_due_decays(&self, ctx: &SimContext) {
        let Some(inj) = self.inner.rdma.fabric().fault_injector() else { return };
        let seeds = inj.take_due_decays(self.inner.node, ctx.now());
        if seeds.is_empty() {
            return;
        }
        let victims: Vec<MemoryRegion> =
            self.inner.segments.lock().values().map(|s| s.mr).collect();
        if victims.is_empty() {
            return;
        }
        for seed in seeds {
            let mr = victims[(seed % victims.len() as u64) as usize];
            if mr.len == 0 {
                continue;
            }
            let elem = ((seed >> 16) % mr.len as u64) as usize;
            let bit = ((seed >> 48) % 32) as u32;
            // Deliberately not race-recorded and charged no sim time:
            // decay is the *environment* mutating DRAM, not a process —
            // there is no instruction to order it against.
            let _ = self.inner.rdma.with_region(&mr, |b| {
                b[elem] = f32::from_bits(b[elem].to_bits() ^ (1 << bit));
            });
        }
    }

    /// Verifies the CRC-guarded pages overlapping `[offset, offset+len)`,
    /// applying any due DRAM decays first. A failing page is *poisoned* —
    /// the server refuses to serve or mutate it until a repair re-installs
    /// clean bytes — and the check surfaces [`SmbError::Corrupted`] naming
    /// the page. No-op when the grid is disabled. Zero sim time: the
    /// checksum walk models server-side CPU the DRAM-bus cost model
    /// already subsumes.
    ///
    /// # Errors
    ///
    /// [`SmbError::Corrupted`] for the first poisoned or freshly failing
    /// page; [`SmbError::SizeMismatch`] for a span that ends past the
    /// segment (grid on only); key-lookup errors if the segment died.
    pub fn verify_region(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        offset: usize,
        len: usize,
    ) -> Result<(), SmbError> {
        if self.paging() == 0 {
            return Ok(());
        }
        self.apply_due_decays(ctx);
        self.with_grid(key, |grid| {
            let expected = grid.bytes.len();
            if offset.checked_add(len).is_none_or(|end| end > expected) {
                return Err(SmbError::SizeMismatch {
                    key,
                    expected,
                    got: offset.saturating_add(len),
                });
            }
            let pages = grid.pages(offset, len);
            if pages.is_empty() {
                return Ok(());
            }
            mark(ctx, "smb.poison", key.0, pages.clone(), AccessKind::AtomicRead);
            for page in pages {
                grid.verify(ctx, page)?;
            }
            Ok(())
        })?
    }

    /// Records the *intended* page CRCs after a client write landed:
    /// per overlapping page, the checksum of the region's current bytes
    /// with `data` overlaid at `[offset, offset + data.len())`. For an
    /// intact delivery this equals the actual contents; for a torn one the
    /// recorded CRC reflects what the writer *meant*, so the next
    /// verification of the page fails and poisons it. Never clears poison
    /// (repair is the only clearer).
    pub(crate) fn note_write(&self, ctx: &SimContext, key: ShmKey, offset: usize, data: &[f32]) {
        if self.paging() == 0 || data.is_empty() {
            return;
        }
        let _ = self.with_grid(key, |grid| {
            let pages = grid.pages(offset, data.len());
            mark(ctx, "smb.poison", key.0, pages.clone(), AccessKind::AtomicWrite);
            for page in pages {
                grid.record_overlay(page, offset, data);
            }
        });
    }

    /// Recomputes the CRCs of the pages overlapping a range from the
    /// region's *actual* bytes — for server-side mutations (accumulate)
    /// that verified their operands first, so the actual bytes are the
    /// intended bytes. Never clears poison.
    pub(crate) fn refresh_page_range(&self, key: ShmKey, offset: usize, len: usize) {
        if self.paging() == 0 {
            return;
        }
        let _ = self.with_grid(key, |grid| {
            for page in grid.pages(offset, len) {
                grid.record_actual(page);
            }
        });
    }

    /// Overwrites a whole mirrored segment with `data` and resets its grid:
    /// the copy *is* a repair of whatever this member held before, so every
    /// poison mark clears. `verified` carries the source's page CRCs when
    /// the caller checked `data` against them with no yield in between (the
    /// replicator, via [`SmbServer::verified_page_crcs`]) — the bytes are
    /// then known to hash to exactly those values and are not hashed again.
    /// Without it the CRCs are recomputed from the copied bytes.
    ///
    /// # Errors
    ///
    /// Key-lookup errors and [`SmbError::SizeMismatch`] if `data` is not
    /// exactly the segment's length or `verified` does not hold exactly one
    /// CRC per page of this grid.
    pub(crate) fn install_contents(
        &self,
        key: ShmKey,
        data: &[f32],
        verified: Option<&[u32]>,
    ) -> Result<(), SmbError> {
        self.with_grid(key, |grid| {
            if grid.bytes.len() != data.len() {
                return Err(SmbError::SizeMismatch {
                    key,
                    expected: grid.bytes.len(),
                    got: data.len(),
                });
            }
            if let Some(crcs) = verified {
                // A carried vector of the wrong length means the two grids
                // disagree on page size: refuse rather than re-hash quietly.
                if crcs.len() != grid.crcs.len() {
                    return Err(SmbError::SizeMismatch {
                        key,
                        expected: grid.crcs.len(),
                        got: crcs.len(),
                    });
                }
            }
            grid.bytes.copy_from_slice(data);
            match verified {
                Some(crcs) => grid.crcs.copy_from_slice(crcs),
                None => (0..grid.crcs.len()).for_each(|page| grid.record_actual(page)),
            }
            grid.poisoned.clear();
            Ok(())
        })?
    }

    /// Lands repaired bytes into one page: overwrites the page's contents,
    /// records their CRC and clears the poison mark. Besides the
    /// full-segment [`SmbServer::install_contents`] this is the *only*
    /// operation that clears poison. The landing is an `AtomicRmw` on the
    /// page's range — it cannot race the accumulate engine, and the repair
    /// protocol ([`crate::SmbPair::repair_page`]) orders it against
    /// replication passes via the replicator's `repl_edge`.
    ///
    /// # Errors
    ///
    /// Key-lookup errors and [`SmbError::SizeMismatch`] if `page` is not in
    /// the grid or `data` is not exactly one page.
    pub(crate) fn install_page(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        page: usize,
        data: &[f32],
    ) -> Result<(), SmbError> {
        self.with_grid(key, |grid| {
            let span = grid.checked_span(page)?;
            if span.len() != data.len() {
                return Err(SmbError::SizeMismatch { key, expected: span.len(), got: data.len() });
            }
            mark(ctx, "smb.poison", key.0, page..page + 1, AccessKind::AtomicRmw);
            ctx.access(
                grid.mr.rkey.0,
                span.start,
                span.len(),
                AccessKind::AtomicRmw,
                "smb::replica::repair",
            );
            grid.bytes[span].copy_from_slice(data);
            grid.crcs[page] = crc32c_f32(data);
            grid.poisoned.remove(&page);
            Ok(())
        })?
    }

    /// Whether a page is currently poisoned (footprinted so the explorer
    /// orders this check against poisoning and repair).
    pub(crate) fn page_poisoned(&self, ctx: &SimContext, key: ShmKey, page: usize) -> bool {
        mark(ctx, "smb.poison", key.0, page..page + 1, AccessKind::AtomicRead);
        self.inner.segments.lock().get(&key).is_some_and(|seg| seg.poisoned.contains(&page))
    }

    /// Source-side page fetch for repair: the page's bytes if and only if
    /// they verify against the recorded CRC (due decays on this node are
    /// applied first, so a stale standby copy cannot masquerade as clean).
    ///
    /// # Errors
    ///
    /// [`SmbError::Corrupted`] when this copy is bad too; key errors when
    /// the segment was never mirrored here.
    pub(crate) fn read_page_checked(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        page: usize,
    ) -> Result<Vec<f32>, SmbError> {
        self.apply_due_decays(ctx);
        self.with_grid(key, |grid| {
            let span = grid.checked_span(page)?;
            grid.verify(ctx, page)?;
            // Deliberately not race-recorded: zero-time snapshot taken after
            // the repair protocol has waited out any in-flight replication
            // pass, so it cannot observe a half-shipped segment.
            Ok(grid.bytes[span].to_vec())
        })?
    }

    /// The segment's recorded page CRCs if and only if every page verifies
    /// against them right now; `None` for a dirty or dead segment. Failing
    /// pages are poisoned as a side effect (the caller — the replicator —
    /// thereby doubles as a scrubber). Empty when the grid is off. Until
    /// the caller next yields, the segment's bytes are known to hash to
    /// the returned values (see [`SmbServer::install_contents`]).
    pub(crate) fn verified_page_crcs(&self, ctx: &SimContext, key: ShmKey) -> Option<Vec<u32>> {
        if self.paging() == 0 {
            return Some(Vec::new());
        }
        self.apply_due_decays(ctx);
        self.with_grid(key, |grid| {
            let mut clean = true;
            for page in 0..grid.crcs.len() {
                clean &= grid.verify(ctx, page).is_ok();
            }
            clean.then(|| grid.crcs.to_vec())
        })
        .ok()
        .flatten()
    }

    /// Deterministic corruption hook: flips one bit of one element without
    /// updating the page CRC — the hand-driven equivalent of a DRAM decay,
    /// used by the integrity proptests and the schedule-checker models
    /// (which must not depend on a fault injector).
    ///
    /// # Errors
    ///
    /// Key-lookup errors and [`SmbError::SizeMismatch`] for an
    /// out-of-range element.
    pub fn inject_bit_flip(&self, key: ShmKey, elem: usize, bit: u32) -> Result<(), SmbError> {
        let (mr, _) = self.segment(key)?;
        if elem >= mr.len {
            let got = elem.saturating_add(1);
            return Err(SmbError::SizeMismatch { key, expected: mr.len, got });
        }
        self.inner.rdma.with_region(&mr, |b| {
            b[elem] = f32::from_bits(b[elem].to_bits() ^ (1u32 << (bit % 32)));
        })?;
        Ok(())
    }

    /// Deterministic corruption hook: applies a torn write — only
    /// `data[..prefix]` lands in the segment at `offset` while the page
    /// CRCs record the full *intended* contents, exactly the state an
    /// acknowledged-but-truncated client write leaves behind. The next
    /// verification of an affected page fails and poisons it.
    ///
    /// # Errors
    ///
    /// Key-lookup errors and [`SmbError::SizeMismatch`] for an
    /// out-of-range write or `prefix > data.len()`.
    pub fn inject_torn_write(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        offset: usize,
        data: &[f32],
        prefix: usize,
    ) -> Result<(), SmbError> {
        let (mr, _) = self.segment(key)?;
        let end = offset.checked_add(data.len()).filter(|&end| end <= mr.len);
        if end.is_none() || prefix > data.len() {
            let got = offset.saturating_add(data.len());
            return Err(SmbError::SizeMismatch { key, expected: mr.len, got });
        }
        if prefix > 0 {
            self.inner.rdma.with_region(&mr, |b| {
                b[offset..offset + prefix].copy_from_slice(&data[..prefix])
            })?;
        }
        self.note_write(ctx, key, offset, data);
        Ok(())
    }

    /// One scrub pass: applies due decays, then walks every segment's page
    /// grid verifying CRCs. Newly failing pages are poisoned (counted in
    /// [`SmbServer::corruptions_detected`]); already-poisoned pages are
    /// skipped (their detection was already counted). Returns how many
    /// pages this pass poisoned. Zero sim time — the scrubber's cost model
    /// is its cadence, not its walk.
    pub fn scrub_pass(&self, ctx: &SimContext) -> usize {
        if self.paging() == 0 {
            return 0;
        }
        self.apply_due_decays(ctx);
        let mut newly = 0;
        for (&key, seg) in self.inner.segments.lock().iter_mut() {
            if seg.page_crcs.is_empty() {
                continue;
            }
            let _ = self.grid_of(key, seg, |grid| {
                mark(ctx, "smb.poison", key.0, 0..grid.crcs.len(), AccessKind::AtomicRead);
                for page in 0..grid.crcs.len() {
                    if !grid.poisoned.contains(&page) && grid.verify(ctx, page).is_err() {
                        newly += 1;
                    }
                }
            });
        }
        newly
    }

    /// Runs the background scrubber: one [`SmbServer::scrub_pass`] every
    /// [`SmbServerConfig::scrub_interval`] until
    /// [`SmbServer::stop_scrubber`]. Returns immediately when the page
    /// grid or the cadence is disabled. Spawn as its own simulation
    /// process (the ShmCaffe-A platform spawns one per pair member).
    pub fn run_scrubber(&self, ctx: &SimContext) {
        let interval = self.inner.config.scrub_interval;
        if self.paging() == 0 || interval == SimDuration::ZERO {
            return;
        }
        loop {
            ctx.sleep(interval);
            if self.inner.scrub_stop.load(Ordering::Acquire) {
                return;
            }
            self.scrub_pass(ctx);
        }
    }

    /// Stops the background scrubber after its current sleep.
    pub fn stop_scrubber(&self) {
        self.inner.scrub_stop.store(true, Ordering::Release);
    }

    /// Total pages poisoned so far (each page counted once per poisoning).
    pub fn corruptions_detected(&self) -> u64 {
        self.inner.corruptions_detected.load(Ordering::Relaxed)
    }

    /// The currently poisoned pages of a segment (empty for a clean or
    /// unknown segment).
    pub fn poisoned_pages(&self, key: ShmKey) -> Vec<usize> {
        self.inner
            .segments
            .lock()
            .get(&key)
            .map(|seg| seg.poisoned.iter().copied().collect())
            .unwrap_or_default()
    }

    // ---- replication support (see `crate::replica`) -----------------------

    /// Metadata snapshot of every live segment — the journal a replicator
    /// ships to the standby alongside the contents.
    pub(crate) fn segment_catalog(&self) -> Vec<SegmentMeta> {
        self.inner
            .segments
            .lock()
            .iter()
            .map(|(&key, seg)| SegmentMeta {
                key,
                name: seg.name.clone(),
                len: seg.mr.len,
                wire_bytes: seg.wire_bytes,
                version: seg.version,
                created: seg.created.clone(),
            })
            .collect()
    }

    /// A live segment's region and its version *now*, for a copy taken
    /// before the caller next yields: the version read is footprinted like
    /// a version bump's, so the explorer orders the copy against every
    /// fold and write of the segment. `None` for a dead segment.
    pub(crate) fn copy_source(&self, ctx: &SimContext, key: ShmKey) -> Option<(MemoryRegion, u64)> {
        mark(ctx, "smb.version", key.0, 0..1, AccessKind::AtomicRead);
        self.inner.segments.lock().get(&key).map(|seg| (seg.mr, seg.version))
    }

    /// Installs (or refreshes) a mirrored segment under the *same* key it
    /// has on the primary, so client handles survive failover unchanged.
    /// Returns this server's backing region for the replicator to copy
    /// contents into.
    pub(crate) fn install_replica_segment(
        &self,
        meta: &SegmentMeta,
    ) -> Result<MemoryRegion, SmbError> {
        let mut segments = self.inner.segments.lock();
        if let Some(seg) = segments.get_mut(&meta.key) {
            seg.version = meta.version;
            return Ok(seg.mr);
        }
        let mr = self.inner.rdma.register(self.inner.node, meta.len)?;
        segments.insert(
            meta.key,
            Segment {
                mr,
                wire_bytes: meta.wire_bytes,
                name: meta.name.clone(),
                version: meta.version,
                // The replicator replaces these together with the contents
                // right after the install (see `install_contents`).
                page_crcs: self.initial_page_crcs(meta.len),
                poisoned: BTreeSet::new(),
                created: meta.created.clone(),
            },
        );
        self.inner.names.lock().insert(meta.name.clone(), meta.key);
        // Keep the key allocator ahead of every mirrored key so segments
        // created *after* promotion cannot collide.
        let mut next = self.inner.next_key.lock();
        *next = (*next).max(meta.key.0 + 1);
        Ok(mr)
    }

    /// Drops a mirrored segment that no longer exists on the primary
    /// (e.g. evicted there between replication passes).
    pub(crate) fn drop_replica_segment(&self, key: ShmKey) {
        let _ = self.destroy_segment(key);
    }

    /// Both control tables — leases and eviction tombstones — cloned out
    /// for mirroring.
    pub(crate) fn control_tables(&self) -> ControlTables {
        let leases = self.inner.leases.lock().clone();
        (leases, self.inner.evicted.lock().clone())
    }

    /// Replaces this server's control tables with a mirrored snapshot.
    pub(crate) fn replace_control_tables(&self, (leases, evicted): ControlTables) {
        *self.inner.leases.lock() = leases;
        *self.inner.evicted.lock() = evicted;
    }
}

/// A server's lease and tombstone tables, as shipped to its mirror.
pub(crate) type ControlTables = (BTreeMap<ShmKey, Lease>, BTreeMap<ShmKey, Tombstone>);

/// One segment's replication metadata (the "journal entry" shipped to the
/// standby ahead of the contents).
#[derive(Debug, Clone)]
pub(crate) struct SegmentMeta {
    pub(crate) key: ShmKey,
    pub(crate) name: String,
    pub(crate) len: usize,
    pub(crate) wire_bytes: u64,
    pub(crate) version: u64,
    pub(crate) created: HbEdge,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmbClient;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
    use shmcaffe_simnet::Simulation;

    const PAGE: usize = 8;
    /// Three full pages and a short last page of five elements.
    const ELEMS: usize = 29;

    fn paged_server() -> SmbServer {
        let cfg = SmbServerConfig { page_elems: PAGE, ..SmbServerConfig::default() };
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        SmbServer::with_config(rdma, cfg).unwrap()
    }

    /// A server stands on the memory-server endpoint it is given: the
    /// `k`-th exists for `k` below the fabric's count, and a fabric without
    /// one hosts no server.
    #[test]
    fn a_server_needs_its_memory_endpoint() {
        let cfg = SmbServerConfig::default();
        let two = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let rdma = RdmaFabric::new(Fabric::new(two));
        assert!(SmbServer::with_config_at(rdma.clone(), cfg, 1).is_ok());
        let past = SmbServer::with_config_at(rdma, cfg, 2);
        assert!(matches!(past, Err(SmbError::NoMemoryServer)));
        let none = ClusterSpec { memory_servers: 0, ..ClusterSpec::paper_testbed(1) };
        let lone = SmbServer::new(RdmaFabric::new(Fabric::new(none)));
        assert!(matches!(lone, Err(SmbError::NoMemoryServer)));
    }

    /// Seeded payload: a fixed LCG mapped to modest magnitudes of both
    /// signs, so accumulates stay finite.
    fn payload(seed: u32, n: usize) -> Vec<f32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 8) as f32 / 65_536.0 - 128.0
            })
            .collect()
    }

    fn page_crcs(server: &SmbServer, key: ShmKey) -> Vec<u32> {
        server.inner.segments.lock()[&key].page_crcs.clone()
    }

    fn in_sim(f: impl FnOnce(&SimContext) + Send + 'static) {
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| f(&ctx));
        sim.run();
    }

    /// Nothing observable moved: the page-CRC vectors and the state hash of
    /// a seeded write / accumulate / partial-page-overwrite / torn-write
    /// sequence equal the literals captured on the commit before the kernel
    /// and the page walker were replaced (f9968b2). The state hash was
    /// re-captured (from `0x5db1_ffb6_4c9d_b5a2`) when true-size slot
    /// stores started bumping their segment's version like every write:
    /// `wg`'s three `write_range` calls now move its version.
    #[test]
    fn grid_state_matches_the_golden_capture() {
        let server = paged_server();
        let s = server.clone();
        in_sim(move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let wg_key = client.create(ctx, "wg", ELEMS, None).unwrap();
            let dw_key = client.create(ctx, "dw", ELEMS, None).unwrap();
            let (wg, dw) = (client.alloc(ctx, wg_key).unwrap(), client.alloc(ctx, dw_key).unwrap());
            client.write(ctx, &wg, &payload(7, ELEMS)).unwrap();
            client.write(ctx, &dw, &payload(11, ELEMS)).unwrap();
            client.accumulate(ctx, &dw, &wg).unwrap();
            // Inside one page; across three pages from mid-page to mid-page;
            // inside the short last page.
            client.write_range(ctx, &wg, 3, &payload(13, 4)).unwrap();
            client.write_range(ctx, &wg, 6, &payload(17, 12)).unwrap();
            client.write_range(ctx, &wg, 26, &payload(19, 3)).unwrap();
            s.accumulate(ctx, dw_key, wg_key, Some((5, 20))).unwrap();
            // A torn write records intent the bytes cannot match: the next
            // verification poisons the pages past the delivered prefix.
            s.inject_torn_write(ctx, dw_key, 10, &payload(23, 10), 4).unwrap();
            assert!(s.verify_region(ctx, dw_key, 0, ELEMS).is_err());
            assert_eq!(s.scrub_pass(ctx), 1);
        });
        let (wg_key, dw_key) = (server.lookup("wg").unwrap(), server.lookup("dw").unwrap());
        assert_eq!(
            page_crcs(&server, wg_key),
            [0xfff0_b7e3, 0xc189_2724, 0x49ba_2529, 0x72e5_fb9f]
        );
        assert_eq!(
            page_crcs(&server, dw_key),
            [0x4bfe_b750, 0xb79d_8f8a, 0x7b39_d7d9, 0xb54c_ba57]
        );
        assert_eq!(server.poisoned_pages(dw_key), [1, 2]);
        assert_eq!(server.state_hash(), 0xbf8a_ac39_00a5_b23f);
    }

    /// The chained overlay checksum equals the checksum of the materialised
    /// overlay for ranges that start and end mid-page, cover whole pages,
    /// and sit in the short last page.
    #[test]
    fn overlay_crc_equals_the_materialised_overlay() {
        let cases: [(usize, usize); 8] =
            [(0, ELEMS), (3, 2), (3, 5), (6, 12), (8, 8), (15, 14), (24, 5), (26, 2)];
        for (offset, len) in cases {
            let server = paged_server();
            let s = server.clone();
            in_sim(move |ctx| {
                let client = SmbClient::new(s.clone(), NodeId(0));
                let key = client.create(ctx, "seg", ELEMS, None).unwrap();
                let buf = client.alloc(ctx, key).unwrap();
                client.write(ctx, &buf, &payload(29, ELEMS)).unwrap();
                // Record intent only: the bytes stay as they are.
                s.note_write(ctx, key, offset, &payload(31, len));
            });
            let key = server.lookup("seg").unwrap();
            // Untouched pages keep their recorded CRC, which is the CRC of
            // their bytes, so one comparison covers every page.
            let mut overlaid = payload(29, ELEMS);
            overlaid[offset..offset + len].copy_from_slice(&payload(31, len));
            let expect: Vec<u32> = overlaid.chunks(PAGE).map(crc32c_f32).collect();
            assert_eq!(page_crcs(&server, key), expect, "range {offset}+{len}");
        }
    }

    /// A fresh segment's grid is the checksum of zeros, page by page, for
    /// aligned, short-tailed and smaller-than-a-page segments.
    #[test]
    fn initial_grid_hashes_zero_pages() {
        let server = paged_server();
        for elems in [0usize, 1, 5, 8, 9, 16, 29, 4100] {
            let expect: Vec<u32> = vec![0.0f32; elems].chunks(PAGE).map(crc32c_f32).collect();
            assert_eq!(server.initial_page_crcs(elems), expect, "elems {elems}");
        }
    }

    /// The corruption hooks take their offsets from outside: one near
    /// `usize::MAX` is refused as a size mismatch (saturated, not wrapped)
    /// and leaves the segment intact, rather than overflowing.
    #[test]
    fn corruption_hooks_refuse_offsets_near_usize_max() {
        let server = paged_server();
        let s = server.clone();
        in_sim(move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let key = client.create(ctx, "seg", ELEMS, None).unwrap();
            let before = page_crcs(&s, key);
            assert!(matches!(
                s.inject_bit_flip(key, usize::MAX, 0),
                Err(SmbError::SizeMismatch { expected: ELEMS, got: usize::MAX, .. })
            ));
            assert!(matches!(
                s.inject_torn_write(ctx, key, usize::MAX - 1, &payload(3, 4), 2),
                Err(SmbError::SizeMismatch { expected: ELEMS, got: usize::MAX, .. })
            ));
            assert_eq!(page_crcs(&s, key), before);
            s.verify_region(ctx, key, 0, ELEMS).unwrap();
        });
    }

    /// A span ending past the segment is refused, not clipped to the pages
    /// that exist: wholly past the end, straddling it, and with an end
    /// that overflows `usize`.
    #[test]
    fn verify_region_refuses_a_span_past_the_end() {
        let server = paged_server();
        let s = server.clone();
        in_sim(move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let key = client.create(ctx, "seg", ELEMS, None).unwrap();
            for (offset, len, got) in [
                (ELEMS + 3, 4, ELEMS + 7),
                (ELEMS - 2, 3, ELEMS + 1),
                (usize::MAX - 1, 4, usize::MAX),
            ] {
                assert!(
                    matches!(
                        s.verify_region(ctx, key, offset, len),
                        Err(SmbError::SizeMismatch { expected: ELEMS, got: g, .. }) if g == got
                    ),
                    "[{offset}, +{len})"
                );
            }
            s.verify_region(ctx, key, 0, ELEMS).unwrap();
            s.verify_region(ctx, key, ELEMS, 0).unwrap();
        });
    }

    /// Carried page CRCs must be exactly one per page: a vector of the
    /// wrong length is refused before anything is overwritten, never
    /// papered over by re-hashing.
    #[test]
    fn install_contents_refuses_a_miscounted_crc_vector() {
        let server = paged_server();
        let s = server.clone();
        in_sim(move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let key = client.create(ctx, "wg", ELEMS, None).unwrap();
            let before = page_crcs(&s, key);
            let data = payload(7, ELEMS);
            let carried: Vec<u32> = data.chunks(PAGE).map(crc32c_f32).collect();
            assert!(matches!(
                s.install_contents(key, &data, Some(&carried[..3])),
                Err(SmbError::SizeMismatch { expected: 4, got: 3, .. })
            ));
            assert_eq!(page_crcs(&s, key), before);
            s.verify_region(ctx, key, 0, ELEMS).unwrap();
            s.install_contents(key, &data, Some(&carried)).unwrap();
            assert_eq!(page_crcs(&s, key), carried);
            s.verify_region(ctx, key, 0, ELEMS).unwrap();
        });
    }
}
