//! Primary/standby SMB server pair with asynchronous replication.
//!
//! The paper hangs the whole platform off one dedicated memory server; this
//! module removes that single point of failure. An [`SmbPair`] runs the
//! regular server on the first memory endpoint (primary) and a mirror on
//! the second (standby). A background *replicator* process periodically
//! ships a journal of segment metadata plus the changed segment contents,
//! the lease table and the eviction tombstones to the standby. Each
//! completed pass bumps the pair's replication **epoch**; the wire time is
//! charged across both servers' DRAM buses and both HCAs, so replication
//! bandwidth contends with client traffic exactly like any other transfer.
//!
//! **Promotion rules.** When a client's retrying operation observes the
//! primary's crash ([`shmcaffe_simnet::fault::FaultError::NodeCrashed`]),
//! it calls [`SmbPair::fail_over`]: the first caller *promotes* the standby
//! (waiting out any in-flight replication pass, so a pass never straddles
//! the role flip), every caller then reconnects its queue pair to the
//! standby and re-resolves access keys through the mirrored segment table —
//! segments keep their [`crate::ShmKey`]s across failover, so client
//! handles stay valid. Promotion is permanent and idempotent.
//!
//! **Happens-before.** The replicator's writes into standby regions are
//! announced as plain `Write`s: they are safe only because *replicate
//! happens-before promote happens-before every client access to the
//! standby*. Each link is one [`HbEdge`] of the pair: the replicator
//! releases `repl_edge` after each pass and promotion acquires it;
//! promotion releases `promote_edge`, which every post-promotion
//! [`SmbPair::active_server`] call acquires (each worker and update thread
//! is its own process, so the acquire must happen per access, not per
//! client), and `fence_edge`, which every epoch refresh acquires. Under
//! `--features race-detect` removing any of these edges is a detectable
//! race — see `crates/smb/tests/race_detect.rs`; without the feature the
//! edges are zero-sized no-ops.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::topology::NodeId;
use shmcaffe_simnet::{AccessKind, HbEdge, SimContext, SimDuration, SimTime};

use crate::server::{
    modelled_bytes, ShmKey, SmbServer, SmbServerConfig, CONTROL_LATENCY, PROTOCOL_OVERHEAD,
    STREAM_BPS,
};
use crate::SmbError;

struct PairInner {
    primary: SmbServer,
    standby: SmbServer,
    /// Pseudo-region id for exploration footprints on the pair's fencing
    /// state (fence epoch, authority lease, promotion flags). Every read
    /// of that state is an `AtomicRead` on this region and every change an
    /// `AtomicWrite`/`AtomicRmw`, so the schedule explorer knows that
    /// admission checks do not commute with promotion or lease renewal.
    fence_region: u64,
    /// Completed replication passes (the replication epoch).
    epoch: Mutex<u64>,
    /// Standby's view of each segment's version at its last copy, for
    /// delta replication (only changed segments move bytes).
    replicated_versions: Mutex<BTreeMap<ShmKey, u64>>,
    /// A replication pass is currently in flight (the promoter waits for
    /// it to drain so no pass straddles the role flip).
    in_pass: AtomicBool,
    /// A promotion has been claimed (first fail_over caller wins).
    promote_started: AtomicBool,
    /// The promotion is complete; clients route to the standby.
    promote_done: AtomicBool,
    /// Replicator shutdown flag (set by the platform at teardown).
    stop: AtomicBool,
    /// Monotonic fencing epoch. Starts at 1 (the primary's term); the
    /// promotion winner bumps it to 2 (the standby's term). Replicated
    /// clients carry the epoch they believe active with every mutation
    /// and the pair rejects mismatches with [`SmbError::FencedEpoch`].
    fence_epoch: AtomicU64,
    /// When the primary's write authority lapses unless a successful
    /// replication pass renews it first. Once `now >= expiry` the primary
    /// self-fences (rejects its own epoch's mutations) and promotion of
    /// the standby becomes legal even though the primary never crashed —
    /// the partition-isolated-primary case.
    authority_expiry: Mutex<SimTime>,
    /// Mutations rejected with [`SmbError::FencedEpoch`] (split-brain
    /// writes that the fence stopped).
    fenced_rejections: AtomicU64,
    /// Divergent (unreplicated) segments the demoted primary discarded
    /// during partition-heal reconciliation.
    reconcile_discarded: AtomicU64,
    /// Segments the demoted primary resynced from the new primary's
    /// journal during partition-heal reconciliation.
    reconcile_resynced: AtomicU64,
    /// Poisoned pages repaired from the other member's replicated copy.
    repairs: AtomicU64,
    /// The repair fence: re-check that the target page is *still* poisoned
    /// after the repair transfer, before landing the replica's (possibly
    /// stale) bytes. On only for the schedule-checker mutation harness to
    /// turn off (`set_repair_fence`) — disabling it makes repair able to
    /// stomp a concurrent client write, which `Simulation::explore` then
    /// catches (see `tests/schedcheck.rs`).
    repair_fence: AtomicBool,
    /// Released by the promotion winner right after it acquired the fence
    /// (bumped the epoch): the fence-acquire→first-fenced-write
    /// happens-before edge, acquired by every client epoch refresh.
    fence_edge: Mutex<HbEdge>,
    /// Released at the end of every replication pass: the
    /// replicate→promote happens-before edge.
    repl_edge: Mutex<HbEdge>,
    /// Released at promotion: the promote→client-access edge, acquired by
    /// every post-promotion [`SmbPair::active_server`] call.
    promote_edge: Mutex<HbEdge>,
}

/// A replicated SMB deployment: primary plus standby with asynchronous
/// mirror traffic and client-triggered failover. Cheap to clone (shared
/// handle).
#[derive(Clone)]
pub struct SmbPair {
    inner: Arc<PairInner>,
}

impl fmt::Debug for SmbPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmbPair")
            .field("primary", &self.inner.primary.node())
            .field("standby", &self.inner.standby.node())
            .field("promoted", &self.promoted())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// Charges one member-to-member transfer of a segment modelled as
/// `wire_bytes` — the whole of it, or the `share` (see
/// [`modelled_bytes`]) — along `from`'s DRAM bus → `from`'s HCA → `to`'s
/// HCA → `to`'s DRAM bus, as one SMB stream.
fn ship(
    ctx: &SimContext,
    from: &SmbServer,
    to: &SmbServer,
    wire_bytes: u64,
    share: Option<(usize, usize)>,
) {
    let fabric = from.rdma().fabric();
    let path = [
        from.memory_resource(),
        fabric.hca_tx(from.node()),
        fabric.hca_rx(to.node()),
        to.memory_resource(),
    ];
    let wire = modelled_bytes(wire_bytes, PROTOCOL_OVERHEAD, share);
    shmcaffe_simnet::resource::transfer_path_stream(ctx, &path, wire, Some(STREAM_BPS));
}

impl SmbPair {
    /// Builds a pair over the fabric's first two memory-server endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] unless the fabric has at least
    /// two memory servers (`ClusterSpec::memory_servers >= 2`).
    pub fn new(rdma: RdmaFabric, config: SmbServerConfig) -> Result<Self, SmbError> {
        Self::new_at(rdma, config, 0)
    }

    /// Builds a pair over memory-server endpoints `first` (primary) and
    /// `first + 1` (standby): a sharded deployment is one pair per shard,
    /// at `first = 0, 2, 4, …`.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::NoMemoryServer`] if either endpoint does not
    /// exist.
    pub fn new_at(
        rdma: RdmaFabric,
        config: SmbServerConfig,
        first: usize,
    ) -> Result<Self, SmbError> {
        let primary = SmbServer::with_config_at(rdma.clone(), config, first)?;
        let standby = SmbServer::with_config_at(rdma, config, first + 1)?;
        let fence_region = crate::server::pseudo_region(
            "smb.fence",
            ((primary.node().0 as u64) << 32) | standby.node().0 as u64,
        );
        Ok(SmbPair {
            inner: Arc::new(PairInner {
                primary,
                standby,
                fence_region,
                epoch: Mutex::new(0),
                replicated_versions: Mutex::new(BTreeMap::new()),
                in_pass: AtomicBool::new(false),
                promote_started: AtomicBool::new(false),
                promote_done: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                fence_epoch: AtomicU64::new(1),
                authority_expiry: Mutex::new(SimTime::ZERO + config.authority_timeout),
                fenced_rejections: AtomicU64::new(0),
                reconcile_discarded: AtomicU64::new(0),
                reconcile_resynced: AtomicU64::new(0),
                repairs: AtomicU64::new(0),
                repair_fence: AtomicBool::new(true),
                fence_edge: Mutex::default(),
                repl_edge: Mutex::default(),
                promote_edge: Mutex::default(),
            }),
        })
    }

    /// The primary server (serving until promotion).
    pub fn primary(&self) -> &SmbServer {
        &self.inner.primary
    }

    /// The standby server (serving after promotion).
    pub fn standby(&self) -> &SmbServer {
        &self.inner.standby
    }

    /// Completed replication passes.
    pub fn epoch(&self) -> u64 {
        *self.inner.epoch.lock()
    }

    /// Whether the standby has been promoted.
    pub fn promoted(&self) -> bool {
        self.inner.promote_done.load(Ordering::Acquire)
    }

    /// The active fencing epoch: 1 while the primary holds authority, 2
    /// once the standby has been promoted.
    pub fn fence_epoch(&self) -> u64 {
        self.inner.fence_epoch.load(Ordering::Acquire)
    }

    /// Mutations rejected with [`SmbError::FencedEpoch`] so far — every
    /// split-brain write the fence stopped.
    pub fn fenced_rejections(&self) -> u64 {
        self.inner.fenced_rejections.load(Ordering::Relaxed)
    }

    /// Segments the demoted primary (discarded, resynced) during
    /// partition-heal reconciliation (see [`SmbPair::reconcile_demoted`]).
    pub fn reconcile_counts(&self) -> (u64, u64) {
        (
            self.inner.reconcile_discarded.load(Ordering::Relaxed),
            self.inner.reconcile_resynced.load(Ordering::Relaxed),
        )
    }

    /// Whether the primary's write-authority lease has lapsed: no
    /// replication pass renewed it within
    /// [`SmbServerConfig::authority_timeout`]. An expired lease both
    /// self-fences the primary and makes standby promotion legal.
    pub fn authority_expired(&self, ctx: &SimContext) -> bool {
        self.fence_footprint(ctx, AccessKind::AtomicRead);
        ctx.now() >= *self.inner.authority_expiry.lock()
    }

    /// Announces an access to the pair's fencing pseudo-region (always an
    /// engine-serialized kind: it orders schedules for the explorer and
    /// never reads as a race).
    fn fence_footprint(&self, ctx: &SimContext, kind: AccessKind) {
        ctx.access(self.inner.fence_region, 0, 1, kind, "smb.fence");
    }

    /// The current fencing epoch, with the promotion winner's fence edge
    /// acquired by the calling process — the
    /// fence-acquire→first-fenced-write happens-before edge. Clients call
    /// this whenever they refresh their carried epoch.
    pub fn observe_fence(&self, ctx: &SimContext) -> u64 {
        self.fence_footprint(ctx, AccessKind::AtomicRead);
        self.inner.fence_edge.lock().acquire(ctx);
        self.inner.fence_epoch.load(Ordering::Acquire)
    }

    /// Epoch admission for a client mutation carrying `carried` as the
    /// epoch it believes active. Admitted only when the carried epoch
    /// matches the active one *and* the serving member actually holds
    /// authority: a primary whose lease has expired rejects even
    /// current-epoch writes (self-fencing — it may already be partitioned
    /// away from a standby that is about to take over, and accepting the
    /// write would fork the center variable).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::FencedEpoch`] on any mismatch; the retry layer
    /// treats it as transient, fails over and refreshes the epoch.
    pub fn admit_mutation(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        carried: u64,
    ) -> Result<(), SmbError> {
        self.fence_footprint(ctx, AccessKind::AtomicRead);
        let active = self.inner.fence_epoch.load(Ordering::Acquire);
        let (stale, node) = if self.promoted() {
            (carried != active, self.inner.standby.node())
        } else {
            (carried != active || self.authority_expired(ctx), self.inner.primary.node())
        };
        if stale {
            self.inner.fenced_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SmbError::FencedEpoch { key, node, carried, active });
        }
        Ok(())
    }

    /// Renews the primary's authority lease — called after each
    /// successful replication pass (proof the primary can still reach the
    /// standby, so no promotion can be in progress on the other side).
    fn renew_authority(&self, ctx: &SimContext) {
        self.fence_footprint(ctx, AccessKind::AtomicWrite);
        *self.inner.authority_expiry.lock() =
            ctx.now() + self.inner.primary.config().authority_timeout;
    }

    /// Whether the still-serving primary's node has crashed according to
    /// the fabric's fault plan. Clients consult this to route plain
    /// (non-retrying) operations away from a dead primary proactively —
    /// those paths transfer infallibly and must never target a crashed
    /// endpoint. Always `false` once promoted (the primary no longer
    /// serves) or when the fabric has no fault plan.
    pub fn primary_crashed(&self, ctx: &SimContext) -> bool {
        !self.promoted() && self.primary_crashed_raw(ctx)
    }

    /// Whether the still-serving primary cannot serve `local`'s plain
    /// (infallible) operations at all: it crashed, **or** it is cut off
    /// from `local` by a network partition *and* its authority lease has
    /// already expired. The second arm is what lets infallible ops on the
    /// minority side fail over instead of riding out the partition against
    /// a primary that has lost authority anyway; while the lease is live
    /// the primary may still legitimately be renewed, so plain ops keep
    /// waiting. Always `false` once promoted.
    pub fn primary_unserviceable(&self, ctx: &SimContext, local: NodeId) -> bool {
        if self.promoted() {
            return false;
        }
        if self.primary_crashed_raw(ctx) {
            return true;
        }
        if !self.authority_expired(ctx) {
            return false;
        }
        let node = self.inner.primary.node();
        self.inner.primary.rdma().fabric().fault_injector().is_some_and(|inj| {
            inj.partitioned(local, node, ctx.now()) || inj.partitioned(node, local, ctx.now())
        })
    }

    /// The currently serving server. After promotion this also acquires
    /// the promotion edge for the calling process, establishing the
    /// replicate→promote→access happens-before chain for *every* process
    /// that touches the standby (workers and their update threads each
    /// have their own clock, so the acquire happens per call).
    pub fn active_server(&self, ctx: &SimContext) -> SmbServer {
        self.fence_footprint(ctx, AccessKind::AtomicRead);
        if self.inner.promote_done.load(Ordering::Acquire) {
            self.inner.promote_edge.lock().acquire(ctx);
            self.inner.standby.clone()
        } else {
            self.inner.primary.clone()
        }
    }

    /// One asynchronous replication pass: ships the segment journal
    /// (metadata + changed contents), the lease table and the eviction
    /// tombstones to the standby, charging wire time over the path
    /// primary DRAM bus → primary HCA → standby HCA → standby DRAM bus.
    /// Bumps and returns the replication epoch on success.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::Unavailable`] when the primary↔standby path is
    /// faulted (in particular once the primary has crashed) — the pass
    /// aborts and whatever the standby already holds is what failover gets.
    pub fn replicate(&self, ctx: &SimContext) -> Result<u64, SmbError> {
        self.inner.in_pass.store(true, Ordering::Release);
        let result = self.replicate_pass(ctx);
        // Release the pass end even when it aborted part-way: promotion
        // acquires this edge, so every standby write the pass did manage to
        // apply happens-before the promotion.
        self.inner.repl_edge.lock().release(ctx);
        self.inner.in_pass.store(false, Ordering::Release);
        if result.is_ok() {
            // The pass reached the standby and came back: the primary
            // demonstrably still owns the pair, so its lease renews.
            self.renew_authority(ctx);
        }
        result
    }

    fn replicate_pass(&self, ctx: &SimContext) -> Result<u64, SmbError> {
        let primary = &self.inner.primary;
        let standby = &self.inner.standby;
        let rdma = primary.rdma();
        let fabric = rdma.fabric();

        let catalog = primary.segment_catalog();
        // Mirror deletions first: segments evicted on the primary since the
        // last pass must not survive on the standby.
        let live: BTreeMap<ShmKey, ()> = catalog.iter().map(|m| (m.key, ())).collect();
        for meta in standby.segment_catalog() {
            if !live.contains_key(&meta.key) {
                standby.drop_replica_segment(meta.key);
                self.inner.replicated_versions.lock().remove(&meta.key);
            }
        }
        for meta in catalog {
            // The crash cuts the replication stream mid-pass: segments
            // copied before the cut stay; the rest keep their old contents.
            self.gate_from(ctx, fabric, primary.node(), standby.node())?;
            // A segment with an open chunked accumulate stream is skipped
            // *entirely* (not even installed): shipping it mid-stream would
            // hand the standby a torn, half-folded W_g that no worker ever
            // produced. The standby keeps its previous consistent copy, and
            // because `replicated_versions` is left stale, the next pass
            // after the stream closes re-ships the whole segment. A stream
            // that never closes starves that segment's replication — the
            // client side bounds streams to one exchange, so the window is
            // a few chunk round trips.
            if primary.stream_open(ctx, meta.key) {
                continue;
            }
            // Never launder corruption onto the standby: the pass verifies
            // each segment before shipping it (the replicator doubles as a
            // scrubber — failing pages get poisoned here). A dirty segment
            // is skipped entirely; `replicated_versions` stays stale, so
            // the pass after its repair re-ships the clean contents.
            let Some(verified) = primary.verified_page_crcs(ctx, meta.key) else {
                continue;
            };
            let behind =
                self.inner.replicated_versions.lock().get(&meta.key) != Some(&meta.version);
            let is_new = standby.segment(meta.key).is_err();
            let standby_mr = standby.install_replica_segment(&meta)?;
            if !behind && !is_new {
                continue;
            }
            let Ok((primary_mr, _)) = primary.segment(meta.key) else {
                // Evicted while this pass slept on the wire; the next pass
                // mirrors the deletion.
                continue;
            };
            // Region to region, and the page CRCs ride along: nothing has
            // yielded since `verified_page_crcs`, so the bytes being copied
            // are the bytes that just hashed to `verified` — the standby
            // does not hash them a second time. The copy is verified-clean,
            // so it also heals whatever the standby's own grid held before
            // (a fresh full-segment repair).
            rdma.with_region(&primary_mr, |src| {
                standby.install_contents(meta.key, src, Some(&verified))
            })??;
            // The source side is deliberately *not* announced: async
            // replication snapshots segments that clients keep mutating —
            // that concurrency is the design, not a bug (a torn snapshot is
            // healed by the next pass, and checkpoint segments use the
            // versioned protocol for state whose integrity rejoin depends
            // on). The standby side *is*, as a plain write: only the
            // replicate→promote→access edges make it safe, and any client
            // that reaches the standby without them races here.
            let (rkey, len) = (standby_mr.rkey.0, standby_mr.len);
            ctx.access(rkey, 0, len, AccessKind::Write, "smb::replica::apply");
            ship(ctx, primary, standby, meta.wire_bytes, None);
            self.inner.replicated_versions.lock().insert(meta.key, meta.version);
        }
        // Control-plane mirror: lease table and tombstones ride one control
        // message once the data plane is consistent.
        self.gate_from(ctx, fabric, primary.node(), standby.node())?;
        ctx.sleep(CONTROL_LATENCY);
        standby.replace_control_tables(primary.control_tables());
        let mut epoch = self.inner.epoch.lock();
        *epoch += 1;
        Ok(*epoch)
    }

    /// Fault gate on an explicit `from`→`to` direction (replication flows
    /// primary→standby; reconciliation and repair flow the reverse way).
    fn gate_from(
        &self,
        ctx: &SimContext,
        fabric: &shmcaffe_simnet::topology::Fabric,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), SmbError> {
        fabric.fault_check(ctx, from, to).map_err(|fault| SmbError::Unavailable {
            key: ShmKey(0),
            node: from,
            cause: shmcaffe_rdma::RdmaError::QpFault { local: to, remote: from, fault },
        })?;
        Ok(())
    }

    /// Runs the replication loop: one pass every `interval` of virtual
    /// time, until [`SmbPair::stop_replicator`] is called or the primary
    /// crashes. Transient pass failures (a partitioned or faulted
    /// primary↔standby path) do *not* stop the loop — passes keep being
    /// attempted, but the authority lease stops renewing, so the standby
    /// becomes legally promotable while the primary is still alive. If the
    /// standby is promoted out from under a live primary, the loop turns
    /// into the demoted primary's reconciliation watch: it waits for the
    /// partition to heal and then runs one [`SmbPair::reconcile_demoted`]
    /// pass. Spawn this as its own simulation process.
    pub fn run_replicator(&self, ctx: &SimContext, interval: SimDuration) {
        loop {
            ctx.sleep(interval);
            if self.inner.stop.load(Ordering::Acquire) {
                return;
            }
            if self.inner.promote_started.load(Ordering::Acquire) {
                break;
            }
            if let Err(e) = self.replicate(ctx) {
                if e.is_server_crash() {
                    // The primary is gone; the standby serves whatever the
                    // completed passes mirrored.
                    return;
                }
                // Partition or link fault on the mirror path: keep trying.
                // Each failed pass leaves the lease un-renewed, counting
                // down to the primary's self-fence.
            }
        }
        // The standby was promoted while this primary stayed alive: this
        // process becomes the demoted primary's reconciliation watch.
        self.reconcile_when_healed(ctx, interval);
    }

    /// Demoted-primary side of partition heal: waits until the
    /// primary↔standby path is partition-free (in both directions), then
    /// runs one reconciliation pass. Gives up without reconciling when the
    /// primary crashes, the pair is stopped, or the partition never heals.
    fn reconcile_when_healed(&self, ctx: &SimContext, interval: SimDuration) {
        let primary = self.inner.primary.node();
        let standby = self.inner.standby.node();
        loop {
            if self.inner.stop.load(Ordering::Acquire) || self.primary_crashed_raw(ctx) {
                return;
            }
            let rdma = self.inner.primary.rdma();
            let Some(inj) = rdma.fabric().fault_injector() else { break };
            let now = ctx.now();
            let a = inj.partitioned_until(primary, standby, now);
            let b = inj.partitioned_until(standby, primary, now);
            if a.is_none() && b.is_none() {
                break;
            }
            // Severed in at least one direction: wait for the last heal;
            // a partition that never heals leaves nothing to reconcile.
            let mut heal: Option<SimTime> = None;
            for dir in [a, b].into_iter().flatten() {
                match dir {
                    Some(t) => heal = Some(heal.map_or(t, |h| h.max(t))),
                    None => return,
                }
            }
            match heal {
                Some(at) if at > now => ctx.sleep_until(at),
                _ => ctx.sleep(interval),
            }
        }
        let _ = self.reconcile_demoted(ctx);
    }

    /// [`SmbPair::primary_crashed`] without the promotion short-circuit —
    /// the demoted primary needs its own crash status after promotion.
    fn primary_crashed_raw(&self, ctx: &SimContext) -> bool {
        self.inner
            .primary
            .rdma()
            .fabric()
            .fault_injector()
            .is_some_and(|inj| inj.memory_server_crashed(self.inner.primary.node(), ctx.now()))
    }

    /// One partition-heal reconciliation pass on the demoted primary:
    /// discards every divergent segment (version moved past what the last
    /// completed replication pass shipped — those writes were never
    /// mirrored and lost the fencing race) and every segment the new
    /// primary no longer has, then resyncs missing segments from the new
    /// primary's journal over the reverse wire path. Returns
    /// `(discarded, resynced)`; totals accumulate in
    /// [`SmbPair::reconcile_counts`].
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::Unavailable`] when the standby→primary path
    /// faults mid-pass; the counts recorded so far stand.
    pub fn reconcile_demoted(&self, ctx: &SimContext) -> Result<(u64, u64), SmbError> {
        let demoted = &self.inner.primary;
        let source = &self.inner.standby;
        let rdma = demoted.rdma();
        let fabric = rdma.fabric();
        let shipped = self.inner.replicated_versions.lock().clone();
        let live: BTreeMap<ShmKey, ()> =
            source.segment_catalog().iter().map(|m| (m.key, ())).collect();
        let mut discarded = 0u64;
        for meta in demoted.segment_catalog() {
            let diverged = shipped.get(&meta.key) != Some(&meta.version);
            if diverged || !live.contains_key(&meta.key) {
                demoted.drop_replica_segment(meta.key);
                self.inner.replicated_versions.lock().remove(&meta.key);
                discarded += 1;
                self.inner.reconcile_discarded.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut resynced = 0u64;
        for meta in source.segment_catalog() {
            if demoted.segment(meta.key).is_ok() {
                continue;
            }
            self.gate_from(ctx, fabric, source.node(), demoted.node())?;
            demoted.install_replica_segment(&meta)?;
            let Ok((src_mr, _)) = source.segment(meta.key) else {
                continue;
            };
            // The source was not verified here, so the demoted member
            // hashes what it received.
            rdma.with_region(&src_mr, |src| demoted.install_contents(meta.key, src, None))??;
            // Deliberately not race-recorded: the demoted primary is fenced
            // out of client service, so by construction nothing races with
            // the resync write (clients route to the promoted standby, and
            // any straggler mutation was already rejected FencedEpoch).
            ship(ctx, source, demoted, meta.wire_bytes, None);
            self.inner.replicated_versions.lock().insert(meta.key, meta.version);
            resynced += 1;
            self.inner.reconcile_resynced.fetch_add(1, Ordering::Relaxed);
        }
        // Control-plane resync: lease table and tombstones follow the data.
        self.gate_from(ctx, fabric, source.node(), demoted.node())?;
        ctx.sleep(CONTROL_LATENCY);
        demoted.replace_control_tables(source.control_tables());
        Ok((discarded, resynced))
    }

    /// FNV fingerprint of the pair's control-plane state plus both members'
    /// [`SmbServer::state_hash`]. Fed to
    /// [`shmcaffe_simnet::Simulation::set_state_probe`] so the schedule
    /// explorer can collapse interleavings that converge on the same
    /// replicated state (same fence epoch, same promotion status, same
    /// segment contents on both sides).
    pub fn state_hash(&self) -> u64 {
        let mut h = shmcaffe_simnet::explore::Fnv::new();
        h.write_u64(self.inner.fence_epoch.load(Ordering::Acquire));
        h.write_u8(u8::from(self.inner.promote_started.load(Ordering::Acquire)));
        h.write_u8(u8::from(self.inner.promote_done.load(Ordering::Acquire)));
        h.write_u64(*self.inner.epoch.lock());
        h.write_u64(self.inner.fenced_rejections.load(Ordering::Relaxed));
        h.write_u64(self.inner.reconcile_discarded.load(Ordering::Relaxed));
        h.write_u64(self.inner.reconcile_resynced.load(Ordering::Relaxed));
        for (key, version) in self.inner.replicated_versions.lock().iter() {
            h.write_u64(key.0);
            h.write_u64(*version);
        }
        h.write_u64(self.inner.primary.state_hash());
        h.write_u64(self.inner.standby.state_hash());
        h.finish()
    }

    /// Asks the replicator loop to exit at its next wakeup.
    pub fn stop_replicator(&self) {
        self.inner.stop.store(true, Ordering::Release);
    }

    /// Promotes the standby. Promotion is only *legal* once the primary
    /// has demonstrably lost authority: either its node crashed, or its
    /// authority lease expired without a replication pass renewing it (the
    /// partitioned-but-alive case) — callers block until one of the two
    /// holds, so a healthy primary can never be usurped. The first caller
    /// then wins: it waits out any in-flight replication pass (so the
    /// pass's standby writes are ordered before the role flip), acquires
    /// the replicator's edge, bumps the fencing epoch (acquiring the fence
    /// and releasing the fence edge), and opens the standby for routing.
    /// Later callers (and the winner) all leave with the promotion edge
    /// acquired. Returns whether this call performed the promotion.
    pub fn promote(&self, ctx: &SimContext) -> bool {
        self.fence_footprint(ctx, AccessKind::AtomicRead);
        // Legality gate first: wait out the primary's authority. Renewals
        // can push the expiry while we sleep, so re-check on every wake —
        // the loop only exits once the lease is *currently* lapsed (or the
        // primary is dead, which is instant legality).
        while !self.inner.promote_done.load(Ordering::Acquire) && !self.primary_crashed(ctx) {
            let expiry = *self.inner.authority_expiry.lock();
            if ctx.now() >= expiry {
                break;
            }
            ctx.sleep_until(expiry);
        }
        if self.inner.promote_started.swap(true, Ordering::AcqRel) {
            // Someone else is promoting (or already has): wait until the
            // flip is visible, then acquire the promotion edge.
            while !self.inner.promote_done.load(Ordering::Acquire) {
                ctx.sleep(SimDuration::from_micros(50));
            }
            self.inner.promote_edge.lock().acquire(ctx);
            return false;
        }
        while self.inner.in_pass.load(Ordering::Acquire) {
            ctx.sleep(SimDuration::from_micros(50));
        }
        self.inner.repl_edge.lock().acquire(ctx);
        // Acquire the fence: bump the epoch *before* opening the standby
        // for routing, so no client can reach the standby while the old
        // epoch still admits. The fence edge released here is acquired by
        // every epoch refresh — the fence-acquire→first-fenced-write edge.
        self.fence_footprint(ctx, AccessKind::AtomicWrite);
        self.inner.fence_epoch.fetch_add(1, Ordering::AcqRel);
        self.inner.fence_edge.lock().release(ctx);
        self.inner.promote_edge.lock().release(ctx);
        self.inner.promote_done.store(true, Ordering::Release);
        true
    }

    /// Range accumulate on the pair's currently active member: server-side
    /// `dst[offset..offset+len] += src[offset..offset+len]` with engine
    /// time charged proportionally (see `SmbServer`'s range accumulate).
    /// Acquires the promotion edge when routed at the standby, like every
    /// other post-promotion access.
    ///
    /// # Errors
    ///
    /// Returns key/length/bounds errors from the active server.
    pub fn accumulate_range(
        &self,
        ctx: &SimContext,
        src: ShmKey,
        dst: ShmKey,
        offset: usize,
        len: usize,
    ) -> Result<u64, SmbError> {
        self.active_server(ctx).accumulate(ctx, src, dst, Some((offset, len)))
    }

    /// Repairs one poisoned page of the currently active member by
    /// re-fetching the other member's replicated copy of it.
    ///
    /// The protocol, in order:
    ///
    /// 1. wait out any in-flight replication pass, then acquire the
    ///    replicator's edge — every standby byte the passes wrote
    ///    happens-before the source read below;
    /// 2. skip out if the page is no longer poisoned (another client
    ///    already repaired it — repair must only ever touch poisoned
    ///    pages);
    /// 3. read and *verify* the source copy: a page that is bad on both
    ///    members, or a key the other member never mirrored, is
    ///    [`SmbError::Unrepairable`];
    /// 4. charge the reverse wire path (source DRAM bus → source HCA →
    ///    destination HCA → destination DRAM bus) proportionally to the
    ///    page's share of the segment, gated on the fabric's fault plan;
    /// 5. **repair fence**: the transfer yielded, so re-check that the
    ///    page is *still* poisoned — a concurrent repair may have already
    ///    landed and a client write may have overwritten the page since;
    ///    landing the stale replica bytes over that write would be a
    ///    silent lost update (the mutation harness in
    ///    `tests/schedcheck.rs` proves the explorer catches exactly this
    ///    when the fence is disabled);
    /// 6. land the page as an `AtomicRmw` and clear its poison. No
    ///    version bump: repair restores bytes the standby already holds,
    ///    it does not create new data to re-replicate.
    ///
    /// # Errors
    ///
    /// [`SmbError::Unrepairable`] when no clean source copy exists
    /// (permanent); transient transport errors when the reverse path is
    /// faulted mid-repair — the caller's retry loop re-detects the
    /// poison and re-attempts.
    pub fn repair_page(&self, ctx: &SimContext, key: ShmKey, page: usize) -> Result<(), SmbError> {
        let (dst, src) = if self.promoted() {
            (&self.inner.standby, &self.inner.primary)
        } else {
            (&self.inner.primary, &self.inner.standby)
        };
        self.fence_footprint(ctx, AccessKind::AtomicRead);
        while self.inner.in_pass.load(Ordering::Acquire) {
            ctx.sleep(SimDuration::from_micros(50));
        }
        self.inner.repl_edge.lock().acquire(ctx);
        if !dst.page_poisoned(ctx, key, page) {
            return Ok(());
        }
        let data = match src.read_page_checked(ctx, key, page) {
            Ok(data) => data,
            Err(_) => return Err(SmbError::Unrepairable { key, node: dst.node(), page }),
        };
        let fabric = dst.rdma().fabric();
        self.gate_from(ctx, fabric, src.node(), dst.node())?;
        let (dst_mr, wire_bytes) = dst.segment(key)?;
        ship(ctx, src, dst, wire_bytes, Some((data.len(), dst_mr.len)));
        if self.inner.repair_fence.load(Ordering::Acquire) && !dst.page_poisoned(ctx, key, page) {
            return Ok(());
        }
        dst.install_page(ctx, key, page, &data)?;
        self.inner.repairs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Poisoned pages repaired from the other member's copy so far.
    pub fn repairs_completed(&self) -> u64 {
        self.inner.repairs.load(Ordering::Relaxed)
    }

    /// Mutation-harness knob (see `tests/schedcheck.rs`): disables the
    /// still-poisoned re-check after the repair transfer, re-introducing
    /// the lost-update window the fence exists to close. Never call this
    /// outside a model-checker run.
    pub fn set_repair_fence(&self, enabled: bool) {
        self.inner.repair_fence.store(enabled, Ordering::Release);
    }

    /// Client-side failover: promotes the standby (first caller) and moves
    /// this client's queue pair from the dead primary to the standby. The
    /// segment table was mirrored under the same keys, so rkey
    /// re-resolution happens implicitly on the caller's next operation.
    pub fn fail_over(&self, ctx: &SimContext, local: NodeId) {
        self.promote(ctx);
        self.inner.primary.rdma().reconnect_qp(
            ctx,
            local,
            self.inner.primary.node(),
            self.inner.standby.node(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
    use shmcaffe_simnet::Simulation;

    fn replicated_fabric(gpu_nodes: usize) -> RdmaFabric {
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(gpu_nodes) };
        RdmaFabric::new(Fabric::new(spec))
    }

    #[test]
    fn pair_requires_two_memory_servers() {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        assert!(matches!(
            SmbPair::new(rdma, SmbServerConfig::default()),
            Err(SmbError::NoMemoryServer)
        ));
    }

    #[test]
    fn replication_mirrors_segments_under_the_same_keys() {
        let rdma = replicated_fabric(1);
        let pair = SmbPair::new(rdma, SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("repl", move |ctx| {
            let client = crate::SmbClient::new(p.primary().clone(), NodeId(0));
            let key = client.create(&ctx, "wg", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
            assert_eq!(p.replicate(&ctx).unwrap(), 1);
            // Same ShmKey resolves on the standby, contents mirrored.
            let (mr, _) = p.standby().segment(key).unwrap();
            let copy = p.standby().rdma().with_region(&mr, |b| b.to_vec()).unwrap();
            assert_eq!(copy, vec![1.0, 2.0, 3.0, 4.0]);
            // Unchanged segments are skipped on the next pass (epoch still
            // bumps — the journal round trip happened).
            assert_eq!(p.replicate(&ctx).unwrap(), 2);
        });
        sim.run();
    }

    #[test]
    fn replication_charges_both_dram_buses() {
        let rdma = replicated_fabric(1);
        let pair = SmbPair::new(rdma, SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("repl", move |ctx| {
            let client = crate::SmbClient::new(p.primary().clone(), NodeId(0));
            let key = client.create(&ctx, "wg", 4, Some(100_000_000)).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0; 4]).unwrap();
            let before = p.standby().memory_bytes();
            p.replicate(&ctx).unwrap();
            assert!(
                p.standby().memory_bytes() > before + 100_000_000,
                "standby DRAM bus must carry the mirrored contents"
            );
        });
        sim.run();
    }

    #[test]
    fn replication_mirrors_deletions_leases_and_tombstones() {
        use shmcaffe_simnet::SimDuration;
        let rdma = replicated_fabric(1);
        let cfg =
            SmbServerConfig { lease_timeout: SimDuration::from_millis(50), ..Default::default() };
        let pair = SmbPair::new(rdma, cfg).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("repl", move |ctx| {
            let client = crate::SmbClient::new(p.primary().clone(), NodeId(0));
            let key = client.create_owned(&ctx, "dw1", 4, None, 1).unwrap();
            p.replicate(&ctx).unwrap();
            assert!(p.standby().segment(key).is_ok());
            assert_eq!(p.standby().lease_owner(key), Some(1));
            // Owner 1 stops heartbeating; the primary evicts, and the next
            // pass mirrors both the deletion and the tombstone.
            ctx.sleep(SimDuration::from_millis(100));
            assert_eq!(p.primary().evict_stale(&ctx), vec![key]);
            p.replicate(&ctx).unwrap();
            assert!(matches!(
                p.standby().segment(key),
                Err(SmbError::LeaseExpired { owner: 1, .. })
            ));
            assert_eq!(p.standby().tombstone_count(), 1);
        });
        sim.run();
    }

    #[test]
    fn open_accumulate_stream_defers_replication_until_closed() {
        let rdma = replicated_fabric(1);
        let pair = SmbPair::new(rdma, SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("repl", move |ctx| {
            let client = crate::SmbClient::new(p.primary().clone(), NodeId(0));
            let policy = crate::RetryPolicy::with_seed(4);
            let wg = client.alloc(&ctx, client.create(&ctx, "wg", 4, None).unwrap()).unwrap();
            let dw = client.alloc(&ctx, client.create(&ctx, "dw", 4, None).unwrap()).unwrap();
            client.write(&ctx, &wg, &[1.0; 4]).unwrap();
            p.replicate(&ctx).unwrap();
            // Open a chunk stream and fold only the first half: W_g on the
            // primary is now torn (half old, half new).
            p.primary().begin_accumulate_stream(&ctx, wg.key);
            client.write_range_retrying(&ctx, &dw, 0, &[10.0, 10.0], &policy).unwrap();
            client.accumulate_range_retrying(&ctx, &dw, &wg, 0, 2, &policy).unwrap();
            // A pass during the stream must NOT ship the torn state.
            p.replicate(&ctx).unwrap();
            let (mr, _) = p.standby().segment(wg.key).unwrap();
            let copy = p.standby().rdma().with_region(&mr, |b| b.to_vec()).unwrap();
            assert_eq!(copy, vec![1.0; 4], "standby must keep the pre-stream W_g");
            // Close the stream after the second half lands; the next pass
            // ships the now-consistent contents.
            client.write_range_retrying(&ctx, &dw, 2, &[10.0, 10.0], &policy).unwrap();
            client.accumulate_range_retrying(&ctx, &dw, &wg, 2, 2, &policy).unwrap();
            p.primary().end_accumulate_stream(&ctx, wg.key);
            p.replicate(&ctx).unwrap();
            let copy = p.standby().rdma().with_region(&mr, |b| b.to_vec()).unwrap();
            assert_eq!(copy, vec![11.0; 4], "post-stream pass ships the folded W_g");
        });
        sim.run();
    }

    #[test]
    fn promotion_is_idempotent_and_flips_routing() {
        let rdma = replicated_fabric(1);
        let pair = SmbPair::new(rdma, SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            assert!(!p.promoted());
            assert_eq!(p.active_server(&ctx).node(), p.primary().node());
            assert!(p.promote(&ctx));
            assert!(!p.promote(&ctx), "second promote is a no-op");
            assert!(p.promoted());
            assert_eq!(p.active_server(&ctx).node(), p.standby().node());
        });
        sim.run();
    }

    #[test]
    fn promotion_blocks_until_lease_expiry_without_crash() {
        use shmcaffe_simnet::SimTime;
        let rdma = replicated_fabric(1);
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(80),
            ..Default::default()
        };
        let pair = SmbPair::new(rdma, cfg).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("usurper", move |ctx| {
            assert_eq!(p.fence_epoch(), 1);
            assert!(!p.authority_expired(&ctx));
            // No crash and a live lease: promote must wait the lease out.
            assert!(p.promote(&ctx));
            assert!(ctx.now() >= SimTime::from_millis(80), "{:?}", ctx.now());
            assert_eq!(p.fence_epoch(), 2);
        });
        sim.run();
    }

    #[test]
    fn expired_lease_self_fences_and_fenced_retry_fails_over() {
        use shmcaffe_simnet::SimDuration;
        let rdma = replicated_fabric(1);
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(50),
            ..Default::default()
        };
        let pair = SmbPair::new(rdma, cfg).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = crate::SmbClient::with_failover(p.clone(), NodeId(0));
            let policy = crate::RetryPolicy::with_seed(7);
            let key = client.create(&ctx, "wg", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write_retrying(&ctx, &buf, &[1.0; 4], &policy).unwrap();
            p.replicate(&ctx).unwrap();
            // Nothing renews the lease past here; let it lapse.
            ctx.sleep(SimDuration::from_millis(100));
            assert!(p.authority_expired(&ctx));
            let v_before = p.primary().version(key).unwrap();
            // Plain mutations are rejected outright: the primary has lost
            // authority even though its epoch is still nominally active.
            assert!(matches!(
                client.write(&ctx, &buf, &[6.0; 4]),
                Err(SmbError::FencedEpoch { carried: 1, active: 1, .. })
            ));
            assert_eq!(p.primary().version(key).unwrap(), v_before, "fenced write landed");
            assert!(p.fenced_rejections() >= 1);
            // The retrying path recovers: the rejection triggers failover
            // (legal — the lease is expired), an epoch refresh, and the
            // next attempt lands on the promoted standby.
            client.write_retrying(&ctx, &buf, &[2.0; 4], &policy).unwrap();
            assert!(p.promoted());
            assert_eq!(p.fence_epoch(), 2);
            assert_eq!(client.carried_epoch(), 2);
            let (mr, _) = p.standby().segment(key).unwrap();
            let copy = p.standby().rdma().with_region(&mr, |b| b.to_vec()).unwrap();
            assert_eq!(copy, vec![2.0; 4]);
            assert!(client.fault_stats().fenced >= 2);
        });
        sim.run();
    }

    #[test]
    fn transient_partition_does_not_promote_or_stop_replication() {
        use shmcaffe_simnet::fault::FaultPlan;
        use shmcaffe_simnet::SimTime;
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let primary = NodeId(spec.gpu_nodes);
        let standby = NodeId(spec.gpu_nodes + 1);
        // Mirror path severed 30–60 ms; authority outlives the partition.
        let plan = FaultPlan::new(13).partition(
            vec![vec![primary], vec![NodeId(0), standby]],
            SimTime::from_millis(30),
            Some(SimTime::from_millis(60)),
        );
        let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(100),
            ..Default::default()
        };
        let pair = SmbPair::new(rdma, cfg).unwrap();
        {
            let p = pair.clone();
            let mut sim = Simulation::new();
            sim.spawn("replicator", move |ctx| {
                p.run_replicator(&ctx, SimDuration::from_millis(10));
            });
            let p = pair.clone();
            sim.spawn("observer", move |ctx| {
                ctx.sleep_until(SimTime::from_millis(105));
                assert!(!p.promoted(), "a transient partition must not promote");
                assert!(!p.authority_expired(&ctx), "post-heal passes renewed the lease");
                p.stop_replicator();
            });
            sim.run();
        }
        // Passes at 10, 20 succeeded; 30–60 failed inside the partition;
        // passes resumed after the heal.
        assert!(pair.epoch() >= 4, "epoch {}", pair.epoch());
        assert!(!pair.promoted());
    }

    #[test]
    fn demoted_primary_reconciles_after_partition_heals() {
        use shmcaffe_simnet::fault::FaultPlan;
        use shmcaffe_simnet::SimTime;
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let primary = NodeId(spec.gpu_nodes);
        let standby = NodeId(spec.gpu_nodes + 1);
        // The primary lands alone on the minority side; the client and the
        // standby stay connected on the majority side. Heals at 200 ms.
        let plan = FaultPlan::new(29).partition(
            vec![vec![primary], vec![NodeId(0), standby]],
            SimTime::from_millis(30),
            Some(SimTime::from_millis(200)),
        );
        let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
        let cfg = SmbServerConfig {
            authority_timeout: SimDuration::from_millis(50),
            ..Default::default()
        };
        let pair = SmbPair::new(rdma, cfg).unwrap();
        let mut sim = Simulation::new();
        {
            let p = pair.clone();
            sim.spawn("replicator", move |ctx| {
                p.run_replicator(&ctx, SimDuration::from_millis(10));
            });
        }
        let p = pair.clone();
        sim.spawn("w", move |ctx| {
            let client = crate::SmbClient::with_failover(p.clone(), NodeId(0));
            let policy = crate::RetryPolicy::with_seed(29);
            let key = client.create(&ctx, "wg", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write_retrying(&ctx, &buf, &[1.0; 4], &policy).unwrap();
            // A write the replicator never ships: it lands at 25 ms, after
            // the pass at 20 ms, and the partition at 30 ms cuts the next
            // pass — the divergent state reconciliation must discard.
            ctx.sleep_until(SimTime::from_millis(25));
            let direct = crate::SmbClient::new(p.primary().clone(), NodeId(0));
            direct.write(&ctx, &buf, &[9.0; 4]).unwrap();
            // Inside the partition, past the lease: the retrying write
            // observes the severed path plus the expired lease, promotes
            // the standby and lands there at epoch 2.
            ctx.sleep_until(SimTime::from_millis(100));
            assert!(p.authority_expired(&ctx));
            client.write_retrying(&ctx, &buf, &[5.0; 4], &policy).unwrap();
            assert!(p.promoted());
            assert_eq!(p.fence_epoch(), 2);
            assert_eq!(client.carried_epoch(), 2);
            // After the heal the replicator's reconciliation watch runs:
            // the demoted primary drops its divergent [9.0] state and
            // resyncs the promoted side's [5.0].
            ctx.sleep_until(SimTime::from_millis(250));
            assert_eq!(p.reconcile_counts(), (1, 1));
            let (mr, _) = p.primary().segment(key).unwrap();
            let copy = p.primary().rdma().with_region(&mr, |b| b.to_vec()).unwrap();
            assert_eq!(copy, vec![5.0; 4], "demoted primary must adopt the new epoch's state");
        });
        sim.run();
        let stats = pair.primary().rdma().fabric().fault_injector().unwrap().stats();
        assert!(stats.partition_hits >= 1);
    }

    #[test]
    fn replicator_loop_stops_after_primary_crash() {
        use shmcaffe_simnet::fault::FaultPlan;
        use shmcaffe_simnet::SimTime;
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let primary_node = NodeId(spec.gpu_nodes);
        let plan = FaultPlan::new(9).crash_memory_server(primary_node, SimTime::from_millis(25));
        let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
        let pair = SmbPair::new(rdma, SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("replicator", move |ctx| {
            p.run_replicator(&ctx, SimDuration::from_millis(10));
            // Two clean passes (t=10, t=20) before the crash kills the third.
            assert_eq!(p.epoch(), 2);
        });
        // The sim terminates because the loop exits — no stop flag needed.
        sim.run();
    }
}
