use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shmcaffe_rdma::MemoryRegion;
use shmcaffe_simnet::fault::FaultError;
use shmcaffe_simnet::resource::transfer_path_stream;
use shmcaffe_simnet::topology::NodeId;
use shmcaffe_simnet::{AccessKind, SimContext};

use crate::retry::RetryPolicy;
use crate::server::{
    modelled_bytes, ShmKey, SmbServer, CONTROL_LATENCY, PROTOCOL_OVERHEAD, STREAM_BPS,
};
use crate::SmbError;

/// One control-message request and its reply.
fn control_round_trip(ctx: &SimContext) {
    ctx.sleep(CONTROL_LATENCY + CONTROL_LATENCY);
}

/// Counters of fault effects one client has observed across its retrying
/// operations (shared between clones of the same client).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientFaultStats {
    /// Individual attempts that failed with a transient transport error.
    pub faults: u64,
    /// Failed attempts that a later attempt recovered from.
    pub retries: u64,
    /// Longest virtual time (ms) from a retried op's first attempt to its
    /// eventual success — the client's worst-case recovery latency.
    pub max_recovery_ms: f64,
    /// Mutations rejected with [`SmbError::FencedEpoch`] before this
    /// client refreshed its carried epoch.
    pub fenced: u64,
    /// Corruption events detected end-to-end by this client's retrying
    /// operations: poisoned pages ([`SmbError::Corrupted`]) plus wire
    /// checksum mismatches ([`SmbError::CorruptedWire`]).
    pub corruptions_detected: u64,
    /// Poisoned pages this client repaired from the pair's other member.
    pub corruptions_repaired: u64,
    /// Detected corruptions with no clean copy left to repair from
    /// (surfaced as [`SmbError::Unrepairable`]).
    pub corruptions_unrepairable: u64,
}

/// An allocated SMB buffer: the SHM key plus the access key (rkey) returned
/// by the server (paper Fig. 2 step "SHM access key").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmbBuffer {
    /// The generation key identifying the segment.
    pub key: ShmKey,
    /// The RDMA access key granting direct access.
    pub mr: MemoryRegion,
    /// Modelled wire size of a full-buffer transfer, in bytes.
    pub wire_bytes: u64,
}

impl SmbBuffer {
    /// Buffer length in f32 elements.
    pub fn len(&self) -> usize {
        self.mr.len
    }

    /// Whether the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.mr.len == 0
    }
}

/// Where a client's operations land: one fixed server, or a replicated
/// pair whose active member can change at failover.
#[derive(Clone)]
enum Route {
    Single(SmbServer),
    Replicated(crate::SmbPair),
}

/// Decision (1) of an op: how it reaches the server.
#[derive(Clone, Copy)]
enum Gate<'a> {
    /// Plain ops *stall*: they route through [`SmbClient::active`] (which
    /// fails over proactively), never consult the fault gate, admit with a
    /// refreshed epoch, stream at the nominal rate and draw nothing from
    /// the injector's corruption stream — their transfers ride faults out
    /// inside the fabric, so they run once (and once more after repairing
    /// a poisoned page).
    Stall,
    /// Retrying ops *fail fast*: each attempt routes by promotion state
    /// alone, passes the fault gate in its direction, admits strictly,
    /// streams at the nominal rate, takes the wire-flip/torn-write draws,
    /// and is re-run under the policy.
    FailFast(&'a RetryPolicy),
}

/// One row of the op table (DESIGN.md §5l): what the public data entry
/// points differ in, evaluated by the one pipeline below.
#[derive(Clone, Copy)]
struct Op<'a> {
    gate: Gate<'a>,
    /// Decision (2), chosen by the entry point and never by inspecting the
    /// span: a full-length `Share` is not bit-equal to `Whole`.
    pricing: Pricing,
    /// Decision (4): `None` spans the whole buffer, `Some(offset)` the
    /// `offset..offset + len` range.
    offset: Option<usize>,
}

impl<'a> Op<'a> {
    fn plain(pricing: Pricing, offset: Option<usize>) -> Self {
        Op { gate: Gate::Stall, pricing, offset }
    }

    fn retrying(policy: &'a RetryPolicy, pricing: Pricing, offset: Option<usize>) -> Self {
        Op { gate: Gate::FailFast(policy), pricing, offset }
    }
}

/// Decision (2): what moving a span costs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pricing {
    /// The buffer's whole modelled size, whatever the span.
    Whole,
    /// The span's proportional share of the modelled size.
    Share,
    /// The span's physical size, `len·4` bytes: the control-info ops.
    TrueSize,
}

/// A worker-side handle to the SMB server, bound to the worker's node.
///
/// All operations charge virtual time: control messages pay the configured
/// control latency; data movement pays RDMA wire time on the fabric.
///
/// Every operation re-resolves the segment's access key from the currently
/// active server, so a buffer handle stays valid across failover to a
/// standby (the mirror keeps segments under the same [`ShmKey`]s).
#[derive(Clone)]
pub struct SmbClient {
    route: Route,
    local: NodeId,
    stats: Arc<Mutex<ClientFaultStats>>,
    /// The fencing epoch this client believes active (carried with every
    /// mutation against a replicated pair; ignored on a single server).
    /// Shared between clones so a worker and its update thread fence as
    /// one client.
    carried: Arc<AtomicU64>,
}

impl fmt::Debug for SmbClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmbClient").field("local", &self.local).finish()
    }
}

impl SmbClient {
    /// Binds a client on `local` to `server`.
    pub fn new(server: SmbServer, local: NodeId) -> Self {
        SmbClient {
            route: Route::Single(server),
            local,
            stats: Arc::new(Mutex::new(ClientFaultStats::default())),
            carried: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Binds a client on `local` to a replicated server pair: operations
    /// go to the pair's active member, and the retrying operations fail
    /// over to the standby when they observe the primary's crash.
    pub fn with_failover(pair: crate::SmbPair, local: NodeId) -> Self {
        SmbClient {
            route: Route::Replicated(pair),
            local,
            stats: Arc::new(Mutex::new(ClientFaultStats::default())),
            carried: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The fencing epoch this client currently carries with mutations.
    pub fn carried_epoch(&self) -> u64 {
        self.carried.load(Ordering::Acquire)
    }

    /// Fault counters accumulated by this client's retrying operations.
    /// Clones of a client (e.g. a worker's update thread) share the same
    /// counters, so this reports the whole worker's view.
    pub fn fault_stats(&self) -> ClientFaultStats {
        *self.stats.lock()
    }

    /// Whether this client's node is currently severed from the server it
    /// would route an operation to by a seeded network partition (in
    /// either direction). Retrying operations that exhaust their budget
    /// inside a partition window surface a summarized
    /// [`SmbError::Timeout`] that hides the cause; degraded-mode callers
    /// (SEASGD partition buffering) use this probe to distinguish a
    /// partition outage — worth buffering through — from other loss.
    pub fn partitioned_from_server(&self, ctx: &SimContext) -> bool {
        let server = self.server();
        let node = server.node();
        if node == self.local {
            return false;
        }
        server.rdma().fabric().fault_injector().is_some_and(|inj| {
            inj.partitioned(self.local, node, ctx.now())
                || inj.partitioned(node, self.local, ctx.now())
        })
    }

    /// The replicated pair behind this client, if it was built with
    /// [`SmbClient::with_failover`].
    pub fn pair(&self) -> Option<&crate::SmbPair> {
        match &self.route {
            Route::Single(_) => None,
            Route::Replicated(pair) => Some(pair),
        }
    }

    /// The server this client currently talks to (the active member of a
    /// replicated pair). Control-plane callers (eviction sweeps, stats)
    /// use this; the data-plane ops below resolve the active server per
    /// attempt themselves.
    pub fn server(&self) -> SmbServer {
        match &self.route {
            Route::Single(s) => s.clone(),
            Route::Replicated(pair) => {
                if pair.promoted() {
                    pair.standby().clone()
                } else {
                    pair.primary().clone()
                }
            }
        }
    }

    /// The active server for an in-simulation operation. For a replicated
    /// pair this also acquires the promotion edge (the promote→access
    /// happens-before edge) into the calling process's clock.
    ///
    /// If the primary has become unserviceable — crashed, or partitioned
    /// away from this client with its authority lease already expired —
    /// and nobody has promoted the standby yet, this performs the
    /// failover first: plain (non-retrying) operations transfer
    /// infallibly, so they must never be routed at an endpoint that can
    /// never answer. The fault-gated retrying attempts use
    /// [`SmbClient::active_raw`] instead — they *want* to hit the dead
    /// primary, observe [`FaultError::NodeCrashed`] through the gate (which
    /// charges the detection latency and the fault/retry accounting), and
    /// only then fail over.
    ///
    /// [`FaultError::NodeCrashed`]: shmcaffe_simnet::fault::FaultError::NodeCrashed
    fn active(&self, ctx: &SimContext) -> &SmbServer {
        if let Route::Replicated(pair) = &self.route {
            if pair.primary_unserviceable(ctx, self.local) {
                pair.fail_over(ctx, self.local);
                self.refresh_epoch(ctx);
            }
        }
        self.active_raw(ctx)
    }

    /// [`SmbClient::active`] without the proactive crash check: routes by
    /// the pair's current promotion state only.
    fn active_raw(&self, ctx: &SimContext) -> &SmbServer {
        match &self.route {
            Route::Single(s) => {
                let _ = ctx;
                s
            }
            Route::Replicated(pair) => pair.active_server(ctx),
        }
    }

    /// Re-reads the pair's active fencing epoch into this client's carried
    /// epoch, acquiring the promotion winner's fence edge (the
    /// fence-acquire→first-fenced-write happens-before edge). No-op for a
    /// single-server route.
    fn refresh_epoch(&self, ctx: &SimContext) {
        if let Route::Replicated(pair) = &self.route {
            self.carried.store(pair.observe_fence(ctx), Ordering::Release);
        }
    }

    /// Epoch admission for one mutation attempt. A *plain* op has no retry
    /// loop to recover a rejection through, so observing the promoted role
    /// via routing counts as its epoch discovery: the carried epoch
    /// refreshes first, and admission then rejects only genuinely illegal
    /// writes (a primary past its authority lease — the split-brain
    /// window). A *retrying* attempt presents its carried epoch as-is; a
    /// stale one is rejected [`SmbError::FencedEpoch`] and the retry loop
    /// fails over and refreshes before the next attempt.
    fn admit(&self, ctx: &SimContext, gate: Gate<'_>, key: ShmKey) -> Result<(), SmbError> {
        let Route::Replicated(pair) = &self.route else { return Ok(()) };
        if matches!(gate, Gate::Stall) && pair.promoted() {
            self.refresh_epoch(ctx);
        }
        let r = pair.admit_mutation(ctx, key, self.carried.load(Ordering::Acquire));
        if r.is_err() {
            self.stats.lock().fenced += 1;
        }
        r
    }

    /// Creates a named shared buffer on the server (master-only in the
    /// ShmCaffe protocol) and returns the SHM key to broadcast.
    ///
    /// `wire_bytes` models the buffer's logical size for timing; `None`
    /// uses the physical size.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::DuplicateName`] for a reused name.
    pub fn create(
        &self,
        ctx: &SimContext,
        name: &str,
        elems: usize,
        wire_bytes: Option<u64>,
    ) -> Result<ShmKey, SmbError> {
        let server = self.active(ctx);
        control_round_trip(ctx);
        self.admit(ctx, Gate::Stall, ShmKey(0))?;
        server.create_segment(ctx, name, elems, wire_bytes)
    }

    /// Requests allocation of the segment named by a broadcast SHM key and
    /// receives the access key (paper Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::UnknownKey`] for a dead key.
    pub fn alloc(&self, ctx: &SimContext, key: ShmKey) -> Result<SmbBuffer, SmbError> {
        let server = self.active(ctx);
        control_round_trip(ctx);
        let (mr, wire_bytes) = server.alloc_segment(ctx, key)?;
        Ok(SmbBuffer { key, mr, wire_bytes })
    }

    /// Deallocates the segment (any holder may free; the ShmCaffe master
    /// frees at shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::UnknownKey`] if already freed.
    pub fn free(&self, ctx: &SimContext, buf: SmbBuffer) -> Result<(), SmbError> {
        let server = self.active(ctx);
        control_round_trip(ctx);
        self.admit(ctx, Gate::Stall, buf.key)?;
        server.destroy_segment(buf.key)
    }

    /// Like [`SmbClient::create`], but binds the segment to `owner`'s
    /// lease: if that rank stops heartbeating for longer than
    /// [`crate::SmbServerConfig::lease_timeout`], the server's
    /// [`SmbServer::evict_stale`] reclaims the segment.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::DuplicateName`] for a reused name.
    pub fn create_owned(
        &self,
        ctx: &SimContext,
        name: &str,
        elems: usize,
        wire_bytes: Option<u64>,
        owner: usize,
    ) -> Result<ShmKey, SmbError> {
        let server = self.active(ctx);
        control_round_trip(ctx);
        self.admit(ctx, Gate::Stall, ShmKey(0))?;
        server.create_segment_owned(ctx, name, elems, wire_bytes, Some(owner))
    }

    /// Sends a heartbeat for `owner`, refreshing every lease that rank
    /// holds. One-way control message (no reply needed).
    pub fn heartbeat(&self, ctx: &SimContext, owner: usize) {
        let server = self.active(ctx);
        ctx.sleep(CONTROL_LATENCY);
        server.touch_owner(ctx, owner);
    }

    /// Acknowledges this rank's evictions on the active server, reclaiming
    /// its tombstones (see [`SmbServer::ack_eviction`]). A rejoining worker
    /// calls this after reading its [`SmbError::LeaseExpired`] verdicts and
    /// before re-creating its buffers. Returns the tombstones reclaimed.
    pub fn ack_eviction(&self, ctx: &SimContext, owner: usize) -> usize {
        let server = self.active(ctx);
        control_round_trip(ctx);
        server.ack_eviction(ctx, owner)
    }

    // ---- data ops: thirteen fronts over one pipeline ----------------------
    //
    // Every front below fills an `Op` (one row of the table in DESIGN.md
    // §5l) and hands it to `read_op`, `write_op` or `accumulate_op`.

    /// RDMA-reads the whole buffer into `out`, charging the wire time of
    /// the buffer's logical size.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] if `out.len() != buf.len()`.
    pub fn read(&self, ctx: &SimContext, buf: &SmbBuffer, out: &mut [f32]) -> Result<(), SmbError> {
        self.read_op(ctx, Op::plain(Pricing::Whole, None), "smb::client::read", buf, out)
    }

    /// RDMA-writes `data` over the whole buffer, charging the wire time of
    /// the buffer's logical size, and bumps the segment version.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] if `data.len() != buf.len()`.
    pub fn write(&self, ctx: &SimContext, buf: &SmbBuffer, data: &[f32]) -> Result<(), SmbError> {
        let tag = (AccessKind::Write, "smb::client::write");
        self.write_op(ctx, Op::plain(Pricing::Whole, None), tag, buf, data)
    }

    /// Reads/writes a small sub-range at its true (unscaled) wire size —
    /// used for the control-info region where workers share progress
    /// counters (paper §III-E).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] if the range exceeds the buffer.
    pub fn read_range(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        offset: usize,
        out: &mut [f32],
    ) -> Result<(), SmbError> {
        let op = Op::plain(Pricing::TrueSize, Some(offset));
        self.read_op(ctx, op, "smb::client::read_range", buf, out)
    }

    /// Writes a small sub-range at its true wire size (see
    /// [`SmbClient::read_range`]) and bumps the segment version. A slot
    /// store is the one unfenced write: it skips epoch admission.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] if the range exceeds the buffer.
    pub fn write_range(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        offset: usize,
        data: &[f32],
    ) -> Result<(), SmbError> {
        let tag = (AccessKind::AtomicWrite, "smb::client::write_range");
        self.write_op(ctx, Op::plain(Pricing::TrueSize, Some(offset)), tag, buf, data)
    }

    /// Sends an accumulate request: server-side `dst += src` (paper eq. 7,
    /// steps T.A2–T.A4). Charges one control round trip plus the engine's
    /// queueing and service time; returns the destination's new version.
    ///
    /// # Errors
    ///
    /// Returns key and length-mismatch errors.
    pub fn accumulate(
        &self,
        ctx: &SimContext,
        src: &SmbBuffer,
        dst: &SmbBuffer,
    ) -> Result<u64, SmbError> {
        self.accumulate_op(ctx, Op::plain(Pricing::Whole, None), src, dst, dst.len())
    }

    /// Fault-tolerant [`SmbClient::read`]: each attempt can fail inside an
    /// injected fault window; failures are retried under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] immediately for a bad slice;
    /// [`SmbError::Timeout`] when the policy's attempts/deadline run out.
    pub fn read_retrying(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        out: &mut [f32],
        policy: &RetryPolicy,
    ) -> Result<(), SmbError> {
        let op = Op::retrying(policy, Pricing::Whole, None);
        self.read_op(ctx, op, "smb::client::read_retrying", buf, out)
    }

    /// Fault-tolerant [`SmbClient::write`] (see [`SmbClient::read_retrying`]).
    /// Writes are idempotent full-buffer stores, so re-issuing after a
    /// faulted attempt is safe.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] immediately for a bad slice;
    /// [`SmbError::Timeout`] when the policy's attempts/deadline run out.
    pub fn write_retrying(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        data: &[f32],
        policy: &RetryPolicy,
    ) -> Result<(), SmbError> {
        let tag = (AccessKind::Write, "smb::client::write_retrying");
        self.write_op(ctx, Op::retrying(policy, Pricing::Whole, None), tag, buf, data)
    }

    /// Fault-tolerant [`SmbClient::accumulate`]: the control message to the
    /// server can fail inside a fault window and is retried under `policy`.
    /// The server-side accumulate itself is local to the memory server, so
    /// only the client→server control path is gated.
    ///
    /// # Errors
    ///
    /// Returns key/length errors immediately; [`SmbError::Timeout`] when
    /// the policy's attempts/deadline run out.
    pub fn accumulate_retrying(
        &self,
        ctx: &SimContext,
        src: &SmbBuffer,
        dst: &SmbBuffer,
        policy: &RetryPolicy,
    ) -> Result<u64, SmbError> {
        self.accumulate_op(ctx, Op::retrying(policy, Pricing::Whole, None), src, dst, dst.len())
    }

    /// Fault-tolerant sub-range read at the range's *proportional* wire
    /// cost — the streaming-read building block of the chunked exchange
    /// (unlike [`SmbClient::read_range`], which moves control-info bytes at
    /// their true size).
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] immediately if the range exceeds
    /// the buffer; [`SmbError::Timeout`] when the policy runs out.
    pub fn read_range_retrying(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        offset: usize,
        out: &mut [f32],
        policy: &RetryPolicy,
    ) -> Result<(), SmbError> {
        let op = Op::retrying(policy, Pricing::Share, Some(offset));
        self.read_op(ctx, op, "smb::client::read_range_retrying", buf, out)
    }

    /// Fault-tolerant sub-range write at proportional wire cost (the T.A1
    /// step of a chunked exchange). Idempotent per chunk: re-issuing a
    /// faulted attempt overwrites the same range.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] immediately if the range exceeds
    /// the buffer; [`SmbError::Timeout`] when the policy runs out.
    pub fn write_range_retrying(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        offset: usize,
        data: &[f32],
        policy: &RetryPolicy,
    ) -> Result<(), SmbError> {
        let tag = (AccessKind::Write, "smb::client::write_range_retrying");
        self.write_op(ctx, Op::retrying(policy, Pricing::Share, Some(offset)), tag, buf, data)
    }

    /// Fault-tolerant range accumulate: server-side `dst[range] +=
    /// src[range]` (the T.A2–T.A3 step of a chunked exchange), engine time
    /// charged proportionally to the range. Same gating as
    /// [`SmbClient::accumulate_retrying`].
    ///
    /// # Errors
    ///
    /// Returns key/length/bounds errors immediately; [`SmbError::Timeout`]
    /// when the policy runs out.
    pub fn accumulate_range_retrying(
        &self,
        ctx: &SimContext,
        src: &SmbBuffer,
        dst: &SmbBuffer,
        offset: usize,
        len: usize,
        policy: &RetryPolicy,
    ) -> Result<u64, SmbError> {
        self.accumulate_op(ctx, Op::retrying(policy, Pricing::Share, Some(offset)), src, dst, len)
    }

    /// Writes a checkpoint buffer under `policy`, tagged as an *atomic*
    /// (seqlock-style versioned) publication. Unlike a SEASGD weight
    /// write, a checkpoint write and a rejoining worker's checkpoint read
    /// have **no** happens-before edge — the rejoiner discovers the
    /// checkpoint through the replicated segment catalog, not through a
    /// message from the writer — so both sides must use the versioned
    /// (atomic) protocol to stay race-free by design.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] immediately for a bad slice;
    /// [`SmbError::Timeout`] when the policy's attempts/deadline run out.
    pub fn checkpoint_write(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        data: &[f32],
        policy: &RetryPolicy,
    ) -> Result<(), SmbError> {
        let tag = (AccessKind::AtomicWrite, "smb::client::checkpoint_write");
        self.write_op(ctx, Op::retrying(policy, Pricing::Whole, None), tag, buf, data)
    }

    /// Reads a checkpoint buffer under `policy` with the atomic
    /// (versioned) protocol — the read side of
    /// [`SmbClient::checkpoint_write`], used by rejoining workers.
    ///
    /// # Errors
    ///
    /// Returns [`SmbError::SizeMismatch`] immediately for a bad slice;
    /// [`SmbError::Timeout`] when the policy's attempts/deadline run out.
    pub fn checkpoint_read(
        &self,
        ctx: &SimContext,
        buf: &SmbBuffer,
        out: &mut [f32],
        policy: &RetryPolicy,
    ) -> Result<(), SmbError> {
        let op = Op::retrying(policy, Pricing::Whole, None);
        self.read_op(ctx, op, "smb::client::checkpoint_read", buf, out)
    }

    // ---- the op pipeline ---------------------------------------------------

    /// Runs `attempt` through [`SmbClient::retrying`] after the pipeline's
    /// only span check: a whole-buffer op must cover the buffer exactly, a
    /// range op must end inside it.
    fn execute<T>(
        &self,
        ctx: &SimContext,
        op: Op<'_>,
        buf: &SmbBuffer,
        len: usize,
        mut attempt: impl FnMut(&SimContext, usize) -> Result<T, SmbError>,
    ) -> Result<T, SmbError> {
        let (offset, fits) = match op.offset {
            None => (0, len == buf.len()),
            Some(start) => (start, start.checked_add(len).is_some_and(|end| end <= buf.len())),
        };
        if !fits {
            let got = offset.saturating_add(len);
            return Err(SmbError::SizeMismatch { key: buf.key, expected: buf.len(), got });
        }
        self.retrying(ctx, buf.key, op.gate, |ctx| attempt(ctx, offset))
    }

    /// Decision (1), routing half: the server this attempt talks to. A
    /// plain op routes through [`SmbClient::active`] without ever
    /// consulting the fault gate (its transfer rides faults out inside the
    /// fabric). A retrying op routes by promotion state alone and passes
    /// the gate in its own direction first, failing fast with
    /// [`SmbError::Unavailable`].
    fn enter(
        &self,
        ctx: &SimContext,
        gate: Gate<'_>,
        key: ShmKey,
        inbound: bool,
    ) -> Result<&SmbServer, SmbError> {
        match gate {
            Gate::Stall => Ok(self.active(ctx)),
            Gate::FailFast(_) => {
                let server = self.active_raw(ctx);
                let (from, to) = self.ends(server, inbound);
                match server.rdma().fabric().fault_check(ctx, from, to) {
                    Ok(()) => Ok(server),
                    Err(fault) => Err(self.unavailable(server, key, fault)),
                }
            }
        }
    }

    /// The `(sender, receiver)` nodes of a transfer in the given direction.
    fn ends(&self, server: &SmbServer, inbound: bool) -> (NodeId, NodeId) {
        if inbound {
            (server.node(), self.local)
        } else {
            (self.local, server.node())
        }
    }

    /// Streams `bytes` at [`STREAM_BPS`] along a priced op's full data path:
    /// the server's DRAM bus plus the sender's and the receiver's HCA (one
    /// pipelined stream — the order the hops are listed in is immaterial).
    fn stream(&self, ctx: &SimContext, server: &SmbServer, inbound: bool, bytes: u64) {
        let (from, to) = self.ends(server, inbound);
        let fabric = server.rdma().fabric();
        let path = [server.memory_resource(), fabric.hca_tx(from), fabric.hca_rx(to)];
        transfer_path_stream(ctx, &path, bytes, Some(STREAM_BPS));
    }

    /// Decision (2): what the op pays, as `(bytes charged by the raw RDMA
    /// verb, bytes streamed along the full DRAM-bus path)`. A priced op
    /// copies at zero verb cost and streams its modelled size through
    /// server DRAM and both HCAs; a true-size op pays the verb alone.
    fn price(op: Op<'_>, wire_bytes: u64, len: usize, buf: &SmbBuffer) -> (u64, Option<u64>) {
        let share = match op.pricing {
            Pricing::TrueSize => return ((len * 4) as u64, None),
            Pricing::Whole => None,
            Pricing::Share => Some((len, buf.len())),
        };
        (0, Some(modelled_bytes(wire_bytes, PROTOCOL_OVERHEAD, share)))
    }

    /// The inbound direction. Decision (3), the kind and site the RDMA
    /// verb announces the access as: every read is stale-tolerant by SEASGD
    /// design (weights, progress counters, versioned checkpoints), hence
    /// always an atomic read: it coexists with concurrent accumulate RMWs
    /// on other workers' behalf without being flagged as a race.
    fn read_op(
        &self,
        ctx: &SimContext,
        op: Op<'_>,
        site: &'static str,
        buf: &SmbBuffer,
        out: &mut [f32],
    ) -> Result<(), SmbError> {
        self.execute(ctx, op, buf, out.len(), |ctx, offset| {
            let server = self.enter(ctx, op.gate, buf.key, true)?;
            let (mr, wire_bytes) = server.verified_segment(ctx, buf.key, offset, out.len())?;
            let (verb_bytes, path_bytes) = Self::price(op, wire_bytes, out.len(), buf);
            let kind = AccessKind::AtomicRead;
            server.rdma().read_wire(ctx, self.local, &mr, offset, out, verb_bytes, kind, site)?;
            if let Some(bytes) = path_bytes {
                self.stream(ctx, server, true, bytes);
            }
            match op.gate {
                Gate::Stall => Ok(()),
                Gate::FailFast(_) => self.verify_inbound(server, buf.key, out),
            }
        })
    }

    /// The outbound direction. Decision (3): the entry point's `(kind,
    /// site)` is what the RDMA verb announces the landing as — a plain
    /// write for weights, an atomic one for slot stores and checkpoints.
    fn write_op(
        &self,
        ctx: &SimContext,
        op: Op<'_>,
        (kind, site): (AccessKind, &'static str),
        buf: &SmbBuffer,
        data: &[f32],
    ) -> Result<(), SmbError> {
        self.execute(ctx, op, buf, data.len(), |ctx, offset| {
            let server = self.enter(ctx, op.gate, buf.key, false)?;
            // Control-info (true-size) writes are unfenced slot stores:
            // no epoch admission.
            if op.pricing != Pricing::TrueSize {
                self.admit(ctx, op.gate, buf.key)?;
            }
            // Verify-before-mutate: a poisoned page must be repaired (the
            // only CRC-clearing path) before new data may land over it.
            let (mr, wire_bytes) = server.verified_segment(ctx, buf.key, offset, data.len())?;
            let (verb_bytes, path_bytes) = Self::price(op, wire_bytes, data.len(), buf);
            let delivery = match op.gate {
                Gate::Stall => Ok(data.len()),
                Gate::FailFast(_) => self.outbound_delivery(server, buf.key, data),
            };
            if let Ok(delivered) = delivery {
                if delivered > 0 {
                    let landed = &data[..delivered];
                    server
                        .rdma()
                        .write_wire(ctx, self.local, &mr, offset, landed, verb_bytes, kind, site)?;
                }
                // Record the *intended* contents: a torn delivery leaves the
                // page CRCs disagreeing with the actual bytes, so a later
                // verification (read, scrub) detects the silent loss.
                server.note_write(ctx, buf.key, offset, data);
            }
            // A flipped payload crossed the wire before the server's
            // checksum rejected it: full wire time burns, nothing lands.
            if let Some(bytes) = path_bytes {
                self.stream(ctx, server, false, bytes);
            }
            delivery?;
            server.bump_version(ctx, buf.key);
            Ok(())
        })
    }

    /// The accumulate request: gate, admission and one control round trip,
    /// then the server's engine — admission reads the authority lease
    /// before the round trip, for every op. An attempt under another
    /// fencing epoch than the op started with would fold the promoted
    /// member's replicated source range, not the one the caller wrote: it
    /// fails [`SmbError::SourceMoved`] instead. So does a poisoned source
    /// page: repaired from the other member, it would hold that member's
    /// older copy, so the caller re-writes the source rather than the
    /// engine folding the repaired tile.
    fn accumulate_op(
        &self,
        ctx: &SimContext,
        op: Op<'_>,
        src: &SmbBuffer,
        dst: &SmbBuffer,
        len: usize,
    ) -> Result<u64, SmbError> {
        let epoch = self.carried_epoch();
        self.retrying(ctx, src.key, op.gate, |ctx| {
            if self.carried_epoch() != epoch {
                return Err(SmbError::SourceMoved { key: src.key });
            }
            let server = self.enter(ctx, op.gate, src.key, false)?;
            self.admit(ctx, op.gate, dst.key)?;
            control_round_trip(ctx);
            match server.accumulate(ctx, src.key, dst.key, op.offset.map(|start| (start, len))) {
                Err(SmbError::Corrupted { key, .. }) if key == src.key => {
                    Err(SmbError::SourceMoved { key })
                }
                folded => folded,
            }
        })
    }

    /// Hands a fabric fault to the retry loop as [`SmbError::Unavailable`],
    /// marking the queue pair to `server` faulted so the loop's next
    /// attempt pays its re-arm.
    fn unavailable(&self, server: &SmbServer, key: ShmKey, fault: FaultError) -> SmbError {
        server.rdma().fault_qp(self.local, server.node());
        SmbError::Unavailable { key, node: server.node(), fault }
    }

    /// Applies any seeded wire bit-flip to an inbound (read) payload — the
    /// software stand-in for InfiniBand's hardware ICRC on the fallible
    /// transfer paths: CRC32C detects every single-bit error, so a drawn
    /// flip is `Err(CorruptedWire)`. The flipped element stays in `out`:
    /// its contents are garbage and the caller must discard them (its
    /// retry loop re-reads).
    fn verify_inbound(
        &self,
        server: &SmbServer,
        key: ShmKey,
        out: &mut [f32],
    ) -> Result<(), SmbError> {
        let Some(inj) = server.rdma().fabric().fault_injector() else { return Ok(()) };
        if !inj.plan().has_corruption_faults() {
            return Ok(());
        }
        let Some((elem, bit)) = inj.draw_wire_flip(out.len()) else { return Ok(()) };
        out[elem] = f32::from_bits(out[elem].to_bits() ^ (1 << bit));
        Err(SmbError::CorruptedWire { key, node: server.node() })
    }

    /// Draws seeded wire corruption for an outbound (write) payload:
    /// `Err(CorruptedWire)` when a bit-flip hits — CRC32C detects every
    /// single-bit error, so the server's wire checksum rejects the whole
    /// payload and nothing lands — or `Ok(prefix)` with the number of
    /// elements actually delivered: `data.len()` when intact, fewer for a
    /// torn write (the transport acknowledges but only a prefix reached
    /// server DRAM — *silent* until a later verification catches the
    /// recorded-intent/actual mismatch).
    fn outbound_delivery(
        &self,
        server: &SmbServer,
        key: ShmKey,
        data: &[f32],
    ) -> Result<usize, SmbError> {
        let Some(inj) = server.rdma().fabric().fault_injector() else { return Ok(data.len()) };
        if !inj.plan().has_corruption_faults() {
            return Ok(data.len());
        }
        let flip = inj.draw_wire_flip(data.len());
        let torn = inj.draw_torn_write(data.len());
        if flip.is_some() {
            return Err(SmbError::CorruptedWire { key, node: server.node() });
        }
        Ok(torn.unwrap_or(data.len()))
    }

    /// Books a detected [`SmbError::Corrupted`] and repairs the poisoned
    /// page from the pair's other member. `Ok(true)`: repaired.
    /// `Ok(false)`: a wire fault interrupted the repair; the page is still
    /// poisoned and the next attempt re-detects it. `Err`: the page is
    /// permanently lost (no replica, or the repair source is bad too).
    fn repair_corrupted(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        node: NodeId,
        page: usize,
    ) -> Result<bool, SmbError> {
        {
            let mut stats = self.stats.lock();
            stats.faults += 1;
            stats.corruptions_detected += 1;
        }
        let outcome = match &self.route {
            // No replica to repair from: retrying would hit the same
            // poison forever.
            Route::Single(_) => Err(SmbError::Unrepairable { key, node, page }),
            Route::Replicated(pair) => pair.repair_page(ctx, key, page),
        };
        match outcome {
            Ok(()) => {
                self.stats.lock().corruptions_repaired += 1;
                Ok(true)
            }
            Err(e) if e.is_transient() => Ok(false),
            Err(e) => {
                self.stats.lock().corruptions_unrepairable += 1;
                Err(e)
            }
        }
    }

    /// Decision (1), repair half of a plain op: runs `op`; if it lands on a
    /// poisoned page, repairs that page from the pair's other member and
    /// runs `op` once more. A plain op has no retry budget to spend, and
    /// the fault-free path issues exactly the ops it always did, so
    /// virtual time does not move. On a lone server the page is
    /// [`SmbError::Unrepairable`]. Counted like one round of
    /// [`SmbClient::retrying`].
    fn repairing_once<T>(
        &self,
        ctx: &SimContext,
        mut op: impl FnMut() -> Result<T, SmbError>,
    ) -> Result<T, SmbError> {
        let first = op();
        let Err(SmbError::Corrupted { key, node, page }) = &first else { return first };
        if !self.repair_corrupted(ctx, *key, *node, *page)? {
            return first;
        }
        let second = op();
        if second.is_ok() {
            self.stats.lock().retries += 1;
        }
        second
    }

    /// Decision (1), retry half: a plain op runs once, and once more after
    /// repairing a poisoned page ([`SmbClient::repairing_once`]). A retrying
    /// `op` runs under its `policy`: transient failures are retried after a
    /// jittered exponential backoff (virtual-time sleep), re-arming the
    /// queue pair to the server before each retry. When an attempt
    /// observes the server's *crash* (not a transient link fault) and the
    /// client is bound to a replicated pair, the standby is promoted and
    /// the queue pair reconnected before the next attempt, which then
    /// lands on the standby. Gives up with [`SmbError::Timeout`] once
    /// attempts or the cumulative deadline run out; non-transient errors
    /// pass straight through.
    fn retrying<T>(
        &self,
        ctx: &SimContext,
        key: ShmKey,
        gate: Gate<'_>,
        mut op: impl FnMut(&SimContext) -> Result<T, SmbError>,
    ) -> Result<T, SmbError> {
        let Gate::FailFast(policy) = gate else { return self.repairing_once(ctx, || op(ctx)) };
        let started = ctx.now();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match op(ctx) {
                Ok(v) => {
                    if attempts > 1 {
                        let mut stats = self.stats.lock();
                        stats.retries += u64::from(attempts - 1);
                        let recovery = ctx.now().since(started).as_millis_f64();
                        stats.max_recovery_ms = stats.max_recovery_ms.max(recovery);
                    }
                    return Ok(v);
                }
                Err(SmbError::Corrupted { key: ck, node, page }) => {
                    self.repair_corrupted(ctx, ck, node, page)?;
                }
                Err(e) if e.is_transient() => {
                    {
                        let mut stats = self.stats.lock();
                        stats.faults += 1;
                        if e.is_corruption() {
                            stats.corruptions_detected += 1;
                        }
                    }
                    if let Route::Replicated(pair) = &self.route {
                        // Fail over on: the primary's crash; a fencing
                        // rejection (a newer epoch is active — refresh and
                        // follow it); or a partition whose isolated primary
                        // has already lost its authority lease (promotion
                        // is legal, so stop banging on the unreachable
                        // side). A partition with a live lease is ridden
                        // out instead — the primary may still be renewed.
                        if e.is_server_crash()
                            || e.is_fenced()
                            || (e.is_partitioned() && pair.authority_expired(ctx))
                        {
                            pair.fail_over(ctx, self.local);
                            self.refresh_epoch(ctx);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
            let Some(backoff) = policy.next_backoff(attempts, ctx.now().since(started)) else {
                break;
            };
            ctx.sleep(backoff);
            let server = self.active_raw(ctx);
            server.rdma().rearm_qp(ctx, self.local, server.node());
        }
        Err(SmbError::Timeout {
            key,
            node: self.active_raw(ctx).node(),
            waited: ctx.now().since(started),
            attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOMBSTONE_HORIZON;
    use shmcaffe_rdma::RdmaFabric;
    use shmcaffe_simnet::channel::SimChannel;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
    use shmcaffe_simnet::Simulation;

    fn setup(nodes: usize) -> SmbServer {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(nodes)));
        SmbServer::new(rdma).unwrap()
    }

    #[test]
    fn create_alloc_read_write_roundtrip() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let key = client.create(&ctx, "buf", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
            let mut out = [0.0f32; 4];
            client.read(&ctx, &buf, &mut out).unwrap();
            assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
            client.free(&ctx, buf).unwrap();
        });
        sim.run();
        assert_eq!(server.segment_count(), 0);
    }

    #[test]
    fn duplicate_name_rejected() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            client.create(&ctx, "dup", 4, None).unwrap();
            assert!(matches!(
                client.create(&ctx, "dup", 4, None),
                Err(SmbError::DuplicateName { .. })
            ));
        });
        sim.run();
    }

    #[test]
    fn alloc_of_unknown_key_fails() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            assert!(matches!(client.alloc(&ctx, ShmKey(99)), Err(SmbError::UnknownKey { .. })));
        });
        sim.run();
    }

    #[test]
    fn size_mismatch_rejected() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let key = client.create(&ctx, "b", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            let mut small = [0.0f32; 2];
            assert!(matches!(
                client.read(&ctx, &buf, &mut small),
                Err(SmbError::SizeMismatch { .. })
            ));
            assert!(matches!(
                client.write(&ctx, &buf, &[0.0; 8]),
                Err(SmbError::SizeMismatch { .. })
            ));
        });
        sim.run();
    }

    #[test]
    fn accumulate_folds_increment_into_global() {
        // The SEASGD shared-buffer layout of Fig. 5: one global W_g plus a
        // private ΔW per worker, accumulated server-side.
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("master", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let wg_key = client.create(&ctx, "W_g", 4, None).unwrap();
            let dw_key = client.create(&ctx, "dW_0", 4, None).unwrap();
            let wg = client.alloc(&ctx, wg_key).unwrap();
            let dw = client.alloc(&ctx, dw_key).unwrap();
            client.write(&ctx, &wg, &[1.0; 4]).unwrap();
            client.write(&ctx, &dw, &[0.5, -0.5, 1.0, 0.0]).unwrap();
            let v1 = client.accumulate(&ctx, &dw, &wg).unwrap();
            let mut out = [0.0f32; 4];
            client.read(&ctx, &wg, &mut out).unwrap();
            assert_eq!(out, [1.5, 0.5, 2.0, 1.0]);
            // Accumulate twice: increments add.
            let v2 = client.accumulate(&ctx, &dw, &wg).unwrap();
            assert!(v2 > v1);
            client.read(&ctx, &wg, &mut out).unwrap();
            assert_eq!(out, [2.0, 0.0, 3.0, 1.0]);
        });
        sim.run();
        assert!(server.memory_bytes() > 0);
    }

    #[test]
    fn accumulate_length_mismatch_rejected() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let a = client.alloc(&ctx, client.create(&ctx, "a", 4, None).unwrap()).unwrap();
            let b = client.alloc(&ctx, client.create(&ctx, "b", 8, None).unwrap()).unwrap();
            assert!(matches!(
                client.accumulate(&ctx, &a, &b),
                Err(SmbError::LengthMismatch { .. })
            ));
        });
        sim.run();
    }

    #[test]
    fn key_broadcast_handshake_between_workers() {
        // Master creates, "broadcasts" the key through shared state, the
        // slave allocs with the key and sees the master's data.
        let server = setup(2);
        let key_box = std::sync::Arc::new(parking_lot::Mutex::new(None::<ShmKey>));
        let notify = SimChannel::<ShmKey>::new("key_bcast");
        let mut sim = Simulation::new();
        {
            let s = server.clone();
            let notify = notify.clone();
            let key_box = key_box.clone();
            sim.spawn("master", move |ctx| {
                let client = SmbClient::new(s, NodeId(0));
                let key = client.create(&ctx, "shared", 2, None).unwrap();
                let buf = client.alloc(&ctx, key).unwrap();
                client.write(&ctx, &buf, &[7.0, 8.0]).unwrap();
                *key_box.lock() = Some(key);
                notify.send(&ctx, key);
            });
        }
        {
            let s = server.clone();
            sim.spawn("slave", move |ctx| {
                let key = notify.recv(&ctx);
                let client = SmbClient::new(s, NodeId(1));
                let buf = client.alloc(&ctx, key).unwrap();
                let mut out = [0.0f32; 2];
                client.read(&ctx, &buf, &mut out).unwrap();
                assert_eq!(out, [7.0, 8.0]);
            });
        }
        sim.run();
    }

    #[test]
    fn writes_and_accumulates_bump_the_version() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let key = client.create(&ctx, "n", 2, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            assert_eq!(s.version(key).unwrap(), 0);
            client.write(&ctx, &buf, &[1.0, 1.0]).unwrap();
            assert_eq!(s.version(key).unwrap(), 1);
            let dw = client.alloc(&ctx, client.create(&ctx, "dw", 2, None).unwrap()).unwrap();
            assert_eq!(client.accumulate(&ctx, &dw, &buf).unwrap(), 2);
            assert_eq!(s.version(key).unwrap(), 2);
        });
        sim.run();
    }

    #[test]
    fn lease_eviction_reclaims_crashed_workers_segment() {
        use shmcaffe_simnet::SimDuration;
        let server = setup(2);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("supervisor", move |ctx| {
            let alive = SmbClient::new(s.clone(), NodeId(0));
            let k_alive = alive.create_owned(&ctx, "dw_alive", 4, None, 0).unwrap();
            let k_dead = alive.create_owned(&ctx, "dw_dead", 4, None, 1).unwrap();
            assert_eq!(s.lease_owner(k_dead), Some(1));
            // Rank 0 heartbeats every 200 ms; rank 1 never does (crashed).
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_millis(200));
                alive.heartbeat(&ctx, 0);
            }
            // 600 ms without a heartbeat from rank 1 > 500 ms lease timeout.
            let evicted = s.evict_stale(&ctx);
            assert_eq!(evicted, vec![k_dead]);
            assert_eq!(s.lease_owner(k_dead), None);
            assert!(matches!(
                alive.alloc(&ctx, k_dead),
                Err(SmbError::LeaseExpired { owner: 1, .. })
            ));
            // Rank 0's lease is fresh; its segment survives eviction.
            assert!(alive.alloc(&ctx, k_alive).is_ok());
        });
        sim.run();
        assert_eq!(server.segment_count(), 1);
    }

    #[test]
    fn tombstones_are_bounded_by_horizon_and_ack() {
        use shmcaffe_simnet::SimDuration;
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let cfg = crate::SmbServerConfig {
            lease_timeout: SimDuration::from_millis(50),
            ..Default::default()
        };
        let server = SmbServer::with_config(rdma, cfg).unwrap();
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("supervisor", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            client.create_owned(&ctx, "dw_1", 4, None, 1).unwrap();
            client.create_owned(&ctx, "dw_2", 4, None, 2).unwrap();
            ctx.sleep(SimDuration::from_millis(100));
            assert_eq!(s.evict_stale(&ctx).len(), 2);
            assert_eq!(s.tombstone_count(), 2);
            // Rank 1 rejoins and acks its eviction: its tombstone goes now.
            assert_eq!(client.ack_eviction(&ctx, 1), 1);
            assert_eq!(s.tombstone_count(), 1);
            assert_eq!(client.ack_eviction(&ctx, 1), 0, "ack is idempotent");
            // Rank 2 never acks; the horizon reclaims its tombstone on a
            // later sweep instead of letting it grow without bound.
            ctx.sleep(TOMBSTONE_HORIZON + SimDuration::from_millis(100));
            s.evict_stale(&ctx);
            assert_eq!(s.tombstone_count(), 0);
        });
        sim.run();
    }

    #[test]
    fn tombstone_gc_keeps_entries_aged_exactly_the_horizon() {
        use shmcaffe_simnet::{SimDuration, SimTime};
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let cfg = crate::SmbServerConfig {
            lease_timeout: SimDuration::from_millis(50),
            ..Default::default()
        };
        let server = SmbServer::with_config(rdma, cfg).unwrap();
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("supervisor", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            client.create_owned(&ctx, "dw", 4, None, 1).unwrap();
            // Lease (50 ms) lapses; the eviction at t = 100 ms stamps the
            // tombstone, starting the GC horizon.
            let evicted_at = SimTime::from_millis(100);
            ctx.sleep_until(evicted_at);
            assert_eq!(s.evict_stale(&ctx).len(), 1);
            assert_eq!(s.tombstone_count(), 1);
            // GC keeps `age <= horizon`: a tombstone aged precisely the
            // horizon must survive the sweep, so a rejoiner arriving on the
            // boundary still learns of its eviction.
            ctx.sleep_until(evicted_at + TOMBSTONE_HORIZON);
            s.evict_stale(&ctx);
            assert_eq!(s.tombstone_count(), 1, "boundary entry must be kept");
            // One nanosecond past the horizon it is reclaimed.
            ctx.sleep(SimDuration::from_nanos(1));
            s.evict_stale(&ctx);
            assert_eq!(s.tombstone_count(), 0, "past-boundary entry must be reclaimed");
        });
        sim.run();
    }

    #[test]
    fn retrying_ops_fail_over_to_standby_after_primary_crash() {
        use shmcaffe_simnet::fault::FaultPlan;
        use shmcaffe_simnet::SimTime;
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let primary_node = NodeId(spec.gpu_nodes);
        let plan = FaultPlan::new(21).crash_memory_server(primary_node, SimTime::from_millis(5));
        let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
        let pair = crate::SmbPair::new(rdma, crate::SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let policy = RetryPolicy::with_seed(21);
            let key = client.create(&ctx, "wg", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write_retrying(&ctx, &buf, &[1.0; 4], &policy).unwrap();
            p.replicate(&ctx).unwrap();
            // Jump past the crash: the next attempt observes NodeCrashed,
            // promotes the standby and lands the write there.
            ctx.sleep_until(SimTime::from_millis(6));
            assert!(!p.promoted());
            client.write_retrying(&ctx, &buf, &[2.0; 4], &policy).unwrap();
            assert!(p.promoted(), "crash observation triggered failover");
            // The same handle keeps working: reads resolve the mirrored
            // segment on the standby under the original ShmKey.
            let mut out = [0.0f32; 4];
            client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
            assert_eq!(out, [2.0; 4]);
            assert_eq!(client.server().node(), p.standby().node());
            // The QP was reconnected to the standby.
            let rdma = p.primary().rdma();
            assert!(!rdma.qp_faulted(NodeId(0), p.standby().node()));
            assert!(rdma.qp_faulted(NodeId(0), p.primary().node()));
            let fs = client.fault_stats();
            assert!(fs.faults >= 1 && fs.retries >= 1, "{fs:?}");
        });
        sim.run();
    }

    #[test]
    fn an_accumulate_that_fails_over_refuses_the_stale_source() {
        use shmcaffe_simnet::fault::FaultPlan;
        use shmcaffe_simnet::SimTime;
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let primary_node = NodeId(spec.gpu_nodes);
        let plan = FaultPlan::new(23).crash_memory_server(primary_node, SimTime::from_millis(5));
        let rdma = RdmaFabric::new(Fabric::with_faults(spec, plan));
        let pair = crate::SmbPair::new(rdma, crate::SmbServerConfig::default()).unwrap();
        let p = pair.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let policy = RetryPolicy::with_seed(23);
            let wg = client.alloc(&ctx, client.create(&ctx, "wg", 4, None).unwrap()).unwrap();
            let dw = client.alloc(&ctx, client.create(&ctx, "dw", 4, None).unwrap()).unwrap();
            client.write_retrying(&ctx, &wg, &[1.0; 4], &policy).unwrap();
            client.write_retrying(&ctx, &dw, &[10.0; 4], &policy).unwrap();
            p.replicate(&ctx).unwrap();
            // A new ΔW range the standby never receives, then the crash.
            client.write_range_retrying(&ctx, &dw, 0, &[20.0, 20.0], &policy).unwrap();
            ctx.sleep_until(SimTime::from_millis(6));
            let moved = client.accumulate_range_retrying(&ctx, &dw, &wg, 0, 2, &policy);
            assert_eq!(moved, Err(SmbError::SourceMoved { key: dw.key }));
            assert!(p.promoted(), "the first attempt observed the crash and failed over");
            let mut out = [0.0f32; 4];
            client.read_retrying(&ctx, &wg, &mut out, &policy).unwrap();
            assert_eq!(out, [1.0; 4], "the stale replicated ΔW range must not fold");
        });
        sim.run();
    }

    #[test]
    fn checkpoint_roundtrip_through_versioned_protocol() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let policy = RetryPolicy::with_seed(3);
            let key = client.create(&ctx, "ckpt", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.checkpoint_write(&ctx, &buf, &[9.0, 8.0, 7.0, 6.0], &policy).unwrap();
            let mut out = [0.0f32; 4];
            client.checkpoint_read(&ctx, &buf, &mut out, &policy).unwrap();
            assert_eq!(out, [9.0, 8.0, 7.0, 6.0]);
            assert!(matches!(
                client.checkpoint_write(&ctx, &buf, &[0.0; 2], &policy),
                Err(SmbError::SizeMismatch { .. })
            ));
        });
        sim.run();
    }

    /// A two-GPU-node testbed (memory server `NodeId(2)`) whose node 1 is
    /// cut off from the rest over `[from, until)`.
    fn setup_isolated(
        seed: u64,
        from: shmcaffe_simnet::SimTime,
        until: shmcaffe_simnet::SimTime,
    ) -> SmbServer {
        use shmcaffe_simnet::fault::FaultPlan;
        let groups = vec![vec![NodeId(1)], vec![NodeId(0), NodeId(2)]];
        let plan = FaultPlan::new(seed).partition(groups, from, Some(until));
        let rdma = RdmaFabric::new(Fabric::with_faults(ClusterSpec::paper_testbed(2), plan));
        SmbServer::new(rdma).unwrap()
    }

    fn read_through_outage(seed: u64) -> shmcaffe_simnet::SimTime {
        use shmcaffe_simnet::SimTime;
        let server = setup_isolated(seed, SimTime::from_millis(1), SimTime::from_millis(3));
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(1));
            let key = client.create(&ctx, "buf", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            client.write(&ctx, &buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
            // Jump into the middle of the outage window: the retrying read
            // must fail fast inside it and recover after it ends.
            ctx.sleep_until(SimTime::from_micros(1_500));
            let mut out = [0.0f32; 4];
            client.read_retrying(&ctx, &buf, &mut out, &RetryPolicy::with_seed(seed)).unwrap();
            assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
            assert!(ctx.now() > SimTime::from_millis(3), "recovered only after the window");
            // The retry loop re-armed the QP on its way to success.
            assert!(!s.rdma().qp_faulted(NodeId(1), s.node()));
            // ... and the client accounted for the recovery.
            let fs = client.fault_stats();
            assert!(fs.faults >= 1 && fs.retries >= 1, "{fs:?}");
            assert!(fs.max_recovery_ms > 0.0);
        });
        let end = sim.run();
        let stats = server.rdma().fabric().fault_injector().unwrap().stats();
        assert!(stats.partition_hits >= 1, "at least one failed attempt");
        end
    }

    #[test]
    fn retrying_read_rides_out_isolation_window() {
        read_through_outage(11);
    }

    #[test]
    fn identical_seeds_give_identical_retry_timelines() {
        assert_eq!(read_through_outage(42), read_through_outage(42));
    }

    #[test]
    fn retrying_write_times_out_against_cut_off_node() {
        use shmcaffe_simnet::{SimDuration, SimTime};
        let server = setup_isolated(5, SimTime::ZERO, SimTime::from_secs(10));
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(1));
            let key = client.create(&ctx, "buf", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            let policy = RetryPolicy {
                max_attempts: 4,
                deadline: SimDuration::from_millis(5),
                ..RetryPolicy::with_seed(1)
            };
            let err = client.write_retrying(&ctx, &buf, &[0.0; 4], &policy).unwrap_err();
            match err {
                SmbError::Timeout { key, node, attempts, .. } => {
                    assert_eq!(key, buf.key);
                    assert_eq!(node, s.node());
                    assert_eq!(attempts, 4);
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
            // The pair is left faulted for the caller to observe.
            assert!(s.rdma().qp_faulted(NodeId(1), s.node()));
        });
        sim.run();
    }

    #[test]
    fn retrying_write_stops_at_the_deadline_next_backoff_predicts() {
        use shmcaffe_simnet::{SimDuration, SimTime};
        let server = setup_isolated(5, SimTime::ZERO, SimTime::from_secs(10));
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(1));
            let key = client.create(&ctx, "buf", 4, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            // One attempt alone: what a failed attempt costs across the cut.
            let once = RetryPolicy { max_attempts: 1, ..RetryPolicy::with_seed(1) };
            let Err(SmbError::Timeout { waited: attempt, .. }) =
                client.write_retrying(&ctx, &buf, &[0.0; 4], &once)
            else {
                panic!("a single attempt against a cut-off node times out");
            };
            // Deadline-bound: the attempt budget is never the limit.
            let policy = RetryPolicy {
                max_attempts: 1000,
                deadline: SimDuration::from_millis(3),
                ..RetryPolicy::with_seed(1)
            };
            // Every retry pays its backoff, the pair's 10 us re-arm and
            // the attempt itself.
            let rearm = SimDuration::from_micros(10);
            let (mut expect_attempts, mut expect_waited) = (1u32, attempt);
            while let Some(b) = policy.next_backoff(expect_attempts, expect_waited) {
                expect_attempts += 1;
                expect_waited += b + rearm + attempt;
            }
            assert!(expect_attempts < policy.max_attempts);
            match client.write_retrying(&ctx, &buf, &[0.0; 4], &policy).unwrap_err() {
                SmbError::Timeout { attempts, waited, .. } => {
                    assert_eq!((attempts, waited), (expect_attempts, expect_waited));
                    // The last sleep ends inside the deadline; its
                    // re-arm and attempt may run past it.
                    assert!(waited <= policy.deadline + rearm + attempt);
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        });
        sim.run();
    }

    #[test]
    fn concurrent_accumulates_serialize_on_engine() {
        // Two workers accumulate 100 MB-wire segments: the memory bus
        // (15 GB/s, three passes per byte) serialises them at 20 ms each.
        let server = setup(2);
        let mut sim = Simulation::new();
        for i in 0..2usize {
            let s = server.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                let client = SmbClient::new(s, NodeId(i));
                let dw = client
                    .alloc(
                        &ctx,
                        client.create(&ctx, &format!("dw{i}"), 4, Some(100_000_000)).unwrap(),
                    )
                    .unwrap();
                let wg = client
                    .alloc(
                        &ctx,
                        client.create(&ctx, &format!("wg{i}"), 4, Some(100_000_000)).unwrap(),
                    )
                    .unwrap();
                client.accumulate(&ctx, &dw, &wg).unwrap();
            });
        }
        let end = sim.run();
        // Engine service: 2 x 3x100MB / 15 GB/s = 40 ms serialised, plus
        // control latencies.
        assert!(end.as_millis_f64() >= 39.9, "{}", end.as_millis_f64());
        assert!(end.as_millis_f64() < 45.0, "{}", end.as_millis_f64());
    }

    #[test]
    fn range_retrying_roundtrip_and_range_accumulate() {
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let policy = RetryPolicy::with_seed(9);
            let dw = client.alloc(&ctx, client.create(&ctx, "dw", 6, None).unwrap()).unwrap();
            let wg = client.alloc(&ctx, client.create(&ctx, "wg", 6, None).unwrap()).unwrap();
            client.write(&ctx, &wg, &[10.0; 6]).unwrap();
            // Stream ΔW in two chunks, folding each range as it lands.
            client.write_range_retrying(&ctx, &dw, 0, &[1.0, 2.0, 3.0], &policy).unwrap();
            client.accumulate_range_retrying(&ctx, &dw, &wg, 0, 3, &policy).unwrap();
            client.write_range_retrying(&ctx, &dw, 3, &[4.0, 5.0, 6.0], &policy).unwrap();
            client.accumulate_range_retrying(&ctx, &dw, &wg, 3, 3, &policy).unwrap();
            let mut out = [0.0f32; 6];
            client.read(&ctx, &wg, &mut out).unwrap();
            assert_eq!(out, [11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
            // Range reads see the folded state.
            let mut tail = [0.0f32; 2];
            client.read_range_retrying(&ctx, &wg, 4, &mut tail, &policy).unwrap();
            assert_eq!(tail, [15.0, 16.0]);
            // Out-of-bounds ranges are rejected up front.
            assert!(matches!(
                client.read_range_retrying(&ctx, &wg, 5, &mut tail, &policy),
                Err(SmbError::SizeMismatch { .. })
            ));
            assert!(matches!(
                client.write_range_retrying(&ctx, &wg, 5, &[0.0; 2], &policy),
                Err(SmbError::SizeMismatch { .. })
            ));
            assert!(matches!(
                client.accumulate_range_retrying(&ctx, &dw, &wg, 5, 2, &policy),
                Err(SmbError::SizeMismatch { .. })
            ));
        });
        sim.run();
    }

    #[test]
    fn every_range_op_names_the_segment_when_the_span_is_out_of_range() {
        // One row per range entry point, each with an end past the buffer
        // and with an offset so large that `offset + len` would wrap.
        let server = setup(1);
        let s = server.clone();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s, NodeId(0));
            let policy = RetryPolicy::with_seed(9);
            let dw = client.alloc(&ctx, client.create(&ctx, "dw", 6, None).unwrap()).unwrap();
            let wg = client.alloc(&ctx, client.create(&ctx, "wg", 6, None).unwrap()).unwrap();
            let mut out = [0.0f32; 2];
            for (offset, got) in [(5usize, 7usize), (usize::MAX, usize::MAX)] {
                let rows = [
                    ("read_range", client.read_range(&ctx, &wg, offset, &mut out)),
                    ("write_range", client.write_range(&ctx, &wg, offset, &[0.0; 2])),
                    (
                        "read_range_retrying",
                        client.read_range_retrying(&ctx, &wg, offset, &mut out, &policy),
                    ),
                    (
                        "write_range_retrying",
                        client.write_range_retrying(&ctx, &wg, offset, &[0.0; 2], &policy),
                    ),
                    (
                        "accumulate_range_retrying",
                        client
                            .accumulate_range_retrying(&ctx, &dw, &wg, offset, 2, &policy)
                            .map(|_| ()),
                    ),
                ];
                for (entry, result) in rows {
                    match result {
                        Err(SmbError::SizeMismatch { key, expected: 6, got: g }) => {
                            assert_eq!((key, g), (wg.key, got), "{entry} at offset {offset}");
                        }
                        other => panic!("{entry} at offset {offset}: {other:?}"),
                    }
                }
            }
            // Nothing landed and no version moved.
            client.read(&ctx, &wg, &mut [0.0f32; 6]).unwrap();
        });
        sim.run();
        assert_eq!(server.version(ShmKey(2)).unwrap(), 0);
    }

    #[test]
    fn chunked_stream_pays_the_monolithic_wire_time() {
        use shmcaffe_simnet::SimTime;
        // Reading a 100 MB-wire buffer in 8 proportional chunks must charge
        // (at least) the same wire time as one monolithic read — chunking
        // buys overlap, never a discount.
        let elems = 1_024usize;
        let read_time = |chunks: usize| -> SimTime {
            let server = setup(1);
            let s = server.clone();
            let mut sim = Simulation::new();
            sim.spawn("w", move |ctx| {
                let client = SmbClient::new(s, NodeId(0));
                let policy = RetryPolicy::with_seed(1);
                let buf = client
                    .alloc(&ctx, client.create(&ctx, "b", elems, Some(100_000_000)).unwrap())
                    .unwrap();
                let mut out = vec![0.0f32; elems];
                if chunks == 1 {
                    client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
                } else {
                    let step = elems / chunks;
                    for c in 0..chunks {
                        let lo = c * step;
                        let hi = if c + 1 == chunks { elems } else { lo + step };
                        client
                            .read_range_retrying(&ctx, &buf, lo, &mut out[lo..hi], &policy)
                            .unwrap();
                    }
                }
            });
            sim.run()
        };
        let mono = read_time(1);
        let chunked = read_time(8);
        assert!(chunked >= mono, "chunked {chunked:?} < monolithic {mono:?}");
        // Per-chunk byte rounding is the only slack: within 0.1%.
        assert!(
            chunked.as_millis_f64() <= mono.as_millis_f64() * 1.001,
            "chunked {chunked:?} vs monolithic {mono:?}"
        );
    }

    #[test]
    fn range_accumulate_engine_time_is_proportional() {
        // A half-segment range accumulate should occupy the engine for about
        // half of what the full accumulate costs.
        let run = |range: bool| {
            let server = setup(1);
            let s = server.clone();
            let mut sim = Simulation::new();
            sim.spawn("w", move |ctx| {
                let client = SmbClient::new(s, NodeId(0));
                let policy = RetryPolicy::with_seed(2);
                let dw = client
                    .alloc(&ctx, client.create(&ctx, "dw", 8, Some(100_000_000)).unwrap())
                    .unwrap();
                let wg = client
                    .alloc(&ctx, client.create(&ctx, "wg", 8, Some(100_000_000)).unwrap())
                    .unwrap();
                if range {
                    client.accumulate_range_retrying(&ctx, &dw, &wg, 0, 4, &policy).unwrap();
                } else {
                    client.accumulate_retrying(&ctx, &dw, &wg, &policy).unwrap();
                }
            });
            sim.run().as_millis_f64()
        };
        let full = run(false);
        let half = run(true);
        // Full: 3x100MB / 15 GB/s = 20 ms of engine time; half: ~10 ms.
        assert!((19.9..22.0).contains(&full), "{full}");
        assert!((9.9..12.0).contains(&half), "{half}");
    }
}
