//! The SEASGD worker protocol (paper §III-C, §III-G, Fig. 6), run as a
//! pipelined chunk stream over a fixed grid.
//!
//! Per exchange iteration the main thread walks the chunk grid; for each
//! tile *k* it:
//!
//! 1. waits for the *previous* exchange's tile-*k* push to finish (the
//!    per-tile T.A5 gate — mutual exclusion with the update thread),
//! 2. **T1** consumes the `W_g` tile from the **striped read window**: each
//!    lane keeps [`READ_STREAMS`] reader connections (tile *j* of the lane
//!    rides reader *j* mod `READ_STREAMS`; one SMB connection tops out at
//!    a quarter of the HCA, paper Fig. 7), reads are issued as far ahead
//!    as the gates allow — tile *k*'s own gate blocks, the gates of later
//!    tiles are taken only if already open — and replies are consumed in
//!    grid order, so the stream advances at line rate while earlier tiles
//!    mix,
//! 3. **T2** computes the tile's weight increment `ΔW_x = α (W_x − W_g)`
//!    (eq. 5) and updates the local weights `W''_x = W'_x − ΔW_x` (eq. 6),
//! 4. **T3** hands the finished ΔW tile to the update thread immediately,
//!    which **T.A1** range-writes it into the worker's private SMB buffer,
//!    **T.A2** sends the range-accumulate request, and the server **T.A3**
//!    folds it into the global buffer `W'_g = W'_g + ΔW_x` (eq. 7) — all
//!    overlapping with the remaining tiles' reads and mixing,
//! 5. **T4** trains one minibatch and **T5** applies the local SGD update
//!    (eq. 2), overlapping with the update thread's remaining pushes.
//!
//! The grid is derived only from `param_len` and the
//! [`ShmCaffeConfig::exchange_chunk_elems`] knob — never from timing — and
//! the mixing is elementwise, so the chunked stream produces **bit-identical
//! weights** to the monolithic exchange (`pipelined_exchange: false`, which
//! runs the same loop with a single whole-vector tile per shard — hence
//! one reader, one stream: the paper's protocol).
//! When the buffers stripe across several memory servers
//! ([`ElasticExchanger::spawn_sharded`]), the grid is additionally cut at
//! shard boundaries and every tile streams down its own shard's lane, so
//! tiles on different servers transfer in parallel.
//!
//! The `W_g` read depends on no gradient — only the mix does — so a caller
//! with work to do between "gradients computed" and "weights updated" may
//! open the window early with [`ElasticExchanger::start_window`]: the
//! Hybrid-SGD root does, and its read rides under the group all-reduce.
//!
//! [`ElasticExchanger`] packages steps 1–4 so that both the pure
//! asynchronous worker ([`run_worker`]) and the Hybrid-SGD group root
//! ([`crate::hybrid`]) share one implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::{SimContext, SimDuration, SimTime};
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::{RetryPolicy, SmbBuffer, SmbClient, SmbError, SmbServer};

use crate::config::{ShmCaffeConfig, DEFAULT_EXCHANGE_CHUNKS};
use crate::platforms::fleet::StepLog;
use crate::report::{EvalPoint, WorkerReport};
use crate::trainer::Trainer;
use crate::PlatformError;

/// The SMB buffers of one SEASGD participant (Fig. 5 layout): the shared
/// global buffer plus this worker's private increment buffer.
#[derive(Debug, Clone, Copy)]
pub struct SeasgdBuffers {
    /// The global weight buffer `W_g`, shared by every worker.
    pub wg: SmbBuffer,
    /// This worker's private `ΔW_x` buffer (not shared with other workers).
    pub dw: SmbBuffer,
}

/// Reader connections per lane. One SMB connection is paced at a fraction
/// of the HCA (`SmbServerConfig::stream_bps`); the Fig. 7 sweep
/// (`BENCH_paper.json`) has four paced connections at 5.74 of the
/// 6.41 GB/s that 32 reach, so four take the `W_g` stream to nine tenths
/// of what the server ever delivers and a fifth buys little but a thread.
pub const READ_STREAMS: usize = 4;

/// One tile of the fixed exchange chunk grid.
#[derive(Debug, Clone, Copy)]
struct GridChunk {
    /// Index of the shard lane the tile lives on.
    lane: usize,
    /// Reader connection of the lane the tile's read rides: the tile's
    /// index within its lane modulo [`READ_STREAMS`].
    stream: usize,
    /// Offset within the lane's buffers, in elements.
    local_off: usize,
    /// Offset within the whole parameter vector, in elements.
    global_off: usize,
    /// Tile length in elements.
    len: usize,
}

/// Builds the deterministic chunk grid: cut the parameter vector at every
/// multiple of the chunk size and additionally at every shard boundary.
/// The grid depends only on lengths and the config knob — never on timing —
/// which is what makes the chunked and monolithic paths bit-identical.
fn exchange_grid(lane_lens: &[usize], cfg: &ShmCaffeConfig) -> Vec<GridChunk> {
    let param_len: usize = lane_lens.iter().sum();
    let chunk_elems = if !cfg.pipelined_exchange {
        // Monolithic: one whole-vector tile (one per shard when striped).
        param_len.max(1)
    } else if cfg.exchange_chunk_elems > 0 {
        cfg.exchange_chunk_elems
    } else {
        param_len.div_ceil(DEFAULT_EXCHANGE_CHUNKS).max(1)
    };
    let mut grid = Vec::new();
    let mut lane_start = 0usize;
    for (lane, &lane_len) in lane_lens.iter().enumerate() {
        let mut off = 0usize;
        let mut stream = 0usize;
        while off < lane_len {
            let global_off = lane_start + off;
            let next_line = (global_off / chunk_elems + 1) * chunk_elems;
            let len = (next_line - global_off).min(lane_len - off);
            grid.push(GridChunk { lane, stream, local_off: off, global_off, len });
            off += len;
            stream = (stream + 1) % READ_STREAMS;
        }
        lane_start += lane_len;
    }
    grid
}

/// Request to a lane's reader process.
enum ReadRequest {
    /// Stream-read one `W_g` tile into `buf` (sized to the tile).
    Read { chunk: usize, local_off: usize, buf: Vec<f32> },
    /// Terminate the reader.
    Shutdown,
}

/// Reply from a lane's reader process, carrying the tile buffer back for
/// reuse (the read path is allocation-free in steady state).
enum ReadReply {
    /// The tile was read; `buf` holds fresh `W_g` data.
    Fresh { chunk: usize, buf: Vec<f32> },
    /// A partition swallowed the read: keep the stale local `W_g` tile
    /// (degraded mode — same contract as the monolithic read).
    Stale { chunk: usize, buf: Vec<f32> },
    /// A non-partition failure the worker must surface.
    Failed { error: SmbError },
}

/// Request to a lane's update thread.
enum UpdateRequest {
    /// Push ΔW tile `chunk` (grid order) and range-accumulate it into the
    /// global buffer.
    Chunk { chunk: usize, buf: Vec<f32> },
    /// Terminate the update thread.
    Shutdown,
}

/// Reply from a lane's update thread: tile `chunk` has been pushed (or
/// definitively disposed of); `buf` is the recycled ΔW tile buffer. The
/// k-th done of a lane is the T.A5 gate for the next exchange's k-th tile
/// on that lane.
struct UpdateDone {
    chunk: usize,
    buf: Vec<f32>,
}

/// How long the main thread waits for the update thread before declaring
/// it dead. Generous: the update thread's own retry deadlines are in the
/// hundreds of milliseconds, so only a genuinely wedged thread trips this.
const EXCHANGE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Degraded-mode accounting of one exchanger's update thread: what
/// happened to increments pushed while a network partition cut the worker
/// off from the memory server (paper-style minority-side behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedStats {
    /// Increments buffered for replay after the partition heals.
    pub partition_buffered: u64,
    /// Increments dropped because the staleness-capped buffer was full
    /// (or still held entries at shutdown).
    pub partition_dropped: u64,
    /// Buffered increments successfully replayed into `W_g`.
    pub reconciled_updates: u64,
}

#[derive(Debug, Default)]
struct DegradedCounters {
    buffered: AtomicU64,
    dropped: AtomicU64,
    reconciled: AtomicU64,
    /// Entries currently sitting in the update thread's backlog. A
    /// snapshot folds them into `partition_dropped`: they are only ever
    /// replayed by a *later* successful push, so at any observation point
    /// they have not reached the global buffer.
    pending: AtomicU64,
}

impl DegradedCounters {
    fn snapshot(&self) -> DegradedStats {
        DegradedStats {
            partition_buffered: self.buffered.load(Ordering::Relaxed),
            partition_dropped: self.dropped.load(Ordering::Relaxed)
                + self.pending.load(Ordering::Relaxed),
            reconciled_updates: self.reconciled.load(Ordering::Relaxed),
        }
    }
}

/// Per-phase breakdown of the last [`ElasticExchanger::exchange`]: how
/// much of the non-overlapped communication time went to the T.A5 gates,
/// the `W_g` read stream, and the elastic mixing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangePhases {
    /// Time waiting for the previous exchange's ΔW pushes (T.A5 gates).
    pub wait: SimDuration,
    /// Time blocked on `W_g` tile reads (T1): what the striped window
    /// could not put on the wire ahead of the mixer — the first tiles'
    /// fill at the line rate of [`READ_STREAMS`] connections, tiles whose
    /// T.A5 gate was still closed when the window reached them, and
    /// nothing at all when [`ElasticExchanger::start_window`] opened the
    /// window early enough.
    pub read: SimDuration,
    /// Time in the elastic mixing pass (T2).
    pub mix: SimDuration,
}

impl Default for ExchangePhases {
    fn default() -> Self {
        ExchangePhases { wait: SimDuration::ZERO, read: SimDuration::ZERO, mix: SimDuration::ZERO }
    }
}

/// One reader connection of a lane: requests in, replies out, both FIFO —
/// so the replies of one connection arrive in the grid order of its tiles.
#[derive(Clone)]
struct Reader {
    req: SimChannel<ReadRequest>,
    reply: SimChannel<ReadReply>,
}

/// One shard lane: the client, channels, and grid bookkeeping for a
/// single memory server's slice of the parameter vector.
struct Lane {
    /// Client handle kept for zero-cost partition probes; all actual SMB
    /// traffic goes through the lane's reader and update threads.
    client: SmbClient,
    /// The lane's reader connections, indexed by [`GridChunk::stream`]
    /// (`min(READ_STREAMS, n_chunks)` of them: a one-tile lane has one).
    readers: Vec<Reader>,
    upd_req: SimChannel<UpdateRequest>,
    upd_done: SimChannel<UpdateDone>,
    /// Tiles of the grid on this lane.
    n_chunks: usize,
}

/// The fencing epoch this client currently observes (0 on a single-server
/// route, where there is no failover and hence no epoch).
fn fence_epoch_of(client: &SmbClient) -> u64 {
    client.pair().map_or(0, |p| p.fence_epoch())
}

/// T.A1 + T.A2–T.A3 for one tile: range-write the increment into the
/// worker's private buffer, then server-side range-accumulate it into the
/// global buffer.
fn push_range(
    ctx: &SimContext,
    client: &SmbClient,
    bufs: &SeasgdBuffers,
    local_off: usize,
    data: &[f32],
    retry: &RetryPolicy,
) -> Result<(), SmbError> {
    client.write_range_retrying(ctx, &bufs.dw, local_off, data, retry)?;
    client
        .accumulate_range_retrying(ctx, &bufs.dw, &bufs.wg, local_off, data.len(), retry)
        .map(|_| ())
}

/// Whole-lane push (backlog replay and compensation paths): one atomic
/// write + accumulate, so a replayed increment can never land torn.
fn push_full(
    ctx: &SimContext,
    client: &SmbClient,
    bufs: &SeasgdBuffers,
    data: &[f32],
    retry: &RetryPolicy,
) -> Result<(), SmbError> {
    client.write_retrying(ctx, &bufs.dw, data, retry)?;
    client.accumulate_retrying(ctx, &bufs.dw, &bufs.wg, retry).map(|_| ())
}

/// The process behind one reader connection: T1, one tile at a time. The
/// zero-cost partition probe runs *before* each read: with a whole window
/// of reads queued behind the one a partition swallows, each would
/// otherwise burn its own retry budget before the main thread saw the
/// first `Stale` and stopped issuing.
fn serve_reads(
    rctx: &SimContext,
    client: &SmbClient,
    wg: &SmbBuffer,
    conn: &Reader,
    retry: &RetryPolicy,
) {
    while let ReadRequest::Read { chunk, local_off, mut buf } = conn.req.recv(rctx) {
        let reply = if client.partitioned_from_server(rctx) {
            ReadReply::Stale { chunk, buf }
        } else {
            match client.read_range_retrying(rctx, wg, local_off, &mut buf, retry) {
                Ok(()) => ReadReply::Fresh { chunk, buf },
                Err(_) if client.partitioned_from_server(rctx) => ReadReply::Stale { chunk, buf },
                // A tile that stays corrupt through the retry/repair loop
                // degrades exactly like a partition-stale tile: mix against
                // the last-known W_g — poisoned bytes must never reach ΔW.
                // The lane re-probes at the next exchange.
                Err(error) if error.is_corruption() => ReadReply::Stale { chunk, buf },
                Err(error) => ReadReply::Failed { error },
            }
        };
        conn.reply.send(rctx, reply);
    }
}

/// The worker-side half of the SEASGD exchange: owns the per-lane reader
/// processes and update threads plus the elastic-mixing buffers.
pub struct ElasticExchanger {
    lanes: Vec<Lane>,
    grid: Vec<GridChunk>,
    pending: bool,
    moving_rate: f32,
    local_mix_bps: f64,
    wire_bytes: u64,
    param_len: usize,
    /// Whether [`ElasticExchanger::start_window`] may open the window
    /// ahead of the exchange: not under the monolithic exchange (the
    /// paper reads after the update).
    early_start: bool,
    /// The read window of the coming exchange is open: its start-of-
    /// exchange bookkeeping ran and tiles `..next_read` have been decided.
    window_open: bool,
    /// First tile of the grid whose read has not been decided yet.
    next_read: usize,
    /// Recycled `W_g` tile buffers (up to a whole grid in flight).
    read_pool: Vec<Vec<f32>>,
    /// Recycled ΔW tile buffers, ping-ponged through the done channel so
    /// steady-state exchanges are allocation-free.
    dw_pool: Vec<Vec<f32>>,
    /// Per-lane: a partition swallowed a tile read — stop issuing reads on
    /// the lane and keep the whole stale `W_g` slice (same degraded
    /// contract as the monolithic read, and it keeps a partitioned
    /// exchange from burning one retry budget per tile). Sticky across
    /// exchanges: a stale lane is re-probed (zero cost) at the next
    /// exchange and resumes reading once the partition heals, instead of
    /// re-paying the full read-retry budget every iteration of an outage.
    lane_stale: Vec<bool>,
    /// Per-tile: a read was issued this exchange (the window runs ahead of
    /// the mixer, so a lane can go stale with reads still in flight).
    read_issued: Vec<bool>,
    /// Per-lane: T.A5 gates still to consume from the previous exchange.
    gate_left: Vec<usize>,
    dropped: Arc<AtomicU64>,
    degraded: Arc<DegradedCounters>,
    wg: Vec<f32>,
    wx: Vec<f32>,
    phases: ExchangePhases,
}

impl std::fmt::Debug for ElasticExchanger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticExchanger")
            .field("pending", &self.pending)
            .field("wire_bytes", &self.wire_bytes)
            .field("chunks", &self.grid.len())
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

fn stalled() -> PlatformError {
    PlatformError::Timeout(format!("update thread unresponsive for {EXCHANGE_TIMEOUT}"))
}

fn out_of_sync() -> PlatformError {
    PlatformError::WorkerFailed("exchange pipeline protocol out of sync".to_string())
}

impl ElasticExchanger {
    /// Spawns the reader process and update thread for a single memory
    /// server and prepares the mixing buffers.
    pub fn spawn(
        ctx: &SimContext,
        client: SmbClient,
        buffers: SeasgdBuffers,
        param_len: usize,
        wire_bytes: u64,
        cfg: &ShmCaffeConfig,
        label: &str,
    ) -> Self {
        debug_assert_eq!(buffers.wg.len(), param_len);
        Self::spawn_sharded(ctx, vec![(client, buffers)], wire_bytes, cfg, label)
    }

    /// Spawns a striped exchanger over several memory-server shards: the
    /// chunk grid is additionally cut at shard boundaries and every tile's
    /// read/push rides its own shard's lane (up to [`READ_STREAMS`] reader
    /// processes and one update thread per shard), so tiles on different
    /// servers stream in parallel. `parts` are `(client, buffers)` pairs in
    /// parameter order; the shard slice lengths come from the buffers
    /// themselves.
    pub fn spawn_sharded(
        ctx: &SimContext,
        parts: Vec<(SmbClient, SeasgdBuffers)>,
        wire_bytes: u64,
        cfg: &ShmCaffeConfig,
        label: &str,
    ) -> Self {
        let lane_lens: Vec<usize> = parts.iter().map(|(_, b)| b.wg.len()).collect();
        let param_len: usize = lane_lens.iter().sum();
        let grid = exchange_grid(&lane_lens, cfg);
        // Per-worker retry seed, so identical runs retry identically;
        // deadlines are sized to outlast short fault windows.
        let retry_seed =
            label.bytes().fold(cfg.seed, |acc, b| acc.wrapping_mul(31).wrapping_add(u64::from(b)));
        let dropped = Arc::new(AtomicU64::new(0));
        let degraded = Arc::new(DegradedCounters::default());
        let mut lanes = Vec::with_capacity(parts.len());
        for (lane_idx, (client, buffers)) in parts.into_iter().enumerate() {
            let retry = RetryPolicy {
                max_attempts: 8,
                deadline: SimDuration::from_millis(500),
                ..RetryPolicy::with_seed(
                    retry_seed.wrapping_add((lane_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            };
            let upd_req: SimChannel<UpdateRequest> =
                SimChannel::new(&format!("seasgd_req_{label}_s{lane_idx}"));
            let upd_done: SimChannel<UpdateDone> =
                SimChannel::new(&format!("seasgd_done_{label}_s{lane_idx}"));
            // Tiles of this lane, in grid order: (global index, local
            // offset, length).
            let lane_chunks: Vec<(usize, usize, usize)> = grid
                .iter()
                .enumerate()
                .filter(|(_, c)| c.lane == lane_idx)
                .map(|(k, c)| (k, c.local_off, c.len))
                .collect();
            let n_chunks = lane_chunks.len();
            // T1 as a striped stream: each reader connection fetches its
            // share of the W_g tiles on demand, so several range-reads are
            // on the wire while the main thread mixes the tiles before them.
            let readers: Vec<Reader> = (0..n_chunks.min(READ_STREAMS))
                .map(|r| {
                    let conn = Reader {
                        req: SimChannel::new(&format!("seasgd_read_req_{label}_s{lane_idx}_r{r}")),
                        reply: SimChannel::new(&format!(
                            "seasgd_read_reply_{label}_s{lane_idx}_r{r}"
                        )),
                    };
                    let (client, retry, wg, served) =
                        (client.clone(), retry.clone(), buffers.wg, conn.clone());
                    ctx.spawn(&format!("reader_{label}_s{lane_idx}_r{r}"), move |rctx| {
                        serve_reads(&rctx, &client, &wg, &served, &retry);
                    });
                    conn
                })
                .collect();
            {
                let client = client.clone();
                let upd_req = upd_req.clone();
                let upd_done = upd_done.clone();
                let staleness_cap = cfg.partition_staleness_cap;
                let retry = retry.clone();
                let dropped = Arc::clone(&dropped);
                let degraded = Arc::clone(&degraded);
                let lane_chunks = lane_chunks.clone();
                ctx.spawn(&format!("update_thread_{label}_s{lane_idx}"), move |uctx| {
                    update_thread(
                        &uctx,
                        &client,
                        buffers,
                        &lane_chunks,
                        &upd_req,
                        &upd_done,
                        staleness_cap,
                        &retry,
                        &dropped,
                        &degraded,
                    );
                });
            }
            lanes.push(Lane { client, readers, upd_req, upd_done, n_chunks });
        }
        let n_lanes = lanes.len();
        let n_tiles = grid.len();
        ElasticExchanger {
            lanes,
            grid,
            pending: false,
            moving_rate: cfg.moving_rate,
            local_mix_bps: cfg.local_mix_bps,
            wire_bytes,
            param_len,
            early_start: cfg.pipelined_exchange,
            window_open: false,
            next_read: 0,
            read_pool: Vec::new(),
            dw_pool: Vec::new(),
            lane_stale: vec![false; n_lanes],
            read_issued: vec![false; n_tiles],
            gate_left: vec![0; n_lanes],
            dropped,
            degraded,
            wg: vec![0.0; param_len],
            wx: vec![0.0; param_len],
            phases: ExchangePhases::default(),
        }
    }

    /// Consumes the T.A5 gate of tile `k` if its lane still has dones
    /// outstanding from the previous exchange: blocking when `block`, else
    /// only if the done is already there. Returns whether the gate is
    /// passed.
    fn gate(&mut self, ctx: &SimContext, k: usize, block: bool) -> Result<bool, PlatformError> {
        let lane = self.grid[k].lane;
        if self.gate_left[lane] == 0 {
            return Ok(true);
        }
        let done = if block {
            Some(
                self.lanes[lane]
                    .upd_done
                    .recv_timeout(ctx, EXCHANGE_TIMEOUT)
                    .ok_or_else(stalled)?,
            )
        } else {
            self.lanes[lane].upd_done.try_recv(ctx)
        };
        match done {
            None => Ok(false),
            // The grid is identical every exchange, so per-lane FIFO order
            // means this done is the previous exchange's tile k.
            Some(UpdateDone { chunk, buf }) if chunk == k => {
                self.dw_pool.push(buf);
                self.gate_left[lane] -= 1;
                Ok(true)
            }
            Some(_) => Err(out_of_sync()),
        }
    }

    /// Issues the stream-read for tile `k` to its reader connection,
    /// unless the lane went stale.
    fn issue_read(&mut self, ctx: &SimContext, k: usize) {
        let c = self.grid[k];
        if self.lane_stale[c.lane] {
            self.read_issued[k] = false;
            return;
        }
        let mut buf = self.read_pool.pop().unwrap_or_default();
        buf.resize(c.len, 0.0);
        self.lanes[c.lane].readers[c.stream]
            .req
            .send(ctx, ReadRequest::Read { chunk: k, local_off: c.local_off, buf });
        self.read_issued[k] = true;
    }

    /// Advances the read window in grid order — the gate rule: the gate
    /// of tile `needed` blocks (the mixer wants that tile now; every tile
    /// before it is already issued), the gate of any other tile is taken
    /// only if it is already open. So the window runs as far ahead as the
    /// previous exchange's pushes allow and never waits for a tile nobody
    /// is waiting for.
    fn advance_window(
        &mut self,
        ctx: &SimContext,
        needed: Option<usize>,
    ) -> Result<(), PlatformError> {
        while self.next_read < self.grid.len() {
            let k = self.next_read;
            if !self.gate(ctx, k, needed == Some(k))? {
                break;
            }
            self.issue_read(ctx, k);
            self.next_read += 1;
        }
        Ok(())
    }

    /// Receives tile `k`'s read reply and installs it into the local `W_g`
    /// copy (a partition-stale tile keeps the last-known data). Returns
    /// the time blocked.
    fn recv_read(&mut self, ctx: &SimContext, k: usize) -> Result<SimDuration, PlatformError> {
        let c = self.grid[k];
        let t0 = ctx.now();
        let reply = self.lanes[c.lane].readers[c.stream]
            .reply
            .recv_timeout(ctx, EXCHANGE_TIMEOUT)
            .ok_or_else(stalled)?;
        let blocked = ctx.now() - t0;
        let (chunk, fresh, buf) = match reply {
            ReadReply::Fresh { chunk, buf } => (chunk, true, buf),
            ReadReply::Stale { chunk, buf } => (chunk, false, buf),
            ReadReply::Failed { error } => return Err(error.into()),
        };
        // Each connection answers in request order, so this is tile k —
        // unless the protocol slipped, and then the data must not land.
        if chunk != k {
            return Err(out_of_sync());
        }
        if fresh {
            self.wg[c.global_off..c.global_off + c.len].copy_from_slice(&buf[..c.len]);
        } else {
            self.lane_stale[c.lane] = true;
        }
        self.read_pool.push(buf);
        Ok(blocked)
    }

    /// Start-of-exchange bookkeeping, once per exchange however it is
    /// reached: re-probe stale lanes and arm the T.A5 gates of the previous
    /// exchange's pushes.
    fn open_window(&mut self, ctx: &SimContext) {
        if self.window_open {
            return;
        }
        self.window_open = true;
        self.next_read = 0;
        for (s, lane) in self.lane_stale.iter_mut().zip(&self.lanes) {
            // Sticky staleness: while the probe still sees the partition,
            // skip the lane's reads outright (mix against the stale W_g);
            // once it heals, resume the read stream.
            if *s && !lane.client.partitioned_from_server(ctx) {
                *s = false;
            }
        }
        // Per-tile lazy gating: tile k's gate is consumed right before its
        // read is issued, so this exchange's stream overlaps the previous
        // exchange's tail instead of barriering on it.
        let pending = std::mem::take(&mut self.pending);
        for (g, lane) in self.gate_left.iter_mut().zip(&self.lanes) {
            *g = if pending { lane.n_chunks } else { 0 };
        }
    }

    /// Opens the read window of the coming [`ElasticExchanger::exchange`]
    /// ahead of it: every `W_g` tile whose T.A5 gate is already open goes
    /// on the wire now, without blocking the caller. The read needs no
    /// gradient, so a caller that still has work between here and the
    /// exchange (the Hybrid-SGD root's group all-reduce) hides the read
    /// under it; the price is a `W_g` older by that span at mix time.
    ///
    /// Idempotent — a second call before the exchange does nothing — and a
    /// no-op under the monolithic exchange. Call it only on an iteration
    /// that exchanges.
    ///
    /// # Errors
    ///
    /// Reports a protocol slip on the update thread's done channel.
    pub fn start_window(&mut self, ctx: &SimContext) -> Result<(), PlatformError> {
        if self.window_open || !self.early_start {
            return Ok(());
        }
        self.open_window(ctx);
        self.advance_window(ctx, None)
    }

    /// One exchange, streamed over the chunk grid: per tile, wait for the
    /// previous exchange's push of that tile (T.A5), consume `W_g` from the
    /// striped read window (T1), elastically mix the trainer's weights (T2,
    /// eqs. 5–6) and hand the ΔW tile to the update thread (T3). Returns
    /// the time spent, which is the non-overlapped communication cost of
    /// the exchange.
    ///
    /// # Errors
    ///
    /// Propagates SMB failures.
    pub fn exchange<T: Trainer + ?Sized>(
        &mut self,
        ctx: &SimContext,
        trainer: &mut T,
    ) -> Result<SimDuration, PlatformError> {
        let start = ctx.now();
        let mut read = SimDuration::ZERO;
        let mut mix = SimDuration::ZERO;
        self.open_window(ctx);
        // Issuing reads takes no virtual time: whatever the window costs
        // the worker is time blocked on a T.A5 gate.
        let mut wait = SimDuration::ZERO;

        trainer.read_weights(&mut self.wx);
        for k in 0..self.grid.len() {
            let t0 = ctx.now();
            self.advance_window(ctx, Some(k))?;
            wait += ctx.now() - t0;
            if self.read_issued[k] {
                read += self.recv_read(ctx, k)?;
            }
            let c = self.grid[k];
            let r = c.global_off..c.global_off + c.len;
            let mut dbuf = self.dw_pool.pop().unwrap_or_default();
            dbuf.resize(c.len, 0.0);
            // T2 on the tile (eqs. 5–6), vectorized and
            // decomposition-invariant: same bits whatever the grid.
            shmcaffe_tensor::ops::elastic_mix(
                self.moving_rate,
                &mut self.wx[r.clone()],
                &mut dbuf[..c.len],
                &self.wg[r],
            );
            let tile_wire = self.wire_bytes as f64 * c.len as f64 / self.param_len.max(1) as f64;
            let mix_step = SimDuration::from_secs_f64(tile_wire * 2.0 / self.local_mix_bps);
            ctx.sleep(mix_step);
            mix += mix_step;
            // T3: hand the finished tile to its lane's update thread.
            self.lanes[c.lane].upd_req.send(ctx, UpdateRequest::Chunk { chunk: k, buf: dbuf });
        }
        trainer.write_weights(&self.wx);
        self.window_open = false;
        self.pending = true;
        self.phases = ExchangePhases { wait, read, mix };
        Ok(ctx.now() - start)
    }

    /// The mixed local weights after the last [`ElasticExchanger::exchange`]
    /// (what the Hybrid-SGD root broadcasts to its group).
    pub fn mixed_weights(&self) -> &[f32] {
        &self.wx
    }

    /// The global weights `W_g` as read at the last exchange (T1) — the
    /// center variable the master checkpoints.
    pub fn global_weights(&self) -> &[f32] {
        &self.wg
    }

    /// Per-phase timing (wait/read/mix) of the last exchange.
    pub fn phase_times(&self) -> ExchangePhases {
        self.phases
    }

    /// Number of weight increments dropped because pushing them kept
    /// failing (fault injection).
    pub fn dropped_updates(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Degraded-mode accounting: increments buffered, dropped, and
    /// replayed across partition windows (see
    /// [`crate::ShmCaffeConfig::partition_staleness_cap`]).
    pub fn degraded_stats(&self) -> DegradedStats {
        self.degraded.snapshot()
    }

    /// Stops the reader processes and update threads. Queued tiles drain
    /// in FIFO order before the shutdown is seen, so a pending exchange
    /// still completes its pushes.
    pub fn finish(self, ctx: &SimContext) {
        for lane in &self.lanes {
            lane.upd_req.send(ctx, UpdateRequest::Shutdown);
            for reader in &lane.readers {
                reader.req.send(ctx, ReadRequest::Shutdown);
            }
        }
    }

    /// Retires the exchanger into its owner's books: adds what the update
    /// threads dropped, buffered and replayed to `report` (added, so the
    /// incarnations of a rejoined worker sum), then [`Self::finish`]es.
    pub(crate) fn retire(self, ctx: &SimContext, report: &mut WorkerReport) {
        report.dropped_updates += self.dropped_updates();
        let degraded = self.degraded_stats();
        report.partition_buffered += degraded.partition_buffered;
        report.partition_dropped += degraded.partition_dropped;
        report.reconciled_updates += degraded.reconciled_updates;
        self.finish(ctx);
    }
}

/// Copies the SMB trouble `client` saw over its lifetime — faults, retries,
/// fenced writes, corruptions — into its owner's `report`.
pub(crate) fn record_client_faults(report: &mut WorkerReport, client: &SmbClient) {
    let stats = client.fault_stats();
    report.faults = stats.faults;
    report.retries = stats.retries;
    report.recovery_ms = stats.max_recovery_ms;
    report.fenced_writes = stats.fenced;
    report.corruptions_detected = stats.corruptions_detected;
    report.corruptions_repaired = stats.corruptions_repaired;
    report.corruptions_unrepairable = stats.corruptions_unrepairable;
}

/// One lane's update thread: receives mixed ΔW tiles in grid order and
/// pushes each immediately (T.A1–T.A3), overlapping with the main thread's
/// remaining reads/mixing and with T4/T5 compute.
///
/// Failure semantics are exchange-grained — never a torn half-exchange:
///
/// * a mid-stream *failover* (fencing epoch change) refolds the tiles
///   whose folds died with the old primary onto the promoted server (the
///   accumulate-stream guard kept half-folded state off the standby);
/// * a mid-stream *partition* failure backlogs the whole exchange with
///   already-folded tiles zeroed, replayed as one atomic push after heal;
/// * any other persistent failure compensates the folded tiles with one
///   atomic negated push and drops the exchange.
#[allow(clippy::too_many_arguments)]
fn update_thread(
    uctx: &SimContext,
    client: &SmbClient,
    buffers: SeasgdBuffers,
    lane_chunks: &[(usize, usize, usize)],
    upd_req: &SimChannel<UpdateRequest>,
    upd_done: &SimChannel<UpdateDone>,
    staleness_cap: usize,
    retry: &RetryPolicy,
    dropped: &AtomicU64,
    degraded: &DegradedCounters,
) {
    let lane_len = buffers.wg.len();
    let n = lane_chunks.len();
    // The exchange's full ΔW slice, staged tile by tile: the backlog,
    // refold, and compensation paths all need tiles that already went
    // back to the main thread for recycling.
    let mut staging = vec![0.0f32; lane_len];
    let mut scratch: Vec<f32> = Vec::new();
    // Increments held back while a partition cuts this worker off from
    // the memory server, replayed once it heals. Already-folded tiles are
    // zeroed at capture, so a replayed entry folds exactly once.
    let mut backlog: Vec<Vec<f32>> = Vec::new();
    let mut pos = 0usize;
    let mut folded = vec![false; n];
    let mut exchange_failed = false;
    let mut partition_fail = false;
    let mut guard: Option<SmbServer> = None;
    let mut epoch = 0u64;
    loop {
        match upd_req.recv(uctx) {
            UpdateRequest::Shutdown => break,
            UpdateRequest::Chunk { chunk, buf } => {
                let (gidx, off, len) = lane_chunks[pos];
                debug_assert_eq!(gidx, chunk);
                staging[off..off + len].copy_from_slice(&buf[..len]);
                if pos == 0 {
                    for f in folded.iter_mut() {
                        *f = false;
                    }
                    exchange_failed = false;
                    partition_fail = false;
                    // Torn-replication guard: while this exchange's tiles
                    // stream into W_g, the replicator must not ship a
                    // half-folded snapshot to the standby.
                    let server = client.server();
                    server.begin_accumulate_stream(uctx, buffers.wg.key);
                    guard = Some(server);
                    epoch = fence_epoch_of(client);
                }
                if !exchange_failed {
                    match push_range(uctx, client, &buffers, off, &buf[..len], retry) {
                        Ok(()) => {
                            folded[pos] = true;
                            let now_epoch = fence_epoch_of(client);
                            if now_epoch != epoch {
                                // Failover mid-stream: the earlier tiles'
                                // folds died with the old primary (the
                                // stream guard kept them off the standby)
                                // while this tile just landed on the
                                // promoted server. Refold the lost tiles
                                // there so exactly one full exchange lands.
                                if let Some(g) = guard.take() {
                                    g.end_accumulate_stream(uctx, buffers.wg.key);
                                }
                                let server = client.server();
                                server.begin_accumulate_stream(uctx, buffers.wg.key);
                                guard = Some(server);
                                epoch = now_epoch;
                                for j in 0..pos {
                                    if !folded[j] {
                                        continue;
                                    }
                                    let (_, joff, jlen) = lane_chunks[j];
                                    let data = &staging[joff..joff + jlen];
                                    if push_range(uctx, client, &buffers, joff, data, retry)
                                        .is_err()
                                    {
                                        folded[j] = false;
                                        exchange_failed = true;
                                        partition_fail = staleness_cap > 0
                                            && client.partitioned_from_server(uctx);
                                        break;
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            exchange_failed = true;
                            partition_fail =
                                staleness_cap > 0 && client.partitioned_from_server(uctx);
                        }
                    }
                }
                // The done is the next exchange's T.A5 gate for this tile
                // and carries the buffer back for recycling — sent even on
                // failure so the main thread never wedges.
                upd_done.send(uctx, UpdateDone { chunk, buf });
                pos += 1;
                if pos == n {
                    pos = 0;
                    if let Some(g) = guard.take() {
                        g.end_accumulate_stream(uctx, buffers.wg.key);
                    }
                    if !exchange_failed {
                        // Replay partition backlog newest-first:
                        // accumulation is commutative, so order is free.
                        while let Some(entry) = backlog.last() {
                            if push_full(uctx, client, &buffers, entry, retry).is_err() {
                                break;
                            }
                            degraded.reconciled.fetch_add(1, Ordering::Relaxed);
                            degraded.pending.fetch_sub(1, Ordering::Relaxed);
                            backlog.pop();
                        }
                    } else if partition_fail {
                        if backlog.len() < staleness_cap {
                            let mut entry = staging.clone();
                            for (j, &(_, joff, jlen)) in lane_chunks.iter().enumerate() {
                                if folded[j] {
                                    entry[joff..joff + jlen].fill(0.0);
                                }
                            }
                            backlog.push(entry);
                            degraded.buffered.fetch_add(1, Ordering::Relaxed);
                            degraded.pending.fetch_add(1, Ordering::Relaxed);
                        } else {
                            degraded.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        // A push that cannot go through within the retry
                        // budget drops the exchange: elastic averaging
                        // re-derives the lost force from the next
                        // W_x − W_g difference, whereas dying here would
                        // take the whole worker down. Tiles already folded
                        // are compensated with one atomic negated push so
                        // W_g never keeps half an exchange.
                        if folded.iter().any(|&f| f) {
                            scratch.clear();
                            scratch.resize(lane_len, 0.0);
                            for (j, &(_, joff, jlen)) in lane_chunks.iter().enumerate() {
                                if folded[j] {
                                    for (s, &v) in scratch[joff..joff + jlen]
                                        .iter_mut()
                                        .zip(&staging[joff..joff + jlen])
                                    {
                                        *s = -v;
                                    }
                                }
                            }
                            let _ = push_full(uctx, client, &buffers, &scratch, retry);
                        }
                        dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// The checkpoint segments of a run: the center variable `W_g` snapshot
/// plus a small metadata record `[checkpoint iteration, valid flag]`. Both
/// are written with the versioned checkpoint protocol
/// ([`SmbClient::checkpoint_write`]) because the master's checkpoint write
/// and a rejoining worker's read share no happens-before edge — the
/// rejoiner discovers the checkpoint through the segment table, not
/// through a message from the writer.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPlan {
    /// The checkpointed center variable (same length as `W_g`).
    pub weights: SmbBuffer,
    /// `[iter as f32, valid]` — `valid == 1.0` once any checkpoint exists.
    pub meta: SmbBuffer,
}

/// Length in f32 elements of [`CheckpointPlan::meta`].
pub const CHECKPOINT_META_LEN: usize = 2;

/// Everything a SEASGD participant needs besides its trainer.
pub struct SeasgdHarness {
    /// SMB client bound to this worker's node.
    pub client: SmbClient,
    /// The worker's buffers on the SMB server.
    pub buffers: SeasgdBuffers,
    /// The shared progress board (control info).
    pub board: ProgressBoard,
    /// Platform configuration.
    pub cfg: ShmCaffeConfig,
    /// This worker's rank.
    pub rank: usize,
    /// Iteration budget before termination alignment.
    pub target_iters: u64,
    /// Injected crash time: the worker dies at the first iteration boundary
    /// at or after this instant (`None` = never).
    pub crash_at: Option<SimTime>,
    /// Checkpoint segments: rank 0 writes the center variable there every
    /// [`ShmCaffeConfig::checkpoint_every`] iterations; a crashed worker
    /// rejoins from it when [`ShmCaffeConfig::rejoin_delay`] is set.
    pub checkpoint: Option<CheckpointPlan>,
}

/// Outcome of [`run_worker`]: the filled report plus rank-0 evaluations.
#[derive(Debug)]
pub struct SeasgdOutcome {
    /// The worker's timing report.
    pub report: WorkerReport,
    /// Evaluation trajectory (non-empty only when `eval_every > 0`, on
    /// rank 0, and the trainer supports evaluation).
    pub evals: Vec<EvalPoint>,
}

/// Runs the SEASGD protocol for one worker until its budget or the
/// termination policy stops it. Returns the timing report and evaluations.
///
/// # Errors
///
/// Propagates SMB failures.
pub fn run_worker<T: Trainer>(
    ctx: &SimContext,
    harness: SeasgdHarness,
    trainer: &mut T,
) -> Result<SeasgdOutcome, PlatformError> {
    let SeasgdHarness { client, mut buffers, board, cfg, rank, target_iters, crash_at, checkpoint } =
        harness;
    let mut log = StepLog::new(rank, cfg.eval_every);
    let param_len = trainer.param_len();
    let wire_bytes = trainer.wire_bytes();
    let spawn = |buffers, label: &str| {
        ElasticExchanger::spawn(ctx, client.clone(), buffers, param_len, wire_bytes, &cfg, label)
    };

    // `None` only between a crash and a successful rejoin.
    let mut exchanger = Some(spawn(buffers, &format!("w{rank}")));
    // Retry policy for this worker's checkpoint traffic, seeded apart from
    // the exchanger's stream so both stay deterministic.
    let ckpt_retry = RetryPolicy {
        max_attempts: 8,
        deadline: SimDuration::from_millis(500),
        ..RetryPolicy::with_seed(cfg.seed.wrapping_add(0xC4B7 + rank as u64))
    };
    let mut iter: u64 = 0;
    let mut stop = false;

    while !stop {
        // Injected worker death: stop publishing, heartbeating, and
        // exchanging. The exchanger teardown models the OS reaping the
        // dead process's update thread. With a checkpoint plan and a
        // rejoin delay configured, the crashed rank later comes back and
        // resumes from the latest center-variable checkpoint.
        if !log.report.crashed && crash_at.is_some_and(|t| ctx.now() >= t) {
            log.report.crashed = true;
            let dead = exchanger.take().expect("live incarnation has an exchanger");
            dead.retire(ctx, &mut log.report);
            let (Some(ckpt), Some(delay)) = (checkpoint, cfg.rejoin_delay) else { break };
            ctx.sleep(delay);
            // Elastic rejoin: read the checkpoint metadata first (the
            // versioned protocol — no happens-before edge to the writer).
            let mut meta = [0.0f32; CHECKPOINT_META_LEN];
            let meta_ok = client.checkpoint_read(ctx, &ckpt.meta, &mut meta, &ckpt_retry).is_ok();
            if !meta_ok || meta[1] != 1.0 {
                // No valid checkpoint to rejoin from: announce the aborted
                // attempt on the board (so survivors stop waiting for this
                // rank) and stay dead.
                board.publish(&client, ctx, rank, iter, true)?;
                break;
            }
            let ckpt_iter = meta[0] as u64;
            let mut w = vec![0.0f32; param_len];
            client.checkpoint_read(ctx, &ckpt.weights, &mut w, &ckpt_retry)?;
            trainer.write_weights(&w);
            // Reclaim the dead incarnation's SMB state: free the old
            // increment buffer if the lease eviction has not beaten us to
            // it, acknowledge any eviction verdicts (GC'ing this rank's
            // tombstones), and resume heartbeating under a fresh lease.
            let _ = client.free(ctx, buffers.dw);
            client.ack_eviction(ctx, rank);
            let dw_key = client.create_owned(
                ctx,
                &format!("dW_{rank}_r"),
                param_len,
                Some(wire_bytes),
                rank,
            )?;
            let dw = client.alloc(ctx, dw_key)?;
            buffers = SeasgdBuffers { wg: buffers.wg, dw };
            client.heartbeat(ctx, rank);
            // Staleness accounting: how far the fleet ran ahead of the
            // checkpoint this worker restarts from.
            let snap = board.snapshot(&client, ctx)?;
            let fleet_max = snap.workers.iter().map(|p| p.iterations).max().unwrap_or(0);
            log.report.rejoin_staleness_iters = fleet_max.saturating_sub(ckpt_iter);
            log.report.rejoined = true;
            exchanger = Some(spawn(buffers, &format!("w{rank}_r")));
            log.reset_loss();
            iter = ckpt_iter;
            continue;
        }
        let exchanger = exchanger.as_mut().expect("only a crashed incarnation lacks one");
        if iter.is_multiple_of(cfg.update_interval as u64) {
            let comm = exchanger.exchange(ctx, trainer)?;
            log.report.comm_ms.record_duration_ms(comm);
            let phases = exchanger.phase_times();
            log.report.wait_ms.record_duration_ms(phases.wait);
            log.report.read_ms.record_duration_ms(phases.read);
            log.report.mix_ms.record_duration_ms(phases.mix);
        }

        // T4 + T5: train one minibatch and apply the local update (eq. 2).
        let comp_start = ctx.now();
        let loss = trainer.compute_gradients(ctx);
        trainer.apply_update(ctx);
        log.report.comp_ms.record_duration_ms(ctx.now() - comp_start);
        iter += 1;

        // Center-variable checkpointing (rank 0 only): publish the W_g
        // snapshot of the last exchange plus `[iter, valid]` metadata via
        // the versioned checkpoint protocol. The segments live on the SMB
        // server and ride the replication stream to the standby, so the
        // checkpoint survives a memory-server failover.
        if rank == 0 && cfg.checkpoint_every > 0 && iter.is_multiple_of(cfg.checkpoint_every as u64)
        {
            if let Some(ckpt) = &checkpoint {
                client.checkpoint_write(
                    ctx,
                    &ckpt.weights,
                    exchanger.global_weights(),
                    &ckpt_retry,
                )?;
                client.checkpoint_write(ctx, &ckpt.meta, &[iter as f32, 1.0], &ckpt_retry)?;
            }
        }

        // Loss average and convergence instrumentation (rank 0 evaluates).
        log.close(ctx, trainer, iter, loss);

        // Progress sharing and termination alignment (§III-E). The
        // heartbeat keeps this worker's SMB leases alive; a crashed worker
        // stops sending them and is eventually evicted by the server.
        if iter.is_multiple_of(cfg.progress_every as u64) || iter >= target_iters {
            client.heartbeat(ctx, rank);
            board.publish(&client, ctx, rank, iter, iter >= target_iters)?;
            let snapshot = board.snapshot(&client, ctx)?;
            stop = cfg.termination.should_stop(&snapshot, iter, target_iters);
        }
    }

    if let Some(live) = exchanger {
        live.retire(ctx, &mut log.report);
    }
    // A rejoined worker finished a full incarnation and must announce it;
    // a worker that died without rejoining never reaches the board again.
    if !log.report.crashed || log.report.rejoined {
        board.publish(&client, ctx, rank, iter, true)?;
    }

    record_client_faults(&mut log.report, &client);
    let (report, evals) = log.finish(ctx, iter);
    Ok(SeasgdOutcome { report, evals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termination::TerminationPolicy;
    use crate::trainer::{ModeledTrainer, ModeledTrainerFactory, TrainerFactory};
    use parking_lot::Mutex;
    use shmcaffe_models::{CnnModel, WorkloadModel};
    use shmcaffe_mpi::{MpiData, MpiWorld};
    use shmcaffe_rdma::RdmaFabric;
    use shmcaffe_simnet::fault::FaultPlan;
    use shmcaffe_simnet::jitter::JitterModel;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
    use shmcaffe_simnet::Simulation;
    use shmcaffe_smb::{ShmKey, SmbServer};
    use std::sync::Arc;

    #[test]
    fn grid_covers_every_element_exactly_once() {
        for (lanes, cfg) in [
            (vec![1_000_000], ShmCaffeConfig::default()),
            (vec![1_000_000], ShmCaffeConfig { exchange_chunk_elems: 7, ..Default::default() }),
            (
                vec![999_999],
                ShmCaffeConfig { exchange_chunk_elems: 1_000_000, ..Default::default() },
            ),
            (vec![1], ShmCaffeConfig::default()),
            (
                vec![300_000, 300_000, 400_001],
                ShmCaffeConfig { exchange_chunk_elems: 123_457, ..Default::default() },
            ),
            (
                vec![500_000, 500_000],
                ShmCaffeConfig { pipelined_exchange: false, ..Default::default() },
            ),
        ] {
            let grid = exchange_grid(&lanes, &cfg);
            let total: usize = lanes.iter().sum();
            let mut next = 0usize;
            let mut lane_start = 0usize;
            let mut lane = 0usize;
            for c in &grid {
                assert_eq!(c.global_off, next, "tiles are contiguous");
                while c.global_off >= lane_start + lanes[lane] {
                    lane_start += lanes[lane];
                    lane += 1;
                }
                assert_eq!(c.lane, lane, "tile assigned to the lane holding it");
                assert_eq!(c.local_off, c.global_off - lane_start);
                assert!(
                    c.local_off + c.len <= lanes[lane],
                    "tile never straddles a shard boundary"
                );
                assert!(c.len > 0);
                next += c.len;
            }
            assert_eq!(next, total, "grid covers the whole vector");
        }
    }

    #[test]
    fn default_grid_targets_the_paper_chunk_count() {
        let grid = exchange_grid(&[13_375_000], &ShmCaffeConfig::default());
        assert_eq!(grid.len(), DEFAULT_EXCHANGE_CHUNKS);
        let mono = exchange_grid(
            &[13_375_000],
            &ShmCaffeConfig { pipelined_exchange: false, ..Default::default() },
        );
        assert_eq!(mono.len(), 1);
    }

    /// Assembles the full master/slave handshake and runs `n` workers.
    fn run_seasgd(
        n_workers: usize,
        nodes: usize,
        cfg: ShmCaffeConfig,
        workload: WorkloadModel,
    ) -> Vec<SeasgdOutcome> {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(nodes));
        let rdma = RdmaFabric::new(fabric.clone());
        let server = SmbServer::new(rdma).unwrap();
        let mpi = MpiWorld::new(fabric, n_workers);
        let factory = ModeledTrainerFactory::new(workload, cfg.jitter, cfg.seed);
        let outcomes: Arc<Mutex<Vec<Option<SeasgdOutcome>>>> =
            Arc::new(Mutex::new((0..n_workers).map(|_| None).collect()));

        let mut sim = Simulation::new();
        for rank in 0..n_workers {
            let server = server.clone();
            let mut comm = mpi.comm(rank);
            let factory = factory.clone();
            let outcomes = Arc::clone(&outcomes);
            let node = mpi.node_of(rank);
            sim.spawn(&format!("worker{rank}"), move |ctx| {
                let mut trainer = factory.make(rank, n_workers);
                let client = SmbClient::new(server, node);
                let (wg_key, board_key) = if rank == 0 {
                    let wg_key = client
                        .create(&ctx, "W_g", trainer.param_len(), Some(trainer.wire_bytes()))
                        .unwrap();
                    let (_board, board_key) =
                        ProgressBoard::create(&client, &ctx, "ctrl", n_workers).unwrap();
                    comm.broadcast(&ctx, 0, Some(MpiData::U64s(vec![wg_key.0, board_key.0])));
                    (wg_key, board_key)
                } else {
                    let keys = comm.broadcast(&ctx, 0, None).into_u64s();
                    (ShmKey(keys[0]), ShmKey(keys[1]))
                };
                let wg = client.alloc(&ctx, wg_key).unwrap();
                let dw_key = client
                    .create(
                        &ctx,
                        &format!("dW_{rank}"),
                        trainer.param_len(),
                        Some(trainer.wire_bytes()),
                    )
                    .unwrap();
                let dw = client.alloc(&ctx, dw_key).unwrap();
                let board = ProgressBoard::attach(&client, &ctx, board_key, n_workers).unwrap();
                let harness = SeasgdHarness {
                    client,
                    buffers: SeasgdBuffers { wg, dw },
                    board,
                    cfg,
                    rank,
                    target_iters: cfg.max_iters as u64,
                    crash_at: None,
                    checkpoint: None,
                };
                let outcome = run_worker(&ctx, harness, &mut trainer).unwrap();
                outcomes.lock()[rank] = Some(outcome);
            });
        }
        sim.run();
        let outcome_slots = std::mem::take(&mut *outcomes.lock());
        outcome_slots.into_iter().map(|o| o.expect("worker finished")).collect()
    }

    fn quick_workload() -> WorkloadModel {
        WorkloadModel::custom("test", 1_000_000, SimDuration::from_millis(10))
    }

    fn quiet(cfg: ShmCaffeConfig) -> ShmCaffeConfig {
        ShmCaffeConfig { jitter: JitterModel::NONE, ..cfg }
    }

    #[test]
    fn single_worker_completes_budget() {
        let cfg = quiet(ShmCaffeConfig { max_iters: 20, progress_every: 5, ..Default::default() });
        let out = run_seasgd(1, 1, cfg, quick_workload());
        assert_eq!(out[0].report.iters, 20);
        assert!(out[0].report.comp_ms.mean() >= 10.0);
        assert!(out[0].report.comm_ms.count() > 0);
        assert!(out[0].report.mix_ms.count() > 0, "phase timing is recorded");
    }

    #[test]
    fn sixteen_workers_all_finish_and_contend() {
        let cfg = quiet(ShmCaffeConfig { max_iters: 10, progress_every: 5, ..Default::default() });
        // Big 100 MB wire: contention at the server must make comm visible.
        let wl = WorkloadModel::custom("big", 100_000_000, SimDuration::from_millis(100));
        let out = run_seasgd(16, 4, cfg, wl);
        for o in &out {
            assert_eq!(o.report.iters, 10);
            assert!(o.report.comm_ms.mean() > 1.0, "comm {:.3}", o.report.comm_ms.mean());
        }
    }

    #[test]
    fn update_interval_reduces_comm() {
        let wl = quick_workload();
        let every = run_seasgd(
            4,
            1,
            quiet(ShmCaffeConfig { max_iters: 20, update_interval: 1, ..Default::default() }),
            wl.clone(),
        );
        let sparse = run_seasgd(
            4,
            1,
            quiet(ShmCaffeConfig { max_iters: 20, update_interval: 5, ..Default::default() }),
            wl,
        );
        let comm_every: f64 = every.iter().map(|o| o.report.comm_ms.sum()).sum();
        let comm_sparse: f64 = sparse.iter().map(|o| o.report.comm_ms.sum()).sum();
        assert!(
            comm_sparse < comm_every / 2.0,
            "update_interval=5 should cut communication: {comm_sparse} vs {comm_every}"
        );
    }

    #[test]
    fn first_finisher_policy_stops_early_under_skew() {
        // Strong jitter so workers drift apart; FirstFinisher should cut
        // slow workers short.
        let cfg = ShmCaffeConfig {
            max_iters: 60,
            progress_every: 2,
            termination: TerminationPolicy::FirstFinisher,
            jitter: JitterModel { sigma: 0.5, stall_probability: 0.2, stall_factor: 2.0 },
            ..Default::default()
        };
        let out = run_seasgd(4, 1, cfg, quick_workload());
        let iters: Vec<u64> = out.iter().map(|o| o.report.iters).collect();
        assert!(iters.iter().any(|&i| i >= 60), "someone reaches the budget: {iters:?}");
        assert!(iters.iter().any(|&i| i < 60), "someone stops early: {iters:?}");
    }

    #[test]
    fn zero_moving_rate_produces_zero_increments() {
        // With moving_rate = 0 no elastic force: the protocol still runs
        // (reads, writes, accumulates of zeros) and nothing diverges.
        let cfg = quiet(ShmCaffeConfig { max_iters: 5, moving_rate: 0.0, ..Default::default() });
        let out = run_seasgd(2, 1, cfg, quick_workload());
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(o.report.comm_ms.count() >= 5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ShmCaffeConfig { max_iters: 8, ..Default::default() };
        let a = run_seasgd(4, 1, cfg, quick_workload());
        let b = run_seasgd(4, 1, cfg, quick_workload());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.report.finished_at, y.report.finished_at);
            assert_eq!(x.report.comm_ms, y.report.comm_ms);
        }
    }

    #[test]
    fn chunked_pipeline_cuts_nonoverlapped_comm() {
        // Same workload, same fleet: the pipelined chunk stream must spend
        // visibly less non-overlapped time than the monolithic exchange
        // (the reads for later tiles ride under earlier tiles' mixing, and
        // the T.A5 gates drain per tile under compute).
        let wl = WorkloadModel::custom("mid", 50_000_000, SimDuration::from_millis(120));
        let mono = run_seasgd(
            2,
            1,
            quiet(ShmCaffeConfig {
                max_iters: 10,
                pipelined_exchange: false,
                ..Default::default()
            }),
            wl.clone(),
        );
        let chunked = run_seasgd(
            2,
            1,
            quiet(ShmCaffeConfig { max_iters: 10, pipelined_exchange: true, ..Default::default() }),
            wl,
        );
        let t_mono: f64 = mono.iter().map(|o| o.report.comm_ms.mean()).sum();
        let t_chunk: f64 = chunked.iter().map(|o| o.report.comm_ms.mean()).sum();
        assert!(
            t_chunk < t_mono,
            "chunked pipeline must reduce non-overlapped comm: {t_chunk:.3} vs {t_mono:.3}"
        );
    }

    /// Runs `body` as the only worker of a one-node cluster: `W_g` holds
    /// the trainer's initial weights, the exchanger is spawned and torn
    /// down around it. `body` also gets the fabric, for its link counters
    /// and fault injector.
    fn solo<R: Send + 'static>(
        cfg: ShmCaffeConfig,
        workload: WorkloadModel,
        plan: FaultPlan,
        body: impl FnOnce(&SimContext, &mut ElasticExchanger, &mut ModeledTrainer, &Fabric) -> R
            + Send
            + 'static,
    ) -> R {
        let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(1), plan);
        let server = SmbServer::new(RdmaFabric::new(fabric.clone())).unwrap();
        let factory = ModeledTrainerFactory::new(workload, JitterModel::NONE, cfg.seed);
        let out = Arc::new(Mutex::new(None));
        let mut sim = Simulation::new();
        {
            let out = Arc::clone(&out);
            sim.spawn("solo", move |ctx| {
                let mut trainer = factory.make(0, 1);
                let (param_len, wire) = (trainer.param_len(), trainer.wire_bytes());
                let client = SmbClient::new(server, NodeId(0));
                let wg_key = client.create(&ctx, "W_g", param_len, Some(wire)).unwrap();
                let wg = client.alloc(&ctx, wg_key).unwrap();
                let mut w0 = vec![0.0f32; param_len];
                trainer.read_weights(&mut w0);
                client.write(&ctx, &wg, &w0).unwrap();
                let dw_key = client.create(&ctx, "dW_0", param_len, Some(wire)).unwrap();
                let dw = client.alloc(&ctx, dw_key).unwrap();
                let buffers = SeasgdBuffers { wg, dw };
                let mut ex =
                    ElasticExchanger::spawn(&ctx, client, buffers, param_len, wire, &cfg, "solo");
                let r = body(&ctx, &mut ex, &mut trainer, &fabric);
                ex.finish(&ctx);
                *out.lock() = Some(r);
            });
        }
        sim.run();
        let r = out.lock().take();
        r.expect("the worker ran to completion")
    }

    fn inception() -> WorkloadModel {
        WorkloadModel::from_cnn(CnnModel::InceptionV1)
    }

    /// The worker node's receive HCA: every `W_g` read of the solo worker
    /// crosses it and nothing else does (the memory server's own HCA is
    /// half-duplex, so its counters mix reads with pushes).
    fn worker_rx(fabric: &Fabric) -> &shmcaffe_simnet::resource::BandwidthResource {
        fabric.hca_rx(NodeId(0))
    }

    /// What crosses the memory server's HCA per steady-state Inception_v1
    /// exchange — one `W_g` read plus one ΔW push, 53.5 MB each plus
    /// protocol overhead, priced per tile of the default 16-tile grid —
    /// measured with the single-reader double buffer this window replaced.
    const INCEPTION_EXCHANGE_WIRE_BYTES: u64 = 111_815_008;

    #[test]
    fn striped_window_reads_at_line_rate_with_the_same_bytes() {
        let cfg = quiet(ShmCaffeConfig::default());
        let (phases, bytes) =
            solo(cfg, inception(), FaultPlan::new(1), |ctx, ex, trainer, fabric| {
                let mem =
                    fabric.hca_tx(fabric.memory_server().expect("testbed has a memory server"));
                let mut iteration = || {
                    ex.exchange(ctx, trainer).unwrap();
                    trainer.compute_gradients(ctx);
                    trainer.apply_update(ctx);
                    mem.total_bytes()
                };
                // Two warm-ups (pipeline fill, then steady state), as
                // `paper comm` measures; every push drains under compute.
                iteration();
                let before = iteration();
                let bytes = iteration() - before;
                (ex.phase_times(), bytes)
            });
        // 53.5 MB over four paced connections (5.74 GB/s in the Fig. 7
        // sweep) is 9.3 ms; the stall the worker sees is that minus the
        // mixing it overlaps, plus the first tiles' fill. One paced
        // connection took 33.8 ms.
        assert!(phases.read < SimDuration::from_millis(10), "read stall {}", phases.read);
        assert_eq!(phases.wait, SimDuration::ZERO, "pushes hide behind 257 ms of compute");
        assert_eq!(bytes, INCEPTION_EXCHANGE_WIRE_BYTES, "same bytes, more streams");
    }

    #[test]
    fn a_slipped_reply_is_an_error_not_an_installed_tile() {
        let workload = WorkloadModel::custom("slip", 1_000_000, SimDuration::from_millis(1));
        let cfg = quiet(ShmCaffeConfig::default());
        // A reply for the wrong tile on tile 0's connection: the exchange
        // must refuse it in a release build too, and leave W_g alone.
        let (err, wg) = solo(cfg, workload.clone(), FaultPlan::new(1), |ctx, ex, trainer, _| {
            let poison = vec![f32::NAN; ex.grid[0].len];
            ex.lanes[0].readers[0].reply.send(ctx, ReadReply::Fresh { chunk: 5, buf: poison });
            (ex.exchange(ctx, trainer).unwrap_err(), ex.global_weights().to_vec())
        });
        assert!(err.to_string().contains("out of sync"), "{err}");
        assert!(wg.iter().all(|v| !v.is_nan()), "the mis-ordered tile must not be installed");

        // Same for the T.A5 gate: a done for the wrong tile.
        let err = solo(cfg, workload, FaultPlan::new(1), |ctx, ex, trainer, _| {
            ex.exchange(ctx, trainer).unwrap();
            ctx.sleep(SimDuration::from_millis(50));
            // Swap the lane's first two dones.
            let first = ex.lanes[0].upd_done.recv(ctx);
            let second = ex.lanes[0].upd_done.recv(ctx);
            ex.lanes[0].upd_done.send(ctx, second);
            ex.lanes[0].upd_done.send(ctx, first);
            ex.exchange(ctx, trainer).unwrap_err()
        });
        assert!(err.to_string().contains("out of sync"), "{err}");
    }

    #[test]
    fn start_window_is_idempotent_and_off_where_the_protocol_reads_late() {
        let n_tiles = DEFAULT_EXCHANGE_CHUNKS;
        let cfg = quiet(ShmCaffeConfig::default());
        let (first, second, bytes) =
            solo(cfg, inception(), FaultPlan::new(1), |ctx, ex, trainer, fabric| {
                ex.exchange(ctx, trainer).unwrap();
                // Pushes of the exchange above are still streaming: only
                // the tiles whose gate is already open may go out.
                ctx.sleep(SimDuration::from_millis(5));
                ex.start_window(ctx).unwrap();
                let first = ex.next_read;
                // By now every gate is open, but the window was started.
                ctx.sleep(SimDuration::from_millis(200));
                ex.start_window(ctx).unwrap();
                let second = ex.next_read;
                let before = worker_rx(fabric).total_bytes();
                ex.exchange(ctx, trainer).unwrap();
                (first, second, worker_rx(fabric).total_bytes() - before)
            });
        assert!(0 < first && first < n_tiles, "window opened on the open gates only: {first}");
        assert_eq!(second, first, "a second start before the exchange does nothing");
        let tile = INCEPTION_EXCHANGE_WIRE_BYTES / 2 / n_tiles as u64;
        assert_eq!(bytes, tile * (n_tiles - first) as u64, "the exchange reads the rest, once");

        let late = ShmCaffeConfig { pipelined_exchange: false, ..cfg };
        let started = solo(late, inception(), FaultPlan::new(1), |ctx, ex, trainer, fabric| {
            ex.exchange(ctx, trainer).unwrap();
            ctx.sleep(SimDuration::from_millis(300));
            let before = worker_rx(fabric).transfer_count();
            ex.start_window(ctx).unwrap();
            ctx.sleep(SimDuration::from_millis(100));
            ex.window_open || worker_rx(fabric).transfer_count() != before
        });
        assert!(!started, "no early start under the monolithic exchange");
    }

    #[test]
    fn partition_with_the_window_full_costs_no_retry_budget_and_heals() {
        // The server->worker direction is severed 3 ms into an exchange
        // that starts at t = 100 ms with all sixteen reads queued: eight
        // are on the wire or done, eight wait behind them.
        let mem = NodeId(1); // `paper_testbed(1)`: GPU node 0, memory server 1
        let plan = FaultPlan::new(5).partition_one_way(
            vec![vec![mem], vec![NodeId(0)]],
            SimTime::from_millis(103),
            Some(SimTime::from_millis(400)),
        );
        let cfg = quiet(ShmCaffeConfig::default());
        let full = INCEPTION_EXCHANGE_WIRE_BYTES / 2;
        solo(cfg, inception(), plan, move |ctx, ex, trainer, fabric| {
            let injector = fabric.fault_injector().expect("plan installed");
            let mut exchange_at = |ms: u64| {
                ctx.sleep_until(SimTime::from_millis(ms));
                let before = worker_rx(fabric).total_bytes();
                let blocked = ex.exchange(ctx, trainer).unwrap();
                (blocked, worker_rx(fabric).total_bytes() - before, ex.lane_stale[0])
            };

            let (blocked, bytes, stale) = exchange_at(100);
            // 1.2 x the 500 ms retry deadline is the contract; the probe
            // makes it far less: no queued read ever starts its retries.
            assert!(blocked < SimDuration::from_millis(600), "blocked {blocked}");
            assert!(stale, "the first Stale reply marks the lane");
            assert!(0 < bytes && bytes < full, "reads in flight land, queued ones do not: {bytes}");
            assert_eq!(injector.stats().partition_hits, 0, "Stale without touching the wire");

            let (_, bytes, stale) = exchange_at(250);
            assert!(stale && bytes == 0, "a stale lane issues no read: {bytes} bytes");
            assert_eq!(injector.stats().partition_hits, 0);

            let (_, bytes, stale) = exchange_at(450);
            assert!(!stale, "the probe sees the heal");
            assert_eq!(bytes, full, "reading resumes with the whole grid");
        });
    }
}
