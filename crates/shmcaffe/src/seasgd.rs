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
//! The grid is derived only from the parameter length, the lane count and
//! `pipelined_exchange` ([`EXCHANGE_CHUNKS`] tiles, or one per lane) —
//! never from timing — and the mixing is elementwise, so the chunked
//! stream produces **bit-identical weights** to the monolithic exchange
//! (`pipelined_exchange: false`, which runs the same loop with a single
//! whole-vector tile per lane — hence one reader, one stream: the paper's
//! protocol). When `W_g` stripes across several memory servers
//! ([`ElasticExchanger::spawn_sharded`]), the grid is additionally cut at
//! the lane bounds and every tile streams down its own lane, so tiles on
//! different servers transfer in parallel.
//!
//! `W_g`'s layout lives here: [`stripe`] is the one rule that cuts the
//! vector into lanes, and [`create_wg`], [`seed_wg`] and [`join`] are the
//! Fig. 2 bring-up over a participant's lanes, one step each, so every
//! site that stands SEASGD up cuts `W_g` the same way.
//!
//! The `W_g` read depends on no gradient — only the mix does — so a caller
//! with work to do between "gradients computed" and "weights updated" may
//! open the window early with [`ElasticExchanger::start_window`]: the
//! Hybrid-SGD root does, and its read rides under the group all-reduce.
//!
//! One settling rule covers both halves of an exchange, because mixing
//! conserves `W_g + ΣW_x` whatever `W_g` value it mixed against and
//! folding is elementwise:
//!
//! - **Read.** Every tile is read every exchange. A `W_g` tile read that
//!   fails — a partition, a corruption, a spent retry budget — leaves that
//!   tile stale: it mixes against its last-known `W_g`, and the tiles after
//!   it read on. The reader probes for a partition before each read and
//!   answers a cut-off read stale without touching the wire. A failed read
//!   never ends the worker.
//! - **Push.** A tile that landed in `W_g` is a valid increment on its
//!   own and stays there when a later push of its exchange fails. The
//!   first failed push decides what becomes of the exchange's other tiles:
//!   if the client sees a partition, the lane owes them to `W_g` in one
//!   lane-sized sum that it pushes once after the first exchange whose
//!   pushes all land; on any other failure they are dropped. Across a
//!   memory-server fail-over the lane re-pushes, in fold order, every fold
//!   the promoted standby's copy of `W_g` does not hold yet.
//!
//! [`ElasticExchanger::finish`] settles before it returns the books
//! ([`PushStats`]): every push handed over has landed or been booked, a
//! fail-over redo still due has run, and what is still owed is dropped and
//! booked, so a `W_g` read after it sees every fold the books do not count
//! as dropped.
//!
//! [`ElasticExchanger`] packages steps 1–4 so that both the pure
//! asynchronous worker ([`run_worker`]) and the Hybrid-SGD group root
//! ([`crate::hybrid`]) share one implementation.

use std::ops::{AddAssign, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::{SimContext, SimDuration, SimTime};
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::{RetryPolicy, ShmKey, SmbBuffer, SmbClient, SmbError};

use crate::config::ShmCaffeConfig;
use crate::platforms::fleet::StepLog;
use crate::report::{RankOutcome, WorkerReport};
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
/// of the HCA (`STREAM_BPS` in `smb/src/server.rs`); the Fig. 7 sweep
/// (`BENCH_paper.json`) has four paced connections at 5.74 of the
/// 6.41 GB/s that 32 reach, so four take the `W_g` stream to nine tenths
/// of what the server ever delivers and a fifth buys little but a thread.
pub const READ_STREAMS: usize = 4;

/// Lane `k`'s stripe of a `len`-element vector that costs `wire` bytes on
/// the wire, striped over `lanes` lanes: its elements
/// `k·len/lanes .. (k+1)·len/lanes` (contiguous, near-equal, in parameter
/// order) and its share of the wire bytes, `wire·(hi−lo)/len`. The one
/// placement rule of `W_g`: the bring-up cuts the segments with it and the
/// exchanger cuts its grid with it.
pub fn stripe(len: usize, wire: u64, lanes: usize, k: usize) -> (Range<usize>, u64) {
    let (lo, hi) = (k * len / lanes, (k + 1) * len / lanes);
    let share = u128::from(wire) * (hi - lo) as u128 / len.max(1) as u128;
    (lo..hi, share as u64)
}

/// Fig. 2's first step on every lane: creates lane `k`'s [`stripe`] of
/// `W_g`, named `name`, on `lanes[k]`'s server. Returns the SHM keys in
/// lane order, for the master to broadcast.
///
/// # Errors
///
/// Propagates the first failed create.
pub fn create_wg(
    ctx: &SimContext,
    lanes: &[SmbClient],
    name: &str,
    len: usize,
    wire: u64,
) -> Result<Vec<ShmKey>, SmbError> {
    let create = |(k, client): (usize, &SmbClient)| {
        let (span, share) = stripe(len, wire, lanes.len(), k);
        client.create(ctx, name, span.len(), Some(share))
    };
    lanes.iter().enumerate().map(create).collect()
}

/// Seeds `W_g` with the initial weights `w0`: on every lane, allocates the
/// segment `keys[k]` and writes lane `k`'s [`stripe`] of `w0` into it.
///
/// # Errors
///
/// Propagates the first failed alloc or write.
pub fn seed_wg(
    ctx: &SimContext,
    lanes: &[SmbClient],
    keys: &[ShmKey],
    w0: &[f32],
) -> Result<(), SmbError> {
    for (k, (client, &key)) in lanes.iter().zip(keys).enumerate() {
        let (span, _) = stripe(w0.len(), 0, lanes.len(), k);
        let wg = client.alloc(ctx, key)?;
        client.write(ctx, &wg, &w0[span])?;
    }
    Ok(())
}

/// Fig. 2's last step on every lane: allocates `W_g` by its broadcast key,
/// then creates and allocates this participant's private ΔW, named
/// `dw_name`, as long and as wide on the wire as the lane's `W_g` —
/// leased to rank `owner`, so the server evicts it when the rank stops
/// heartbeating, or unleased. Returns the lanes, in parameter order, that
/// [`ElasticExchanger::spawn_sharded`] takes.
///
/// # Errors
///
/// Propagates the first failed alloc or create.
pub fn join(
    ctx: &SimContext,
    lanes: &[SmbClient],
    keys: &[ShmKey],
    dw_name: &str,
    owner: Option<usize>,
) -> Result<Vec<(SmbClient, SeasgdBuffers)>, SmbError> {
    let join_lane = |(client, &key): (&SmbClient, &ShmKey)| {
        let wg = client.alloc(ctx, key)?;
        let dw_key = match owner {
            Some(rank) => client.create_owned(ctx, dw_name, wg.len(), Some(wg.wire_bytes), rank)?,
            None => client.create(ctx, dw_name, wg.len(), Some(wg.wire_bytes))?,
        };
        let dw = client.alloc(ctx, dw_key)?;
        Ok((client.clone(), SeasgdBuffers { wg, dw }))
    };
    lanes.iter().zip(keys).map(join_lane).collect()
}

/// One tile of the fixed exchange chunk grid.
#[derive(Debug, Clone, Copy)]
struct GridChunk {
    /// Index of the lane the tile lives on.
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

/// Tiles the pipelined exchange cuts the parameter vector into — in the
/// paper's ~8–32 sweet spot: enough to overlap read, mix and push, few
/// enough that per-tile control latency stays negligible.
pub const EXCHANGE_CHUNKS: usize = 16;

/// Builds the deterministic chunk grid of a `param_len`-element vector
/// over `lanes` lanes: cut at every multiple of the tile size
/// (`param_len / EXCHANGE_CHUNKS` rounded up when `pipelined`, the whole
/// vector otherwise) and additionally at every lane bound of [`stripe`].
/// The grid depends only on these three — never on timing — which is what
/// makes the chunked and monolithic paths bit-identical.
fn exchange_grid(param_len: usize, lanes: usize, pipelined: bool) -> Vec<GridChunk> {
    let tile = if pipelined { param_len.div_ceil(EXCHANGE_CHUNKS) } else { param_len }.max(1);
    let mut grid = Vec::new();
    for lane in 0..lanes {
        let (span, _) = stripe(param_len, 0, lanes, lane);
        let mut global_off = span.start;
        let mut stream = 0usize;
        while global_off < span.end {
            let len = ((global_off / tile + 1) * tile).min(span.end) - global_off;
            let local_off = global_off - span.start;
            grid.push(GridChunk { lane, stream, local_off, global_off, len });
            global_off += len;
            stream = (stream + 1) % READ_STREAMS;
        }
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
    /// The read failed — a partition, a corruption or a spent retry
    /// budget: the tile keeps its last-known `W_g`. Poisoned bytes never
    /// reach ΔW.
    Stale { chunk: usize, buf: Vec<f32> },
}

/// Request to a lane's update thread.
enum UpdateRequest {
    /// Push ΔW tile `chunk` (grid order) and range-accumulate it into the
    /// global buffer.
    Chunk { chunk: usize, buf: Vec<f32> },
    /// A reader's read began before the lane's fail-over redo and ended
    /// after the fail-over: run the redo, then answer on the channel
    /// whether it re-pushed anything (if not, the read saw every fold).
    Redo(SimChannel<bool>),
    /// Run any fail-over redo still due, close the lane's books (what is
    /// still owed is dropped), answer them on the channel, then terminate.
    Shutdown(SimChannel<PushStats>),
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

/// Throughput of the worker-local weight-mixing pass (T2/T5 memory traffic
/// over W_x, W_g, ΔW), in bytes/s: GDDR5X copy throughput.
const LOCAL_MIX_BPS: f64 = 25.0e9;

/// What one exchanger's update threads did with the exchanges whose
/// pushes failed, counted once per exchange and lane (the tiles that
/// landed before the failure stay in `W_g` in every case): the rest
/// dropped, or — while a network partition cut the worker off from the
/// memory server (paper-style minority-side behaviour) — owed and replayed
/// after the heal. The books close when [`ElasticExchanger::finish`]
/// returns them, dropping what is still owed. Failed
/// `W_g` reads are not booked here: they move no mass, and the client's
/// fault counters count their attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Exchanges whose unlanded tiles were dropped after a push that kept
    /// failing without a partition.
    pub dropped_updates: u64,
    /// Exchanges whose unlanded tiles were owed for replay after the
    /// partition heals.
    pub partition_buffered: u64,
    /// Owed exchanges still unreplayed when [`ElasticExchanger::finish`]
    /// closed the books, and so dropped.
    pub partition_dropped: u64,
    /// Owed exchanges replayed into `W_g`.
    pub reconciled_updates: u64,
    /// Elements of the unlanded tiles that never reached `W_g`, summed
    /// over the exchanges booked in `dropped_updates` and
    /// `partition_dropped`: the most components of `W_g + ΣW_x` the drops
    /// can leave short.
    pub dropped_elems: u64,
}

impl AddAssign for PushStats {
    fn add_assign(&mut self, other: PushStats) {
        self.dropped_updates += other.dropped_updates;
        self.partition_buffered += other.partition_buffered;
        self.partition_dropped += other.partition_dropped;
        self.reconciled_updates += other.reconciled_updates;
        self.dropped_elems += other.dropped_elems;
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
    /// The update thread's answer to this reader's [`UpdateRequest::Redo`].
    redo_reply: SimChannel<bool>,
}

/// One shard lane: the channels and grid bookkeeping for a single memory
/// server's slice of the parameter vector. Its SMB traffic goes through
/// the lane's reader and update threads.
struct Lane {
    /// The lane's reader connections, indexed by [`GridChunk::stream`]
    /// (`min(READ_STREAMS, n_chunks)` of them: a one-tile lane has one).
    readers: Vec<Reader>,
    upd_req: SimChannel<UpdateRequest>,
    upd_done: SimChannel<UpdateDone>,
    /// Tiles of the grid on this lane.
    n_chunks: usize,
}

/// The process behind one reader connection: T1, one tile at a time. The
/// zero-cost partition probe runs *before* each read, so a read the
/// partition cuts off answers `Stale` without touching the wire instead of
/// burning its own retry budget. A read that began before the lane's
/// update thread ran its fail-over redo (`redone`) and ended with the pair
/// promoted may miss folds that died with the old primary: the reader asks
/// the update thread to redo them and, if it re-pushed any, reads again.
/// Every read error answers `Stale`: the tile mixes against its last-known
/// `W_g`, which conserves mass as well as a fresh one.
fn serve_reads(
    rctx: &SimContext,
    client: &SmbClient,
    wg: &SmbBuffer,
    conn: &Reader,
    retry: &RetryPolicy,
    upd_req: &SimChannel<UpdateRequest>,
    redone: &AtomicBool,
) {
    while let ReadRequest::Read { chunk, local_off, mut buf } = conn.req.recv(rctx) {
        let reply = if client.partitioned_from_server(rctx) {
            ReadReply::Stale { chunk, buf }
        } else {
            let settled = redone.load(Ordering::Acquire);
            let mut read = client.read_range_retrying(rctx, wg, local_off, &mut buf, retry);
            if read.is_ok() && !settled && client.pair().is_some_and(|p| p.promoted()) {
                upd_req.send(rctx, UpdateRequest::Redo(conn.redo_reply.clone()));
                if conn.redo_reply.recv_timeout(rctx, EXCHANGE_TIMEOUT) == Some(true) {
                    read = client.read_range_retrying(rctx, wg, local_off, &mut buf, retry);
                }
            }
            match read {
                Ok(()) => ReadReply::Fresh { chunk, buf },
                Err(_) => ReadReply::Stale { chunk, buf },
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
    /// Per-lane: T.A5 gates still to consume from the previous exchange.
    gate_left: Vec<usize>,
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

    /// Spawns a striped exchanger over several memory-server lanes: the
    /// chunk grid is additionally cut at the lane bounds and every tile's
    /// read/push rides its own lane (up to [`READ_STREAMS`] reader
    /// processes and one update thread per lane), so tiles on different
    /// servers stream in parallel. `parts` are `(client, buffers)` pairs in
    /// parameter order, as [`join`] returns them.
    ///
    /// # Panics
    ///
    /// Panics if a lane's `W_g` is not the [`stripe`] of the whole vector
    /// that its position gives it.
    pub fn spawn_sharded(
        ctx: &SimContext,
        parts: Vec<(SmbClient, SeasgdBuffers)>,
        wire_bytes: u64,
        cfg: &ShmCaffeConfig,
        label: &str,
    ) -> Self {
        let param_len: usize = parts.iter().map(|(_, b)| b.wg.len()).sum();
        for (k, (_, b)) in parts.iter().enumerate() {
            let (span, _) = stripe(param_len, 0, parts.len(), k);
            assert_eq!(b.wg.len(), span.len(), "lane {k} must hold its stripe of W_g");
        }
        let grid = exchange_grid(param_len, parts.len(), cfg.pipelined_exchange);
        // Per-worker retry seed, so identical runs retry identically;
        // deadlines are sized to outlast short fault windows.
        let retry_seed =
            label.bytes().fold(cfg.seed, |acc, b| acc.wrapping_mul(31).wrapping_add(u64::from(b)));
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
            // Tiles of this lane, in grid order.
            let tiles: Vec<GridChunk> =
                grid.iter().filter(|c| c.lane == lane_idx).copied().collect();
            let n_chunks = tiles.len();
            // The update thread's fold log, kept until the pair fails over
            // (a lone server or a pair promoted already has none to redo),
            // and whether its redo has run, for the readers.
            let log = client.pair().filter(|p| !p.promoted()).map(|_| Vec::new());
            let redone = Arc::new(AtomicBool::new(log.is_none()));
            // T1 as a striped stream: each reader connection fetches its
            // share of the W_g tiles on demand, so several range-reads are
            // on the wire while the main thread mixes the tiles before them.
            let readers: Vec<Reader> = (0..n_chunks.min(READ_STREAMS))
                .map(|r| {
                    let name = |what: &str| format!("seasgd_{what}_{label}_s{lane_idx}_r{r}");
                    let conn = Reader {
                        req: SimChannel::new(&name("read_req")),
                        reply: SimChannel::new(&name("read_reply")),
                        redo_reply: SimChannel::new(&name("redo_reply")),
                    };
                    let (client, retry, wg, served) =
                        (client.clone(), retry.clone(), buffers.wg, conn.clone());
                    let (upd_req, redone) = (upd_req.clone(), Arc::clone(&redone));
                    ctx.spawn(&format!("reader_{label}_s{lane_idx}_r{r}"), move |rctx| {
                        serve_reads(&rctx, &client, &wg, &served, &retry, &upd_req, &redone);
                    });
                    conn
                })
                .collect();
            {
                let mut pusher = Pusher {
                    log,
                    client,
                    bufs: buffers,
                    retry: retry.clone(),
                    stats: PushStats::default(),
                    redone,
                    repushed: false,
                    owed: Vec::new(),
                    owed_exchanges: 0,
                    owed_elems: 0,
                    free: Vec::new(),
                };
                let (upd_req, upd_done) = (upd_req.clone(), upd_done.clone());
                ctx.spawn(&format!("update_thread_{label}_s{lane_idx}"), move |uctx| {
                    update_thread(&uctx, &mut pusher, &tiles, &upd_req, &upd_done);
                });
            }
            lanes.push(Lane { readers, upd_req, upd_done, n_chunks });
        }
        let n_lanes = lanes.len();
        ElasticExchanger {
            lanes,
            grid,
            pending: false,
            moving_rate: cfg.moving_rate,
            wire_bytes,
            param_len,
            early_start: cfg.pipelined_exchange,
            window_open: false,
            next_read: 0,
            read_pool: Vec::new(),
            dw_pool: Vec::new(),
            gate_left: vec![0; n_lanes],
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

    /// Issues the stream-read for tile `k` to its reader connection.
    fn issue_read(&mut self, ctx: &SimContext, k: usize) {
        let c = self.grid[k];
        let mut buf = self.read_pool.pop().unwrap_or_default();
        buf.resize(c.len, 0.0);
        self.lanes[c.lane].readers[c.stream]
            .req
            .send(ctx, ReadRequest::Read { chunk: k, local_off: c.local_off, buf });
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
    /// copy (a stale tile keeps its last-known data). Returns the time
    /// blocked.
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
        };
        // Each connection answers in request order, so this is tile k —
        // unless the protocol slipped, and then the data must not land.
        if chunk != k {
            return Err(out_of_sync());
        }
        if fresh {
            self.wg[c.global_off..c.global_off + c.len].copy_from_slice(&buf[..c.len]);
        }
        self.read_pool.push(buf);
        Ok(blocked)
    }

    /// Start-of-exchange bookkeeping, once per exchange however it is
    /// reached: arm the T.A5 gates of the previous exchange's pushes.
    fn open_window(&mut self) {
        if self.window_open {
            return;
        }
        self.window_open = true;
        self.next_read = 0;
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
        self.open_window();
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
    /// Reports an update thread or reader that stopped answering, or a
    /// protocol slip on their channels. SMB failures are settled, not
    /// returned: a failed read leaves its tile stale, a failed push is
    /// booked.
    pub fn exchange<T: Trainer + ?Sized>(
        &mut self,
        ctx: &SimContext,
        trainer: &mut T,
    ) -> Result<SimDuration, PlatformError> {
        let start = ctx.now();
        let mut read = SimDuration::ZERO;
        let mut mix = SimDuration::ZERO;
        self.open_window();
        // Issuing reads takes no virtual time: whatever the window costs
        // the worker is time blocked on a T.A5 gate.
        let mut wait = SimDuration::ZERO;

        trainer.read_weights(&mut self.wx);
        for k in 0..self.grid.len() {
            let t0 = ctx.now();
            self.advance_window(ctx, Some(k))?;
            wait += ctx.now() - t0;
            read += self.recv_read(ctx, k)?;
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
            let mix_step = SimDuration::from_secs_f64(tile_wire * 2.0 / LOCAL_MIX_BPS);
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

    /// Files the last exchange's phase times (wait/read/mix) into
    /// `report`.
    pub fn record_phases(&self, report: &mut WorkerReport) {
        report.wait_ms.record_duration_ms(self.phases.wait);
        report.read_ms.record_duration_ms(self.phases.read);
        report.mix_ms.record_duration_ms(self.phases.mix);
    }

    /// Settles, stops and closes the books: first the T.A5 gates of the
    /// last exchange (every tile it handed over has landed or been
    /// booked), then each update thread runs any fail-over redo still due,
    /// books what it still owes as dropped and answers its books; the
    /// readers and update threads stop. So when this returns, `W_g` holds
    /// every fold the returned [`PushStats`] does not count as dropped. An
    /// update thread that does not answer within `EXCHANGE_TIMEOUT` is
    /// left out of the books.
    pub fn finish(mut self, ctx: &SimContext) -> PushStats {
        self.open_window();
        for k in self.next_read..self.grid.len() {
            if self.gate(ctx, k, true).is_err() {
                break;
            }
        }
        let books = SimChannel::new("seasgd_books");
        for lane in &self.lanes {
            lane.upd_req.send(ctx, UpdateRequest::Shutdown(books.clone()));
            for reader in &lane.readers {
                reader.req.send(ctx, ReadRequest::Shutdown);
            }
        }
        let mut stats = PushStats::default();
        for _ in &self.lanes {
            let Some(lane) = books.recv_timeout(ctx, EXCHANGE_TIMEOUT) else { break };
            stats += lane;
        }
        stats
    }
}

/// One fold into the primary's `W_g` that the standby may not hold yet:
/// the `W_g` version it produced, where it landed and what it added.
struct Fold {
    version: u64,
    off: usize,
    data: Vec<f32>,
}

/// The pushes of one lane's update thread and the books they keep across
/// partitions and a memory-server fail-over.
///
/// The settling rule: eqs. 5–7 fold ΔW element by element, so every tile
/// that landed is a valid increment on its own and stays in `W_g`. The
/// first failed push of an exchange ([`Pusher::fail`]) decides what
/// becomes of the tiles that did not land: if the client sees a
/// partition, they are owed — added to one lane-sized sum
/// ([`Pusher::settle`]) that [`Pusher::replay`] pushes once after the
/// first exchange whose pushes all land; after any other failure they are
/// dropped with accounting. What is still owed when the lane shuts down is
/// dropped too.
///
/// The fail-over rule: the standby's copy of `W_g` holds exactly the folds
/// up to [`shmcaffe_smb::SmbPair::replicated_version`], frozen at
/// promotion. So while the pair is unpromoted every fold is logged with
/// its version, and each new fold first prunes the log down to the
/// versions above the replicated one. Once the lane sees the pair
/// promoted, before anything else of its lands on the promoted member, the
/// folds above the frozen version are re-pushed there in log order —
/// those died with the old primary. Folds the redo cannot push are
/// settled by the same rule, as one exchange.
struct Pusher {
    client: SmbClient,
    bufs: SeasgdBuffers,
    retry: RetryPolicy,
    /// The lane's books, answered at shutdown.
    stats: PushStats,
    /// No fail-over redo is due: it has run, or there is none to run.
    /// Shared with the lane's readers.
    redone: Arc<AtomicBool>,
    /// The redo re-pushed at least one fold.
    repushed: bool,
    /// Folds into the primary's `W_g`, in fold order, above the replicated
    /// version as of the last fold; `None` when no fail-over is left to
    /// redo for (a lone server, or a pair promoted already).
    log: Option<Vec<Fold>>,
    /// Recycled [`Fold::data`] buffers, so steady-state logging does not
    /// allocate.
    free: Vec<Vec<f32>>,
    /// The sum of the increments owed to `W_g` while a partition cuts this
    /// worker off from the memory server, replayed as one push once it
    /// heals. Lane-sized, allocated at the first partition.
    owed: Vec<f32>,
    /// Exchanges whose unlanded tiles are in [`Pusher::owed`].
    owed_exchanges: u64,
    /// Elements of those unlanded tiles.
    owed_elems: u64,
}

impl Pusher {
    /// T.A1 + T.A2–T.A3 for one increment — a tile, a re-pushed fold or
    /// the owed sum: range-write it into the worker's private buffer, then
    /// server-side range-accumulate it into the global buffer. Returns the
    /// `W_g` version of the fold. Runs the fail-over redo first when one is
    /// due, and re-writes and re-folds an increment whose write or
    /// accumulate straddled a fail-over (the promoted member's ΔW range is
    /// the standby's stale copy — [`SmbError::SourceMoved`] — and a budget
    /// spent against the old member says nothing about the new one). A
    /// [`SmbError::SourceMoved`] without a fail-over (a poisoned ΔW page)
    /// is re-written and re-folded once; a second one fails the push.
    fn push(&mut self, ctx: &SimContext, off: usize, data: &[f32]) -> Result<u64, SmbError> {
        let mut rewritten = false;
        loop {
            self.redo(ctx);
            let epoch = self.client.carried_epoch();
            let (dw, wg) = (&self.bufs.dw, &self.bufs.wg);
            let folded = match self.client.write_range_retrying(ctx, dw, off, data, &self.retry) {
                Ok(()) if self.client.carried_epoch() == epoch => {
                    self.client.accumulate_range_retrying(ctx, dw, wg, off, data.len(), &self.retry)
                }
                Ok(()) => continue,
                Err(e) => Err(e),
            };
            match folded {
                // The push straddled a fail-over — the accumulate's source
                // moved, or the retry budget ran out against the old
                // member: redo, then push again on the member that serves
                // now.
                Err(_) if self.client.carried_epoch() != epoch => {}
                Err(SmbError::SourceMoved { .. }) if !rewritten => rewritten = true,
                Ok(version) => {
                    if let (Some(log), Some(pair)) = (&mut self.log, self.client.pair()) {
                        // The standby's copy already holds the folds up to
                        // the replicated version: recycle their buffers.
                        let held = pair.replicated_version(wg.key);
                        let held = log.partition_point(|f| f.version <= held);
                        self.free.extend(log.drain(..held).map(|f| f.data));
                        let mut copy = self.free.pop().unwrap_or_default();
                        copy.clear();
                        copy.extend_from_slice(data);
                        log.push(Fold { version, off, data: copy });
                    }
                    return Ok(version);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The fail-over redo, once the pair has promoted its standby:
    /// re-pushes the logged folds above the frozen replicated version in
    /// log order (the pushes find the log taken and do not recurse). Past
    /// the first failed push the rest are not tried: they and the failed
    /// one are settled as one exchange ([`Pusher::fail`]).
    fn redo(&mut self, ctx: &SimContext) {
        let Some(pair) = self.client.pair().filter(|p| p.promoted()) else { return };
        let Some(log) = self.log.take() else { return };
        let floor = pair.replicated_version(self.bufs.wg.key);
        let mut owing: Option<bool> = None;
        for fold in log.iter().filter(|f| f.version > floor) {
            self.repushed = true;
            if owing.is_none() && self.push(ctx, fold.off, &fold.data).is_ok() {
                continue;
            }
            let owed = *owing.get_or_insert_with(|| self.fail(ctx));
            self.settle(owed, fold.off, &fold.data);
        }
        self.free = Vec::new();
        self.redone.store(true, Ordering::Release);
    }

    /// Books an exchange at its first failed push and says whether its
    /// unlanded tiles are owed: if the client sees a partition, yes; after
    /// any other failure they are dropped.
    fn fail(&mut self, ctx: &SimContext) -> bool {
        let owed = self.client.partitioned_from_server(ctx);
        if owed {
            self.owed_exchanges += 1;
            self.stats.partition_buffered += 1;
        } else {
            self.stats.dropped_updates += 1;
        }
        owed
    }

    /// Settles an unlanded increment at lane offset `off` as its exchange's
    /// [`Pusher::fail`] decided: owed, or dropped with its elements booked.
    fn settle(&mut self, owed: bool, off: usize, data: &[f32]) {
        if owed {
            self.owe(off, data);
            self.owed_elems += data.len() as u64;
        } else {
            self.stats.dropped_elems += data.len() as u64;
        }
    }

    /// Adds an increment at lane offset `off` to the owed sum.
    fn owe(&mut self, off: usize, data: &[f32]) {
        if self.owed.is_empty() {
            self.owed = vec![0.0; self.bufs.wg.len()];
        }
        for (o, &v) in self.owed[off..off + data.len()].iter_mut().zip(data) {
            *o += v;
        }
    }

    /// Pushes the owed sum into `W_g` as one fold. The sum is taken and its
    /// counts read before the push: the push may run the fail-over redo,
    /// whose own owed folds must outlive this replay. A failed push puts
    /// the sum back.
    fn replay(&mut self, ctx: &SimContext) {
        let (exchanges, elems) = (self.owed_exchanges, self.owed_elems);
        if exchanges == 0 {
            return;
        }
        let owed = std::mem::take(&mut self.owed);
        if self.push(ctx, 0, &owed).is_ok() {
            self.owed_exchanges -= exchanges;
            self.owed_elems -= elems;
            self.stats.reconciled_updates += exchanges;
        } else {
            self.owe(0, &owed);
        }
    }
}

/// One lane's update thread: receives mixed ΔW tiles in grid order and
/// pushes each immediately (T.A1–T.A3), overlapping with the main thread's
/// remaining reads/mixing and with T4/T5 compute.
///
/// One rule settles an exchange (see [`Pusher`]): tiles that landed stay
/// in `W_g`; at the first failed push, [`Pusher::fail`] decides whether the
/// rest are owed (a partition) or dropped, and no later tile of the
/// exchange is tried. An exchange with no failed push
/// replays the owed sum. At shutdown the lane closes its books and
/// answers them.
fn update_thread(
    uctx: &SimContext,
    p: &mut Pusher,
    tiles: &[GridChunk],
    upd_req: &SimChannel<UpdateRequest>,
    upd_done: &SimChannel<UpdateDone>,
) {
    // `None` until a push of this exchange fails; then whether its
    // unlanded tiles are owed.
    let mut owing: Option<bool> = None;
    let mut pos = 0usize;
    loop {
        let (chunk, buf) = match upd_req.recv(uctx) {
            UpdateRequest::Chunk { chunk, buf } => (chunk, buf),
            UpdateRequest::Redo(done) => {
                p.redo(uctx);
                done.send(uctx, p.repushed);
                continue;
            }
            UpdateRequest::Shutdown(books) => {
                // Close the books: after any redo still due, what is still
                // owed never reaches W_g and is dropped.
                p.redo(uctx);
                p.stats.partition_dropped += p.owed_exchanges;
                p.stats.dropped_elems += p.owed_elems;
                books.send(uctx, p.stats);
                return;
            }
        };
        let off = tiles[pos].local_off;
        if owing.is_none() && p.push(uctx, off, &buf).is_err() {
            // A push that cannot go through within the retry budget is
            // settled, not fatal: elastic averaging re-derives a dropped
            // force from the next W_x − W_g difference, whereas dying here
            // would take the whole worker down.
            owing = Some(p.fail(uctx));
        }
        if let Some(owed) = owing {
            p.settle(owed, off, &buf);
        }
        // The done is the next exchange's T.A5 gate for this tile and
        // carries the buffer back for recycling — sent even on failure so
        // the main thread never wedges.
        upd_done.send(uctx, UpdateDone { chunk, buf });
        pos += 1;
        if pos == tiles.len() {
            pos = 0;
            if owing.take().is_none() {
                p.replay(uctx);
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

/// Runs the SEASGD protocol for one worker until its budget or the
/// termination policy stops it. Returns its books and evaluations.
///
/// # Errors
///
/// Propagates SMB failures.
pub fn run_worker<T: Trainer>(
    ctx: &SimContext,
    harness: SeasgdHarness,
    trainer: &mut T,
) -> Result<RankOutcome, PlatformError> {
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
        // exchanging. The exchanger teardown settles the tiles the update
        // thread was already handed, so the books close, then models the
        // OS reaping the dead process's threads. With a checkpoint plan and a
        // rejoin delay configured, the crashed rank later comes back and
        // resumes from the latest center-variable checkpoint.
        if !log.report.crashed && crash_at.is_some_and(|t| ctx.now() >= t) {
            log.report.crashed = true;
            let dead = exchanger.take().expect("live incarnation has an exchanger");
            // Added, so the incarnations of a rejoined worker sum.
            log.report.pushes += dead.finish(ctx);
            let (Some(ckpt), Some(delay)) = (checkpoint, cfg.rejoin_delay) else { break };
            ctx.sleep(delay);
            // Elastic rejoin: read the checkpoint metadata first (the
            // versioned protocol — no happens-before edge to the writer).
            let mut meta = [0.0f32; CHECKPOINT_META_LEN];
            let meta_ok = client.checkpoint_read(ctx, &ckpt.meta, &mut meta, &ckpt_retry).is_ok();
            if !meta_ok || meta[1] != 1.0 {
                // No valid checkpoint to rejoin from: announce the aborted
                // attempt on the board as done (the `MasterFinished` and
                // `FirstFinisher` policies read it) and stay dead.
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
            exchanger.record_phases(&mut log.report);
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
        log.report.pushes += live.finish(ctx);
    }
    // A rejoined worker finished a full incarnation and must announce it;
    // a worker that died without rejoining never reaches the board again.
    if !log.report.crashed || log.report.rejoined {
        board.publish(&client, ctx, rank, iter, true)?;
    }

    log.report.smb = client.fault_stats();
    Ok(log.finish(ctx, iter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::fleet::weights_of;
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
    use shmcaffe_smb::{ShmKey, SmbServer, SmbServerConfig};
    use std::sync::Arc;

    /// The layout of `W_g` over `lanes` lanes as a pure function of the
    /// length and the mode: the lanes are [`stripe`]'s, contiguous and
    /// near-equal; every element lies in exactly one tile, in parameter
    /// order; no tile crosses a lane bound; each lane's wire share is its
    /// proportional part of the wire, rounded down; a lane's tiles ride its
    /// reader connections round-robin; and a single lane is cut into at
    /// most [`EXCHANGE_CHUNKS`] tiles when pipelined (exactly that many
    /// when they divide the length) and one otherwise.
    fn check_layout(len: usize, lanes: usize, pipelined: bool) {
        let case = format!("len {len}, {lanes} lanes, pipelined {pipelined}");
        let grid = exchange_grid(len, lanes, pipelined);
        let wire = 4 * len as u64 + 1_234_567;
        let (mut next, mut shares) = (0usize, 0u64);
        for k in 0..lanes {
            let (span, share) = stripe(len, wire, lanes, k);
            assert_eq!(span.start, next, "{case}: lane {k} starts where the last one ended");
            assert!(len / lanes <= span.len() && span.len() <= len.div_ceil(lanes), "{case}");
            let proportional = u128::from(wire) * span.len() as u128;
            let (share, of) = (u128::from(share), len.max(1) as u128);
            assert!(share * of <= proportional && proportional < (share + 1) * of, "{case}");
            shares += share as u64;
            let tiles: Vec<&GridChunk> = grid.iter().filter(|c| c.lane == k).collect();
            let mut off = span.start;
            for (j, c) in tiles.iter().enumerate() {
                assert_eq!((c.global_off, c.local_off), (off, off - span.start), "{case}");
                assert!(c.len > 0 && off + c.len <= span.end, "{case}: tile crosses a lane bound");
                assert_eq!(c.stream, j % READ_STREAMS, "{case}");
                off += c.len;
            }
            assert_eq!(off, span.end, "{case}: lane {k}'s tiles cover its stripe");
            if !pipelined {
                assert_eq!(tiles.len(), usize::from(!span.is_empty()), "{case}: one tile a lane");
            }
            next = span.end;
        }
        assert_eq!(next, len, "{case}: the lanes cover the vector");
        assert!(shares <= wire && (len == 0 || wire - shares < lanes as u64), "{case}");
        let mut off = 0;
        for c in &grid {
            assert_eq!(c.global_off, off, "{case}: every element in exactly one tile, in order");
            off += c.len;
        }
        assert_eq!(off, len, "{case}");
        if lanes == 1 && pipelined {
            assert!(grid.len() <= EXCHANGE_CHUNKS, "{case}: {} tiles", grid.len());
            if len > 0 && len.is_multiple_of(EXCHANGE_CHUNKS) {
                assert_eq!(grid.len(), EXCHANGE_CHUNKS, "{case}");
            }
        }
    }

    #[test]
    fn the_layout_holds_at_the_edge_lengths() {
        // Empty, one element, fewer elements than lanes, primes, tile-size
        // multiples and a paper-sized vector.
        let lengths = [0, 1, 2, 3, 7, 16, 17, 31, 4096, 9_973, 1 << 20, 999_983, 1_000_000];
        for len in lengths {
            for lanes in 1..=4 {
                for pipelined in [true, false] {
                    check_layout(len, lanes, pipelined);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn any_length_lays_out_w_g_cleanly(
            len in 0usize..1_000_001,
            lanes in 1usize..5,
            pipelined in 0u8..2,
        ) {
            check_layout(len, lanes, pipelined == 1);
        }
    }

    #[test]
    fn default_grid_targets_the_paper_chunk_count() {
        assert_eq!(exchange_grid(13_375_000, 1, true).len(), EXCHANGE_CHUNKS);
        assert_eq!(exchange_grid(13_375_000, 1, false).len(), 1);
    }

    /// Assembles the full master/slave handshake and runs `n` workers.
    fn run_seasgd(
        n_workers: usize,
        nodes: usize,
        cfg: ShmCaffeConfig,
        workload: WorkloadModel,
    ) -> Vec<RankOutcome> {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(nodes));
        let rdma = RdmaFabric::new(fabric.clone());
        let server = SmbServer::new(rdma).unwrap();
        let mpi = MpiWorld::new(fabric, n_workers);
        let factory = ModeledTrainerFactory::new(workload, cfg.jitter, cfg.seed);
        let outcomes: Arc<Mutex<Vec<Option<RankOutcome>>>> =
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
                let lanes = std::slice::from_ref(&client);
                let (param_len, wire) = (trainer.param_len(), trainer.wire_bytes());
                let (wg_key, board_key) = if rank == 0 {
                    let wg_key = create_wg(&ctx, lanes, "W_g", param_len, wire).unwrap()[0];
                    let (_board, board_key) =
                        ProgressBoard::create(&client, &ctx, "ctrl", n_workers).unwrap();
                    comm.broadcast(&ctx, 0, Some(MpiData::U64s(vec![wg_key.0, board_key.0])));
                    (wg_key, board_key)
                } else {
                    let keys = comm.broadcast(&ctx, 0, None).into_u64s();
                    (ShmKey(keys[0]), ShmKey(keys[1]))
                };
                let (_, buffers) =
                    join(&ctx, lanes, &[wg_key], &format!("dW_{rank}"), None).unwrap().remove(0);
                let board = ProgressBoard::attach(&client, &ctx, board_key, n_workers).unwrap();
                let harness = SeasgdHarness {
                    client,
                    buffers,
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

    fn unpaged() -> SmbServerConfig {
        SmbServerConfig::default()
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

    /// Runs `body` as the only worker of a one-node cluster whose lone
    /// memory server runs `server_cfg`: `W_g` holds the trainer's initial
    /// weights, the exchanger is spawned and torn down around it. `body`
    /// also gets the server, for `W_g` and the fabric's link counters and
    /// fault injector. Returns what `body` returned and the books
    /// [`ElasticExchanger::finish`] closed.
    fn solo<R: Send + 'static>(
        cfg: ShmCaffeConfig,
        workload: WorkloadModel,
        plan: FaultPlan,
        server_cfg: SmbServerConfig,
        body: impl FnOnce(&SimContext, &mut ElasticExchanger, &mut ModeledTrainer, &SmbServer) -> R
            + Send
            + 'static,
    ) -> (R, PushStats) {
        let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(1), plan);
        let server = SmbServer::with_config(RdmaFabric::new(fabric), server_cfg).unwrap();
        let factory = ModeledTrainerFactory::new(workload, JitterModel::NONE, cfg.seed);
        let out = Arc::new(Mutex::new(None));
        let mut sim = Simulation::new();
        {
            let out = Arc::clone(&out);
            sim.spawn("solo", move |ctx| {
                let mut trainer = factory.make(0, 1);
                let (param_len, wire) = (trainer.param_len(), trainer.wire_bytes());
                let lanes = [SmbClient::new(server.clone(), NodeId(0))];
                let keys = create_wg(&ctx, &lanes, "W_g", param_len, wire).unwrap();
                seed_wg(&ctx, &lanes, &keys, &weights_of(&mut trainer)).unwrap();
                let (client, buffers) = join(&ctx, &lanes, &keys, "dW_0", None).unwrap().remove(0);
                let mut ex =
                    ElasticExchanger::spawn(&ctx, client, buffers, param_len, wire, &cfg, "solo");
                let r = body(&ctx, &mut ex, &mut trainer, &server);
                *out.lock() = Some((r, ex.finish(&ctx)));
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
    fn worker_rx(server: &SmbServer) -> &shmcaffe_simnet::resource::BandwidthResource {
        server.rdma().fabric().hca_rx(NodeId(0))
    }

    /// What crosses the memory server's HCA per steady-state Inception_v1
    /// exchange — one `W_g` read plus one ΔW push, 53.5 MB each plus
    /// protocol overhead, priced per tile of the default 16-tile grid —
    /// measured with the single-reader double buffer this window replaced.
    const INCEPTION_EXCHANGE_WIRE_BYTES: u64 = 111_815_008;

    #[test]
    fn striped_window_reads_at_line_rate_with_the_same_bytes() {
        let cfg = quiet(ShmCaffeConfig::default());
        let ((phases, bytes), _) =
            solo(cfg, inception(), FaultPlan::new(1), unpaged(), |ctx, ex, trainer, server| {
                let mem = server.rdma().fabric().hca_tx(server.node());
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
        let ((err, wg), _) =
            solo(cfg, workload.clone(), FaultPlan::new(1), unpaged(), |ctx, ex, trainer, _| {
                let poison = vec![f32::NAN; ex.grid[0].len];
                ex.lanes[0].readers[0].reply.send(ctx, ReadReply::Fresh { chunk: 5, buf: poison });
                (ex.exchange(ctx, trainer).unwrap_err(), ex.global_weights().to_vec())
            });
        assert!(err.to_string().contains("out of sync"), "{err}");
        assert!(wg.iter().all(|v| !v.is_nan()), "the mis-ordered tile must not be installed");

        // Same for the T.A5 gate: a done for the wrong tile.
        let (err, _) = solo(cfg, workload, FaultPlan::new(1), unpaged(), |ctx, ex, trainer, _| {
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
        let n_tiles = EXCHANGE_CHUNKS;
        let cfg = quiet(ShmCaffeConfig::default());
        let ((first, second, bytes), _) =
            solo(cfg, inception(), FaultPlan::new(1), unpaged(), |ctx, ex, trainer, server| {
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
                let before = worker_rx(server).total_bytes();
                ex.exchange(ctx, trainer).unwrap();
                (first, second, worker_rx(server).total_bytes() - before)
            });
        assert!(0 < first && first < n_tiles, "window opened on the open gates only: {first}");
        assert_eq!(second, first, "a second start before the exchange does nothing");
        let tile = INCEPTION_EXCHANGE_WIRE_BYTES / 2 / n_tiles as u64;
        assert_eq!(bytes, tile * (n_tiles - first) as u64, "the exchange reads the rest, once");

        let late = ShmCaffeConfig { pipelined_exchange: false, ..cfg };
        let (started, _) =
            solo(late, inception(), FaultPlan::new(1), unpaged(), |ctx, ex, trainer, server| {
                ex.exchange(ctx, trainer).unwrap();
                ctx.sleep(SimDuration::from_millis(300));
                let before = worker_rx(server).transfer_count();
                ex.start_window(ctx).unwrap();
                ctx.sleep(SimDuration::from_millis(100));
                ex.window_open || worker_rx(server).transfer_count() != before
            });
        assert!(!started, "no early start under the monolithic exchange");
    }

    #[test]
    fn a_partition_owes_w_g_one_fold_per_lane() {
        // The worker is cut off from the memory server over [500, 3700] ms:
        // the exchanges at 1, 2 and 3 s each fail their first push and owe
        // their tiles. The first exchange after the heal lands its tiles,
        // then pays everything owed as one more fold.
        let mem = NodeId(1); // `paper_testbed(1)`: GPU node 0, memory server 1
        let plan = FaultPlan::new(5).partition(
            vec![vec![mem], vec![NodeId(0)]],
            SimTime::from_millis(500),
            Some(SimTime::from_millis(3700)),
        );
        let cfg = quiet(ShmCaffeConfig::default());
        let workload = WorkloadModel::custom("owed", 1_000_000, SimDuration::from_millis(1));
        let ((folds, tiles), stats) =
            solo(cfg, workload, plan, unpaged(), |ctx, ex, trainer, server| {
                let wg = server.lookup("W_g").expect("solo creates W_g");
                // W_g's version counts folds; every push of an exchange is
                // settled well within the second before the next one.
                let mut folds_at = |ms: u64| {
                    ctx.sleep_until(SimTime::from_millis(ms));
                    let before = server.version(wg).unwrap();
                    ex.exchange(ctx, trainer).unwrap();
                    ctx.sleep(SimDuration::from_millis(900));
                    server.version(wg).unwrap() - before
                };
                for ms in [100, 1000, 2000, 3000] {
                    folds_at(ms);
                }
                let folds = folds_at(4000);
                (folds, ex.grid.len() as u64)
            });
        assert_eq!(stats.partition_buffered, 3, "{stats:?}");
        assert_eq!(stats.reconciled_updates, stats.partition_buffered, "{stats:?}");
        assert_eq!((stats.dropped_updates, stats.partition_dropped), (0, 0), "{stats:?}");
        assert_eq!(stats.dropped_elems, 0, "{stats:?}");
        assert_eq!(folds, tiles + 1, "the heal exchange's tiles plus one fold of the owed sum");
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
        solo(cfg, inception(), plan, unpaged(), move |ctx, ex, trainer, server| {
            let injector = server.rdma().fabric().fault_injector().expect("plan installed");
            let mut exchange_at = |ms: u64| {
                ctx.sleep_until(SimTime::from_millis(ms));
                let before = worker_rx(server).total_bytes();
                let blocked = ex.exchange(ctx, trainer).unwrap();
                (blocked, worker_rx(server).total_bytes() - before)
            };

            let (blocked, bytes) = exchange_at(100);
            // 1.2 x the 500 ms retry deadline is the contract; the probe
            // makes it far less: no queued read ever starts its retries.
            assert!(blocked < SimDuration::from_millis(600), "blocked {blocked}");
            assert!(0 < bytes && bytes < full, "reads in flight land, queued ones do not: {bytes}");
            assert_eq!(injector.stats().partition_hits, 0, "Stale without touching the wire");

            let (_, bytes) = exchange_at(250);
            assert_eq!(bytes, 0, "every read of a cut-off exchange is answered Stale");
            assert_eq!(injector.stats().partition_hits, 0);

            let (_, bytes) = exchange_at(450);
            assert_eq!(bytes, full, "the probe sees the heal: the whole grid reads again");
        });
    }

    #[test]
    fn a_failed_read_leaves_the_next_tile_fresh() {
        // A bit of W_g's first page flips after exchange 1 folded tile 0
        // and before it folded tile 1. The lone paged server cannot repair
        // the page, so exchange 2's read of tile 0 fails without a
        // partition, with tile 1's gate still closed. Every later tile
        // still reads fresh W_g in that exchange.
        let cfg = quiet(ShmCaffeConfig::default());
        let workload = WorkloadModel::custom("poison", 1_000_000, SimDuration::from_millis(1));
        // One CRC page per tile.
        let tile = WorkloadModel::DEFAULT_PARAM_ELEMS / EXCHANGE_CHUNKS;
        let paged = SmbServerConfig { page_elems: tile, ..SmbServerConfig::default() };
        let (wg, _) = solo(cfg, workload, FaultPlan::new(1), paged, |ctx, ex, trainer, server| {
            let wg = server.lookup("W_g").expect("solo creates W_g");
            // W_g starts at 0 and W_x at 1, so exchange 1 folds
            // ΔW = 0.2 · (1 − 0) into every element.
            trainer.write_weights(&vec![1.0; trainer.param_len()]);
            let v0 = server.version(wg).unwrap();
            ex.exchange(ctx, trainer).unwrap();
            while server.version(wg).unwrap() == v0 {
                ctx.sleep(SimDuration::from_micros(1));
            }
            assert_eq!(server.version(wg).unwrap(), v0 + 1, "only tile 0 has landed");
            server.inject_bit_flip(wg, 0, 30).unwrap();
            ex.exchange(ctx, trainer).unwrap();
            assert_eq!(server.poisoned_pages(wg), [0], "tile 0's read met the flip");
            ex.global_weights().to_vec()
        });
        assert!(wg[..tile].iter().all(|&v| v == 0.0), "tile 0 keeps its last-known W_g");
        assert!(wg[tile..].iter().all(|&v| v == 0.2), "the tiles after it read fresh W_g");
    }
}
