//! `smb_mix`: no training — four clients on two nodes drive a seeded mix of
//! the whole public SMB op matrix against a CRC-paged replicated pair with
//! the replicator and both scrubbers running. Every client issues every op
//! the same number of times; the seed decides the order and the offsets,
//! so the work is the same for every seed and only the contention moves.
//!
//! Every client owns one buffer it alone mutates (so its contents are
//! known to the client at all times), a checkpoint buffer, and shares one
//! accumulate target with the others. All values are small integers, so
//! server-side accumulation is exact in f32 and the final target equals
//! the sum of every client's contributions whatever order they landed in.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimContext, SimDuration, SimTime, Simulation};
use shmcaffe_smb::{RetryPolicy, ShmKey, SmbBuffer, SmbClient, SmbError, SmbPair, SmbServerConfig};

use crate::instrument::PhaseClock;
use crate::stats::fnv1a_f32;
use crate::trace::Tracer;
use crate::workloads::{RunOutput, Sizes, Values};

const CLIENTS: usize = 4;
/// Elements moved by the small true-size range ops (control-info sized).
const SMALL_RANGE: usize = 256;

/// splitmix64: the op mix must not depend on which `rand` the library
/// crates were built against.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `rounds` copies of every op, in a seeded order (Fisher–Yates).
    fn schedule(&mut self, rounds: usize) -> Vec<(Op, &'static str)> {
        let mut ops: Vec<_> = OPS.iter().copied().cycle().take(OPS.len() * rounds).collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.below(i + 1));
        }
        ops
    }
}

/// The op matrix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write,
    Read,
    ReadShared,
    Accumulate,
    WriteRange,
    ReadRange,
    WriteRetrying,
    ReadPeerRetrying,
    AccumulateRetrying,
    ReadRangeRetrying,
    PushRangeRetrying,
    CheckpointWrite,
    CheckpointRead,
}

/// Every op with its span name; the schedule is built from this table.
const OPS: [(Op, &str); 13] = [
    (Op::Write, "smb.mix.write"),
    (Op::Read, "smb.mix.read"),
    (Op::ReadShared, "smb.mix.read_shared"),
    (Op::Accumulate, "smb.mix.accumulate"),
    (Op::WriteRange, "smb.mix.write_range"),
    (Op::ReadRange, "smb.mix.read_range"),
    (Op::WriteRetrying, "smb.mix.write_retrying"),
    (Op::ReadPeerRetrying, "smb.mix.read_peer_retrying"),
    (Op::AccumulateRetrying, "smb.mix.accumulate_retrying"),
    (Op::ReadRangeRetrying, "smb.mix.read_range_retrying"),
    (Op::PushRangeRetrying, "smb.mix.push_range_retrying"),
    (Op::CheckpointWrite, "smb.mix.checkpoint_write"),
    (Op::CheckpointRead, "smb.mix.checkpoint_read"),
];

/// One client's view: handles plus the contents it knows its buffers hold.
struct Client {
    smb: SmbClient,
    own: SmbBuffer,
    ckpt: SmbBuffer,
    shared: SmbBuffer,
    peers: Vec<SmbBuffer>,
    retry: RetryPolicy,
    rng: Rng,
    /// What `own` holds on the server.
    model: Vec<f32>,
    /// What `ckpt` holds on the server.
    ckpt_model: Vec<f32>,
    /// Everything this client has folded into `shared`.
    contributed: Vec<f32>,
    scratch: Vec<f32>,
    /// Payload bytes moved by data ops.
    bytes: u64,
    mismatches: u64,
}

impl Client {
    fn fill(&mut self, range: std::ops::Range<usize>, stamp: usize) {
        for (i, v) in self.model[range.clone()].iter_mut().enumerate() {
            *v = ((stamp % 200) + (range.start + i) % 7) as f32;
        }
    }

    /// Compares the bytes just read into `scratch` with what this client
    /// knows `range` of its buffer (or of its checkpoint) holds.
    fn check(&mut self, range: std::ops::Range<usize>, against_checkpoint: bool) {
        let expect = if against_checkpoint { &self.ckpt_model } else { &self.model };
        if self.scratch[..range.len()] != expect[range] {
            self.mismatches += 1;
        }
    }

    fn note_contribution(&mut self, range: std::ops::Range<usize>) {
        for (c, m) in self.contributed[range.clone()].iter_mut().zip(&self.model[range]) {
            *c += *m;
        }
    }

    /// Issues one op of the mix; `step` stamps written data.
    fn issue(&mut self, ctx: &SimContext, op: Op, step: usize) -> Result<(), SmbError> {
        let n = self.model.len();
        let chunk = (n / 16).max(1);
        let f32s = |elems: usize| (elems * 4) as u64;
        match op {
            Op::Write => {
                self.fill(0..n, step);
                self.smb.write(ctx, &self.own, &self.model)?;
                self.bytes += f32s(n);
            }
            Op::Read => {
                self.smb.read(ctx, &self.own, &mut self.scratch)?;
                self.check(0..n, false);
                self.bytes += f32s(n);
            }
            Op::ReadShared => {
                // Read beside the other clients' accumulates: any snapshot
                // is legal, so only the transfer is exercised.
                self.smb.read(ctx, &self.shared, &mut self.scratch)?;
                self.bytes += f32s(n);
            }
            Op::Accumulate => {
                self.smb.accumulate(ctx, &self.own, &self.shared)?;
                self.note_contribution(0..n);
            }
            Op::WriteRange => {
                let len = SMALL_RANGE.min(n);
                let off = self.rng.below(n - len + 1);
                self.fill(off..off + len, step);
                self.smb.write_range(ctx, &self.own, off, &self.model[off..off + len])?;
                self.bytes += f32s(len);
            }
            Op::ReadRange => {
                let len = SMALL_RANGE.min(n);
                let off = self.rng.below(n - len + 1);
                self.smb.read_range(ctx, &self.own, off, &mut self.scratch[..len])?;
                self.check(off..off + len, false);
                self.bytes += f32s(len);
            }
            Op::WriteRetrying => {
                self.fill(0..n, step);
                self.smb.write_retrying(ctx, &self.own, &self.model, &self.retry)?;
                self.bytes += f32s(n);
            }
            Op::ReadPeerRetrying => {
                let peer = self.peers[self.rng.below(self.peers.len())];
                self.smb.read_retrying(ctx, &peer, &mut self.scratch, &self.retry)?;
                self.bytes += f32s(n);
            }
            Op::AccumulateRetrying => {
                self.smb.accumulate_retrying(ctx, &self.own, &self.shared, &self.retry)?;
                self.note_contribution(0..n);
            }
            Op::ReadRangeRetrying => {
                let off = self.rng.below(n - chunk + 1);
                self.smb.read_range_retrying(
                    ctx,
                    &self.own,
                    off,
                    &mut self.scratch[..chunk],
                    &self.retry,
                )?;
                self.check(off..off + chunk, false);
                self.bytes += f32s(chunk);
            }
            Op::PushRangeRetrying => {
                // The chunked exchange's push: range write, then range
                // accumulate of the same tile.
                let off = self.rng.below(n - chunk + 1);
                self.fill(off..off + chunk, step);
                self.smb.write_range_retrying(
                    ctx,
                    &self.own,
                    off,
                    &self.model[off..off + chunk],
                    &self.retry,
                )?;
                self.smb.accumulate_range_retrying(
                    ctx,
                    &self.own,
                    &self.shared,
                    off,
                    chunk,
                    &self.retry,
                )?;
                self.note_contribution(off..off + chunk);
                self.bytes += f32s(chunk);
            }
            Op::CheckpointWrite => {
                self.smb.checkpoint_write(ctx, &self.ckpt, &self.model, &self.retry)?;
                self.ckpt_model.copy_from_slice(&self.model);
                self.bytes += f32s(n);
            }
            Op::CheckpointRead => {
                self.smb.checkpoint_read(ctx, &self.ckpt, &mut self.scratch, &self.retry)?;
                self.check(0..n, true);
                self.bytes += f32s(n);
            }
        }
        Ok(())
    }
}

/// What one client leaves behind for the analytic check.
struct ClientFinal {
    /// Its buffer as read back from the server.
    own: Vec<f32>,
    /// What it believes the buffer holds.
    model: Vec<f32>,
    /// Everything it folded into the shared target.
    contributed: Vec<f32>,
}

/// What the clients hand back to the host side for checking.
#[derive(Default)]
struct Collected {
    failed: u64,
    mismatches: u64,
    bytes: u64,
    op_virt_ns: u64,
    phase_start: Option<SimTime>,
    phase_end: Option<SimTime>,
    finals: Vec<Option<ClientFinal>>,
    shared_final: Vec<f32>,
    corruptions: u64,
    faults: u64,
}

/// Runs the workload once. With a tracer every op records a span.
pub fn run(seed: u64, sizes: &Sizes, tracer: Option<&Arc<Tracer>>) -> RunOutput {
    let n = sizes.smb_elems;
    let rounds = sizes.smb_rounds;
    let attempted = (CLIENTS * rounds * OPS.len()) as u64;
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let fabric = Fabric::new(spec);
    let rdma = RdmaFabric::new(fabric.clone());
    let config = SmbServerConfig {
        page_elems: 4096,
        scrub_interval: SimDuration::from_millis(5),
        ..Default::default()
    };
    let pair = SmbPair::new(rdma, config).expect("two memory servers are attached");
    let layout: Vec<NodeId> = (0..CLIENTS).map(|c| NodeId(c / 2)).collect();
    let mpi = MpiWorld::with_layout(fabric, layout.clone());
    let clock = Arc::new(PhaseClock::default());
    let collected = Arc::new(Mutex::new(Collected {
        finals: (0..CLIENTS).map(|_| None).collect(),
        ..Default::default()
    }));

    let mut sim = Simulation::new();
    {
        let p = pair.clone();
        sim.spawn("smb_replicator", move |ctx| {
            p.run_replicator(&ctx, SimDuration::from_millis(5));
        });
        let s = pair.primary().clone();
        sim.spawn("smb_scrubber_primary", move |ctx| s.run_scrubber(&ctx));
        let s = pair.standby().clone();
        sim.spawn("smb_scrubber_standby", move |ctx| s.run_scrubber(&ctx));
    }
    for (id, &node) in layout.iter().enumerate() {
        let pair = pair.clone();
        let mut comm = mpi.comm(id);
        let clock = Arc::clone(&clock);
        let collected = Arc::clone(&collected);
        let tracer = tracer.cloned();
        sim.spawn(&format!("smb_mix_c{id}"), move |ctx| {
            let smb = SmbClient::with_failover(pair.clone(), node);
            let create = |name: String| {
                let key = smb.create(&ctx, &name, n, None).expect("names are unique");
                smb.alloc(&ctx, key).expect("key just created")
            };
            let own = create(format!("own_{id}"));
            let ckpt = create(format!("ckpt_{id}"));
            // Client 0 creates the shared target; every client publishes
            // its own buffer's key so peers can read it.
            let shared_key = if id == 0 {
                let key = smb.create(&ctx, "shared", n, None).expect("names are unique");
                comm.broadcast(&ctx, 0, Some(MpiData::U64s(vec![key.0])));
                key
            } else {
                ShmKey(comm.broadcast(&ctx, 0, None).into_u64s()[0])
            };
            let shared = smb.alloc(&ctx, shared_key).expect("client 0 created it");
            let mut peers = Vec::new();
            for root in 0..CLIENTS {
                let data = (root == id).then(|| MpiData::U64s(vec![own.key.0]));
                let key = ShmKey(comm.broadcast(&ctx, root, data).into_u64s()[0]);
                if root != id {
                    peers.push(smb.alloc(&ctx, key).expect("peer created it"));
                }
            }
            let mut client = Client {
                smb,
                own,
                ckpt,
                shared,
                peers,
                retry: RetryPolicy::with_seed(seed ^ id as u64),
                rng: Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (id as u64) << 32),
                model: vec![0.0; n],
                ckpt_model: vec![0.0; n],
                contributed: vec![0.0; n],
                scratch: vec![0.0; n],
                bytes: 0,
                mismatches: 0,
            };
            comm.barrier(&ctx);

            // The measured phase: a closed loop, one op in flight per client.
            let phase_start = ctx.now();
            let (mut failed, mut op_virt_ns) = (0u64, 0u64);
            for (step, (op, span)) in client.rng.schedule(rounds).into_iter().enumerate() {
                clock.touch();
                let t0 = ctx.now();
                let done = match &tracer {
                    Some(t) => {
                        t.scope(span, id as u32, Some(&ctx), || client.issue(&ctx, op, step))
                    }
                    None => client.issue(&ctx, op, step),
                };
                failed += u64::from(done.is_err());
                op_virt_ns += (ctx.now() - t0).as_nanos();
            }
            let phase_end = ctx.now();
            comm.barrier(&ctx);

            // Read back what the server holds.
            let mut own_final = vec![0.0f32; n];
            let read_ok = client.smb.read(&ctx, &client.own, &mut own_final).is_ok();
            let stats = client.smb.fault_stats();
            let shared_final = (id == 0).then(|| {
                let mut out = vec![0.0f32; n];
                let ok = client.smb.read(&ctx, &client.shared, &mut out).is_ok();
                pair.stop_replicator();
                pair.primary().stop_scrubber();
                pair.standby().stop_scrubber();
                (out, ok)
            });
            let mut c = collected.lock();
            c.failed += failed + u64::from(!read_ok);
            c.mismatches += client.mismatches;
            c.bytes += client.bytes;
            c.op_virt_ns += op_virt_ns;
            c.corruptions += stats.corruptions_detected;
            c.faults += stats.faults;
            c.phase_start = Some(c.phase_start.map_or(phase_start, |t| t.min(phase_start)));
            c.phase_end = Some(c.phase_end.map_or(phase_end, |t| t.max(phase_end)));
            c.finals[id] = Some(ClientFinal {
                own: own_final,
                model: client.model,
                contributed: client.contributed,
            });
            if let Some((out, ok)) = shared_final {
                c.shared_final = out;
                c.failed += u64::from(!ok);
            }
        });
    }
    let result = sim.run_result();
    let end = Instant::now();
    let (first_op, host_slices) = clock
        .finish(end)
        .map_or((std::time::SystemTime::now(), Vec::new()), |p| (p.began, p.slices));
    let host_s = host_slices.iter().sum();
    let c = std::mem::take(&mut *collected.lock());

    let mut problems = Vec::new();
    if let Err(e) = &result {
        problems.push(format!("run failed: {e}"));
    }
    let failed = if result.is_ok() { c.failed } else { attempted };
    if failed > 0 {
        problems.push(format!("{failed} SMB ops failed on a fault-free workload"));
    }
    if c.mismatches > 0 {
        problems.push(format!("{} verified reads returned the wrong bytes", c.mismatches));
    }
    if c.corruptions > 0 {
        problems.push(format!("{} corruptions detected with no fault injected", c.corruptions));
    }
    // Analytic fold: each own buffer equals its client's model; the shared
    // target equals the exact sum of all contributions.
    let mut expected_shared = vec![0.0f32; n];
    let mut checksum_input = c.shared_final.clone();
    for (id, entry) in c.finals.iter().enumerate() {
        let Some(ClientFinal { own: own_final, model, contributed }) = entry else {
            problems.push(format!("client {id} never finished"));
            continue;
        };
        if own_final != model {
            problems.push(format!("client {id}'s buffer differs from what it wrote"));
        }
        for (e, v) in expected_shared.iter_mut().zip(contributed) {
            *e += *v;
        }
        checksum_input.extend_from_slice(own_final);
    }
    if c.shared_final != expected_shared {
        problems.push("the shared target differs from the sum of all accumulates".to_string());
    }

    let virt_run_s = match (c.phase_start, c.phase_end) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let mut layer = Values::new();
    layer.insert("e2e.virt_smb_gbps", c.bytes as f64 / 1e9 / virt_run_s.max(f64::MIN_POSITIVE));
    layer.insert("e2e.failed_share", failed as f64 / attempted as f64);
    layer.insert("smb.faults", c.faults as f64);
    layer.insert("smb.corruptions_detected", c.corruptions as f64);
    layer.insert(
        "smb.server_memory_mb",
        (pair.primary().memory_bytes() + pair.standby().memory_bytes()) as f64 / 1e6,
    );
    RunOutput {
        virt_iter_ms: c.op_virt_ns as f64 / 1e6 / attempted as f64,
        virt_run_s,
        host_s,
        host_slices,
        first_op,
        attempted,
        failed,
        checksum: fnv1a_f32(&checksum_input),
        layer,
        problems,
    }
}
