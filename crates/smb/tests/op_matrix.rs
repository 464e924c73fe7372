//! Behavioural oracle for the SMB client's data plane: one seeded scenario
//! that drives every public data entry point of [`SmbClient`] through
//! link-down windows, wire flips, torn writes, a DRAM decay and a primary
//! crash, fingerprinted call by call. The fingerprint was captured on the
//! commit *before* the op pipeline was collapsed to one executor (PR 15),
//! so any change to pricing, gating, admission order or the injector's
//! draw sequence moves it.

use parking_lot::Mutex;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::explore::Fnv;
use shmcaffe_simnet::fault::{FaultPlan, FaultStats};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimContext, SimTime, Simulation};
use shmcaffe_smb::{
    ClientFaultStats, RetryPolicy, ShmKey, SmbBuffer, SmbClient, SmbError, SmbPair, SmbServerConfig,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Odd element count and a wire size far above the physical one, neither a
/// multiple of the other: `floor(wire·1.045)` ≠ `ceil(wire·1.045·n/n)`.
const ELEMS: usize = 37;
const WIRE: u64 = 10_000_019;
const PAGE: usize = 8;
const CTRL: usize = 4;

/// What a call returned, reduced to what the fingerprint keeps.
trait Outcome {
    fn version(&self) -> u64;
}
impl Outcome for () {
    fn version(&self) -> u64 {
        0
    }
}
impl Outcome for u64 {
    fn version(&self) -> u64 {
        *self
    }
}

/// Per-client call log: FNV-1a over `(entry, t_start, t_end, Ok/Err
/// variant, returned version)` of every call, in issue order.
struct Log {
    fnv: Fnv,
    entries: BTreeSet<&'static str>,
    errors: u64,
}

impl Log {
    fn new() -> Self {
        Log { fnv: Fnv::new(), entries: BTreeSet::new(), errors: 0 }
    }

    fn call<T: Outcome>(
        &mut self,
        ctx: &SimContext,
        entry: &'static str,
        op: impl FnOnce() -> Result<T, SmbError>,
    ) -> bool {
        let start = ctx.now();
        let result = op();
        self.entries.insert(entry);
        self.fnv.write_bytes(entry.as_bytes());
        self.fnv.write_u64(start.as_nanos());
        self.fnv.write_u64(ctx.now().as_nanos());
        match &result {
            Ok(v) => {
                self.fnv.write_bytes(b"Ok");
                self.fnv.write_u64(v.version());
            }
            Err(e) => {
                self.errors += 1;
                let shown = format!("{e:?}");
                let variant = shown.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("");
                self.fnv.write_bytes(variant.as_bytes());
            }
        }
        result.is_ok()
    }

    /// A read: additionally folds the bytes it returned.
    fn read(
        &mut self,
        ctx: &SimContext,
        entry: &'static str,
        out: &mut [f32],
        op: impl FnOnce(&mut [f32]) -> Result<(), SmbError>,
    ) {
        if self.call(ctx, entry, || op(out)) {
            for v in out.iter() {
                self.fnv.write_u64(u64::from(v.to_bits()));
            }
        }
    }
}

fn payload(rank: usize, step: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| ((rank * 31 + step * 7 + i) % 23) as f32 - 11.0).collect()
}

struct Handles {
    wg: SmbBuffer,
    dw: SmbBuffer,
    ckpt: SmbBuffer,
    ctrl: SmbBuffer,
}

/// One pass over every data entry point. `step` varies payloads and ranges.
fn round(
    ctx: &SimContext,
    log: &mut Log,
    client: &SmbClient,
    h: &Handles,
    rank: usize,
    step: usize,
    policy: &RetryPolicy,
) {
    let mut out = vec![0.0f32; ELEMS];
    let data = payload(rank, step, ELEMS);
    // Whole-buffer plain ops (Whole pricing, stall gate).
    log.call(ctx, "write", || client.write(ctx, &h.dw, &data));
    log.read(ctx, "read", &mut out, |o| client.read(ctx, &h.dw, o));
    // Control-info ops at their true size.
    let slot = [step as f32, rank as f32];
    log.call(ctx, "write_range", || client.write_range(ctx, &h.ctrl, rank * 2, &slot));
    log.read(ctx, "read_range", &mut out[..CTRL], |o| client.read_range(ctx, &h.ctrl, 0, o));
    log.call(ctx, "accumulate", || client.accumulate(ctx, &h.dw, &h.wg));
    // Whole-buffer retrying ops (Whole pricing, fail-fast gate).
    let data = payload(rank, step + 1, ELEMS);
    log.call(ctx, "write_retrying", || client.write_retrying(ctx, &h.dw, &data, policy));
    log.read(ctx, "read_retrying", &mut out, |o| client.read_retrying(ctx, &h.wg, o, policy));
    log.call(ctx, "accumulate_retrying", || client.accumulate_retrying(ctx, &h.dw, &h.wg, policy));
    // Range retrying ops (Share pricing): one full-length range, then a
    // tile that straddles pages.
    log.read(ctx, "read_range_retrying", &mut out, |o| {
        client.read_range_retrying(ctx, &h.wg, 0, o, policy)
    });
    let (off, len) = (5 + step % 3, 13);
    log.call(ctx, "write_range_retrying", || {
        client.write_range_retrying(ctx, &h.dw, off, &data[off..off + len], policy)
    });
    log.call(ctx, "accumulate_range_retrying", || {
        client.accumulate_range_retrying(ctx, &h.dw, &h.wg, off, len, policy)
    });
    log.read(ctx, "read_range_retrying", &mut out[..len], |o| {
        client.read_range_retrying(ctx, &h.dw, off, o, policy)
    });
    // Versioned checkpoint ops.
    log.call(ctx, "checkpoint_write", || client.checkpoint_write(ctx, &h.ckpt, &data, policy));
    log.read(ctx, "checkpoint_read", &mut out, |o| client.checkpoint_read(ctx, &h.ckpt, o, policy));
}

struct Observed {
    fingerprint: u64,
    entries: BTreeSet<&'static str>,
    errors: u64,
    stats: [ClientFaultStats; 2],
    injected: FaultStats,
    promoted: bool,
}

fn run_matrix() -> Observed {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary_node = NodeId(spec.gpu_nodes);
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new(0x0915)
        .link_down(NodeId(1), ms(40), ms(55))
        .with_wire_flip_prob(0.12)
        .with_torn_write_prob(0.10)
        .decay_dram(primary_node, ms(100))
        .crash_memory_server(primary_node, ms(400));
    let config = SmbServerConfig { page_elems: PAGE, ..SmbServerConfig::default() };
    let pair = SmbPair::new(RdmaFabric::new(Fabric::with_faults(spec, plan)), config).unwrap();
    let keys = SimChannel::<Vec<ShmKey>>::new("keys");
    let logs = Arc::new(Mutex::new(Vec::<(usize, Log, ClientFaultStats)>::new()));
    let mut sim = Simulation::new();
    for rank in 0..2usize {
        let (p, keys, logs) = (pair.clone(), keys.clone(), logs.clone());
        sim.spawn(&format!("c{rank}"), move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(rank));
            let policy = RetryPolicy::with_seed(77 + rank as u64);
            let all = if rank == 0 {
                let mut all = vec![client.create(&ctx, "wg", ELEMS, Some(WIRE)).unwrap()];
                for r in 0..2 {
                    all.push(client.create(&ctx, &format!("dw{r}"), ELEMS, Some(WIRE)).unwrap());
                    all.push(client.create(&ctx, &format!("ck{r}"), ELEMS, Some(WIRE)).unwrap());
                }
                all.push(client.create(&ctx, "ctrl", CTRL, None).unwrap());
                keys.send(&ctx, all.clone());
                all
            } else {
                keys.recv(&ctx)
            };
            let h = Handles {
                wg: client.alloc(&ctx, all[0]).unwrap(),
                dw: client.alloc(&ctx, all[1 + 2 * rank]).unwrap(),
                ckpt: client.alloc(&ctx, all[2 + 2 * rank]).unwrap(),
                ctrl: client.alloc(&ctx, all[5]).unwrap(),
            };
            let mut log = Log::new();
            let mut step = 0;
            let mut rounds_until = |log: &mut Log, until: SimTime| {
                while ctx.now() < until {
                    round(&ctx, log, &client, &h, rank, step, &policy);
                    if rank == 0 {
                        log.call(&ctx, "replicate", || p.replicate(&ctx));
                    }
                    step += 1;
                }
            };
            // Healthy rounds up to client 1's link-down window: its round in
            // flight at 40 ms runs the rest of its ops in-window (retrying
            // ops fail fast and back off, plain ops stall), client 0's run
            // out-of-window beside it.
            rounds_until(&mut log, ms(60));
            // The decay at 100 ms lands on a primary page mid-sequence.
            rounds_until(&mut log, ms(300));
            // Everybody idles across the crash so no plain op is in flight
            // on the dying primary; the first op after it is a retrying one
            // that observes the crash through the gate and fails over.
            ctx.sleep_until(ms(405) + shmcaffe_simnet::SimDuration::from_micros(rank as u64 * 150));
            let probe = payload(rank, 999, ELEMS);
            log.call(&ctx, "write_retrying", || {
                client.write_retrying(&ctx, &h.dw, &probe, &policy)
            });
            rounds_until(&mut log, ms(520));
            logs.lock().push((rank, log, client.fault_stats()));
        });
    }
    sim.run();

    let mut logs = std::mem::take(&mut *logs.lock());
    logs.sort_by_key(|l| l.0);
    let mut fnv = Fnv::new();
    let mut entries = BTreeSet::new();
    let mut errors = 0;
    for (_, log, fs) in &logs {
        fnv.write_u64(log.fnv.finish());
        entries.extend(log.entries.iter().copied());
        errors += log.errors;
        for v in [
            fs.faults,
            fs.retries,
            fs.max_recovery_ms.to_bits(),
            fs.fenced,
            fs.corruptions_detected,
            fs.corruptions_repaired,
            fs.corruptions_unrepairable,
        ] {
            fnv.write_u64(v);
        }
    }
    for server in [pair.primary(), pair.standby()] {
        for key in 1..=6 {
            fnv.write_u64(server.version(ShmKey(key)).unwrap_or(u64::MAX));
        }
    }
    fnv.write_u64(pair.state_hash());
    let injected = pair.primary().rdma().fabric().fault_injector().unwrap().stats();
    Observed {
        fingerprint: fnv.finish(),
        entries,
        errors,
        stats: [logs[0].2, logs[1].2],
        injected,
        promoted: pair.promoted(),
    }
}

#[test]
fn op_matrix_fingerprint_matches_the_parent_capture() {
    let seen = run_matrix();
    // The scenario really exercised what it claims to.
    let want: BTreeSet<&'static str> = [
        "read",
        "write",
        "read_range",
        "write_range",
        "accumulate",
        "read_retrying",
        "write_retrying",
        "accumulate_retrying",
        "read_range_retrying",
        "write_range_retrying",
        "accumulate_range_retrying",
        "checkpoint_write",
        "checkpoint_read",
        "replicate",
    ]
    .into_iter()
    .collect();
    assert_eq!(seen.entries, want);
    assert!(seen.promoted, "the crash must force a fail-over");
    assert!(seen.injected.link_down_hits > 0, "{:?}", seen.injected);
    assert!(seen.injected.wire_flips > 0 && seen.injected.torn_writes > 0, "{:?}", seen.injected);
    assert_eq!(seen.injected.dram_decays_applied, 1, "{:?}", seen.injected);
    assert!(seen.injected.memory_server_crash_hits > 0, "{:?}", seen.injected);
    assert!(seen.stats.iter().all(|s| s.retries > 0), "{:?}", seen.stats);
    assert!(seen.stats.iter().any(|s| s.corruptions_repaired > 0), "{:?}", seen.stats);
    // Replays bit-identically, and equals the capture taken on a29d70c.
    assert_eq!(run_matrix().fingerprint, seen.fingerprint);
    assert_eq!(
        seen.fingerprint, GOLDEN,
        "op-matrix fingerprint moved: {:#018x} ({} calls failed, stats {:?}, injected {:?})",
        seen.fingerprint, seen.errors, seen.stats, seen.injected
    );
}

/// Captured on `a29d70c` (the parent of the op-pipeline refactor).
const GOLDEN: u64 = 0x5e47_bf80_1882_8120;

/// Decision (1) of the op descriptor, pinned: plain ops never consult the
/// fault gate or the corruption stream. Under a probability-only plan the
/// injector's wire-flip/torn-write draws come from one shared sequential
/// stream, so if a plain op drew even once, every later retrying attempt
/// would see a shifted sequence. Interleaving extra plain ops on a separate
/// buffer must leave each retrying call's outcome, its failed-attempt
/// count, the bytes it read and the injected totals exactly as they were.
#[test]
fn plain_ops_draw_nothing_from_the_corruption_stream() {
    let run = |interleave_plain: bool| {
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let plan = FaultPlan::new(0xD1CE).with_wire_flip_prob(0.25).with_torn_write_prob(0.2);
        let config = SmbServerConfig { page_elems: PAGE, ..SmbServerConfig::default() };
        let pair = SmbPair::new(RdmaFabric::new(Fabric::with_faults(spec, plan)), config).unwrap();
        let trace = Arc::new(Mutex::new(Vec::<(&'static str, String, u64, u32)>::new()));
        let (p, t) = (pair.clone(), trace.clone());
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let policy = RetryPolicy::with_seed(4);
            let alloc = |name: &str, n: usize| {
                client.alloc(&ctx, client.create(&ctx, name, n, None).unwrap()).unwrap()
            };
            let (wg, dw) = (alloc("wg", ELEMS), alloc("dw", ELEMS));
            let (side, side_sum) = (alloc("side", ELEMS), alloc("side_sum", ELEMS));
            let mut out = vec![0.0f32; ELEMS];
            for step in 0..12 {
                let data = payload(0, step, ELEMS);
                if interleave_plain {
                    client.write(&ctx, &side, &data).unwrap();
                    client.read(&ctx, &side, &mut out).unwrap();
                    client.write_range(&ctx, &side, 3, &data[..5]).unwrap();
                    client.read_range(&ctx, &side, 3, &mut out[..5]).unwrap();
                    client.accumulate(&ctx, &side, &side_sum).unwrap();
                }
                let note = |entry, r: Result<(), SmbError>, read: &[f32]| {
                    let variant = r.map_or_else(|e| format!("{e:?}"), |()| "Ok".into());
                    let variant = variant.split(|c: char| !c.is_alphanumeric()).next().unwrap();
                    let bytes = read.iter().fold(0u32, |h, v| h.rotate_left(5) ^ v.to_bits());
                    t.lock().push((entry, variant.into(), client.fault_stats().faults, bytes));
                };
                note("write", client.write_retrying(&ctx, &dw, &data, &policy), &[]);
                note("ckpt_write", client.checkpoint_write(&ctx, &wg, &data, &policy), &[]);
                let r = client.read_retrying(&ctx, &dw, &mut out, &policy);
                note("read", r, &out);
                let r = client.checkpoint_read(&ctx, &wg, &mut out, &policy);
                note("ckpt_read", r, &out);
                let r = client.write_range_retrying(&ctx, &dw, 9, &data[9..20], &policy);
                note("write_range", r, &[]);
                let r = client.read_range_retrying(&ctx, &dw, 9, &mut out[..11], &policy);
                note("read_range", r, &out[..11]);
                let r = client.accumulate_range_retrying(&ctx, &dw, &wg, 9, 11, &policy);
                note("acc_range", r.map(|_| ()), &[]);
                note("acc", client.accumulate_retrying(&ctx, &dw, &wg, &policy).map(|_| ()), &[]);
                // Give torn writes a clean copy to be repaired from.
                p.replicate(&ctx).unwrap();
            }
        });
        sim.run();
        let stats = pair.primary().rdma().fabric().fault_injector().unwrap().stats();
        let trace = trace.lock().clone();
        (trace, stats.wire_flips, stats.torn_writes)
    };
    let (base, flips, torn) = run(false);
    assert!(flips > 0 && torn > 0, "the plan must actually inject: {flips} flips, {torn} torn");
    assert!(base.iter().any(|c| c.1 != "Ok") || base.last().unwrap().2 > 0, "no attempt failed");
    assert_eq!(run(true), (base, flips, torn));
}
