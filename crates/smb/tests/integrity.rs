//! Deterministic end-to-end integrity flows: detection poisons the exact
//! page, clients repair poisoned pages from the pair's other member
//! (retrying ones under their policy, plain ones once), single-route
//! corruption is permanent, wire faults from a seeded
//! plan are detected and retried through, and the whole pipeline replays
//! bit-identically under the same seed.

use parking_lot::Mutex;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime, Simulation};
use shmcaffe_smb::{RetryPolicy, SmbClient, SmbError, SmbPair, SmbServer, SmbServerConfig};
use std::sync::Arc;

const PAGE: usize = 4;
const ELEMS: usize = 8; // two pages per segment

fn paged_config() -> SmbServerConfig {
    SmbServerConfig { page_elems: PAGE, ..SmbServerConfig::default() }
}

fn paged_single(plan: Option<FaultPlan>) -> SmbServer {
    let spec = ClusterSpec::paper_testbed(1);
    let fabric = match plan {
        Some(p) => Fabric::with_faults(spec, p),
        None => Fabric::new(spec),
    };
    SmbServer::with_config(RdmaFabric::new(fabric), paged_config()).unwrap()
}

fn paged_pair(plan: Option<FaultPlan>) -> SmbPair {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
    let fabric = match plan {
        Some(p) => Fabric::with_faults(spec, p),
        None => Fabric::new(spec),
    };
    SmbPair::new(RdmaFabric::new(fabric), paged_config()).unwrap()
}

/// A bit flip on the primary is detected by the next retrying read, which
/// repairs the page from the standby and returns the original bytes; the
/// poison clears and every counter moves exactly once.
#[test]
fn retrying_read_repairs_flipped_page_from_standby() {
    let pair = paged_pair(None);
    let p = pair.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let policy = RetryPolicy::with_seed(5);
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        let payload: Vec<f32> = (0..ELEMS).map(|i| i as f32 * 0.5 + 1.0).collect();
        client.write(&ctx, &buf, &payload).unwrap();
        p.replicate(&ctx).unwrap();
        p.primary().inject_bit_flip(key, 5, 7).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
        assert_eq!(out, payload, "repair must restore the replicated bytes");
        assert!(p.primary().poisoned_pages(key).is_empty(), "poison must clear");
        assert_eq!(p.repairs_completed(), 1);
        assert_eq!(p.primary().corruptions_detected(), 1);
        let fs = client.fault_stats();
        assert_eq!(fs.corruptions_detected, 1, "{fs:?}");
        assert_eq!(fs.corruptions_repaired, 1, "{fs:?}");
        assert_eq!(fs.corruptions_unrepairable, 0, "{fs:?}");
        // The repaired segment keeps serving plain reads.
        let mut again = vec![0.0f32; ELEMS];
        client.read(&ctx, &buf, &mut again).unwrap();
        assert_eq!(again, payload);
    });
    sim.run();
}

/// Without a replica there is nowhere to repair from: the retrying read
/// escalates the poisoned page to a permanent [`SmbError::Unrepairable`]
/// instead of burning its attempt budget.
#[test]
fn single_route_corruption_is_unrepairable() {
    let server = paged_single(None);
    let s = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s.clone(), NodeId(0));
        let policy = RetryPolicy::with_seed(5);
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &[2.0f32; ELEMS]).unwrap();
        s.inject_bit_flip(key, 1, 3).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        match client.read_retrying(&ctx, &buf, &mut out, &policy) {
            Err(SmbError::Unrepairable { page: 0, .. }) => {}
            other => panic!("want Unrepairable page 0, got {other:?}"),
        }
        let fs = client.fault_stats();
        assert_eq!(fs.corruptions_detected, 1, "{fs:?}");
        assert_eq!(fs.corruptions_unrepairable, 1, "{fs:?}");
        assert_eq!(fs.corruptions_repaired, 0, "{fs:?}");
        // The poison is sticky: later reads keep failing loudly rather
        // than serving bad bytes.
        assert!(client.read(&ctx, &buf, &mut out).is_err());
        assert_eq!(s.poisoned_pages(key), vec![0]);
    });
    sim.run();
}

/// A plain read has no retry budget, but it repairs a poisoned page once:
/// on a pair it returns the replicated bytes after one repair; on a lone
/// server the page is permanently lost and the read says so.
#[test]
fn plain_read_repairs_a_poisoned_page_once() {
    let payload: Vec<f32> = (0..ELEMS).map(|i| i as f32 - 2.5).collect();
    let pair = paged_pair(None);
    let (p, want) = (pair.clone(), payload.clone());
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &want).unwrap();
        p.replicate(&ctx).unwrap();
        p.primary().inject_bit_flip(key, 5, 7).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        client.read(&ctx, &buf, &mut out).unwrap();
        assert_eq!(out, want, "repair must restore the replicated bytes");
        assert!(p.primary().poisoned_pages(key).is_empty(), "poison must clear");
        assert_eq!(p.repairs_completed(), 1);
        let fs = client.fault_stats();
        assert_eq!((fs.corruptions_detected, fs.corruptions_repaired, fs.retries), (1, 1, 1));
    });
    sim.run();

    let server = paged_single(None);
    let s = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s.clone(), NodeId(0));
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &payload).unwrap();
        s.inject_bit_flip(key, 5, 7).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        match client.read(&ctx, &buf, &mut out) {
            Err(SmbError::Unrepairable { key: k, page: 1, .. }) => assert_eq!(k, key),
            other => panic!("want Unrepairable page 1, got {other:?}"),
        }
        let fs = client.fault_stats();
        assert_eq!((fs.corruptions_detected, fs.corruptions_unrepairable), (1, 1), "{fs:?}");
    });
    sim.run();
}

/// When the same page rots on both members the repair source fails its own
/// CRC check and the client reports the loss as permanent.
#[test]
fn corruption_on_both_replicas_is_unrepairable() {
    let pair = paged_pair(None);
    let p = pair.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let policy = RetryPolicy::with_seed(5);
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &[3.0f32; ELEMS]).unwrap();
        p.replicate(&ctx).unwrap();
        p.primary().inject_bit_flip(key, 0, 1).unwrap();
        p.standby().inject_bit_flip(key, 2, 9).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        match client.read_retrying(&ctx, &buf, &mut out, &policy) {
            Err(SmbError::Unrepairable { page: 0, .. }) => {}
            other => panic!("want Unrepairable page 0, got {other:?}"),
        }
        assert_eq!(p.repairs_completed(), 0);
        let fs = client.fault_stats();
        assert_eq!(fs.corruptions_unrepairable, 1, "{fs:?}");
        // Both members flagged the rot on their own copies.
        assert_eq!(p.primary().corruptions_detected(), 1);
        assert_eq!(p.standby().corruptions_detected(), 1);
    });
    sim.run();
}

/// After a fail-over the only other copy of a page is on the crashed
/// primary. A page that rots on the promoted standby is then permanently
/// lost, and the retrying read says so on its first attempt, instead of
/// re-detecting the same poison against the dead member until its budget
/// runs out.
#[test]
fn repair_from_a_crashed_member_is_unrepairable() {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
    let plan =
        FaultPlan::new(1).crash_memory_server(NodeId(spec.gpu_nodes), SimTime::from_millis(5));
    let pair = paged_pair(Some(plan));
    let p = pair.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let policy = RetryPolicy::with_seed(21);
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        let payload = [4.0f32; ELEMS];
        client.write(&ctx, &buf, &payload).unwrap();
        p.replicate(&ctx).unwrap();
        ctx.sleep_until(SimTime::from_millis(6));
        // The first retrying op meets the crash and fails over.
        client.write_retrying(&ctx, &buf, &payload, &policy).unwrap();
        assert!(p.promoted(), "the crash must force a fail-over");
        p.standby().inject_bit_flip(key, 1, 3).unwrap();
        let before = client.fault_stats();
        let mut out = vec![0.0f32; ELEMS];
        match client.read_retrying(&ctx, &buf, &mut out, &policy) {
            Err(SmbError::Unrepairable { page: 0, .. }) => {}
            other => panic!("want Unrepairable page 0, got {other:?}"),
        }
        let fs = client.fault_stats();
        assert_eq!(fs.corruptions_detected - before.corruptions_detected, 1, "{fs:?}");
        assert_eq!(fs.corruptions_unrepairable - before.corruptions_unrepairable, 1, "{fs:?}");
        assert_eq!(fs.corruptions_repaired, 0, "{fs:?}");
        assert_eq!(p.repairs_completed(), 0);
    });
    sim.run();
}

/// Seeded wire bit-flips fail the end-to-end checksum on delivery; the
/// retrying read keeps the fault out of the caller's buffer and lands a
/// clean copy within its attempt budget.
#[test]
fn wire_flips_are_detected_and_retried_through() {
    let plan = FaultPlan::new(42).with_wire_flip_prob(0.4);
    let server = paged_single(Some(plan));
    let s = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s.clone(), NodeId(0));
        let policy = RetryPolicy { max_attempts: 12, ..RetryPolicy::with_seed(42) };
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        let payload: Vec<f32> = (0..ELEMS).map(|i| (i as f32).sin()).collect();
        client.write_retrying(&ctx, &buf, &payload, &policy).unwrap();
        let mut hits = 0u64;
        for _ in 0..8 {
            let mut out = vec![0.0f32; ELEMS];
            client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
            assert_eq!(out, payload, "wire fault must never reach the caller");
            hits = client.fault_stats().corruptions_detected;
        }
        assert!(hits >= 1, "seed 42 at p=0.4 must flip at least once");
        let inj = s.rdma().fabric().fault_injector().unwrap().stats();
        assert!(inj.wire_flips >= 1, "{inj:?}");
        let fs = client.fault_stats();
        assert_eq!(fs.corruptions_repaired, 0, "wire faults retry, not repair: {fs:?}");
        assert_eq!(fs.corruptions_unrepairable, 0, "{fs:?}");
    });
    sim.run();
}

/// A torn write records the writer's intent, so the undelivered tail fails
/// verification on the next read and is repaired back to the replicated
/// bytes — page-level atomicity instead of silent half-writes.
#[test]
fn torn_write_tail_is_repaired_from_standby() {
    let pair = paged_pair(None);
    let p = pair.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let policy = RetryPolicy { max_attempts: 8, ..RetryPolicy::with_seed(7) };
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        let base: Vec<f32> = (0..ELEMS).map(|i| i as f32).collect();
        client.write(&ctx, &buf, &base).unwrap();
        p.replicate(&ctx).unwrap();
        // The cable drops mid-transfer: nothing lands, but the intent CRCs
        // were recorded, so both pages now disagree with their bytes.
        let intended: Vec<f32> = base.iter().map(|v| v + 10.0).collect();
        p.primary().inject_torn_write(&ctx, key, 0, &intended, 0).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
        assert_eq!(out, base, "tail pages roll back to the replicated bytes");
        assert_eq!(p.repairs_completed(), 2, "one repair per torn page");
        assert!(p.primary().poisoned_pages(key).is_empty());
        let fs = client.fault_stats();
        assert_eq!(fs.corruptions_detected, 2, "{fs:?}");
        assert_eq!(fs.corruptions_repaired, 2, "{fs:?}");
    });
    sim.run();
}

/// An accumulate never folds a repaired source: a torn ΔW write poisons
/// both source pages, whose repair would install the standby's older copy
/// of the *previous* increment. The accumulate refuses with `SourceMoved`
/// and leaves `W_g` alone; the caller's re-write repairs the pages and
/// lands the increment whole, and the re-fold adds exactly it.
#[test]
fn an_accumulate_never_folds_a_repaired_source() {
    let pair = paged_pair(None);
    let p = pair.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let policy = RetryPolicy { max_attempts: 8, ..RetryPolicy::with_seed(3) };
        let wg = client.alloc(&ctx, client.create(&ctx, "wg", ELEMS, None).unwrap()).unwrap();
        let dw = client.alloc(&ctx, client.create(&ctx, "dw", ELEMS, None).unwrap()).unwrap();
        client.write_range_retrying(&ctx, &dw, 0, &[1.0; ELEMS], &policy).unwrap();
        client.accumulate_range_retrying(&ctx, &dw, &wg, 0, ELEMS, &policy).unwrap();
        p.replicate(&ctx).unwrap();
        p.primary().inject_torn_write(&ctx, dw.key, 0, &[2.0; ELEMS], 2).unwrap();
        let folded = client.accumulate_range_retrying(&ctx, &dw, &wg, 0, ELEMS, &policy);
        assert_eq!(folded, Err(SmbError::SourceMoved { key: dw.key }));
        let mut out = [0.0f32; ELEMS];
        client.read_retrying(&ctx, &wg, &mut out, &policy).unwrap();
        assert_eq!(out, [1.0; ELEMS], "the repaired (older) source must not fold");

        client.write_range_retrying(&ctx, &dw, 0, &[2.0; ELEMS], &policy).unwrap();
        client.accumulate_range_retrying(&ctx, &dw, &wg, 0, ELEMS, &policy).unwrap();
        client.read_retrying(&ctx, &wg, &mut out, &policy).unwrap();
        assert_eq!(out, [3.0; ELEMS], "the re-written increment folds exactly once");
        let fs = client.fault_stats();
        assert_eq!((fs.corruptions_detected, fs.corruptions_repaired), (2, 2), "{fs:?}");
    });
    sim.run();
}

/// A failed accumulate has folded nothing, whatever failed it: the
/// destination's bytes and version are as before the call. A gate that
/// fails every attempt spends the budget before the engine runs
/// ([`SmbError::Timeout`]); a poisoned destination page on a lone server
/// fails the engine's operand check before it adds
/// ([`SmbError::Unrepairable`]). So a caller may owe a failed increment to
/// the destination and push it again without folding it twice.
#[test]
fn a_failed_accumulate_has_not_folded() {
    let gated = paged_single(Some(FaultPlan::new(4).with_op_failure_prob(1.0)));
    unfolded_after_failure(gated, false, |e| matches!(e, SmbError::Timeout { .. }));
    let poisoned = paged_single(None);
    unfolded_after_failure(poisoned, true, |e| matches!(e, SmbError::Unrepairable { page: 0, .. }));
}

/// Runs one range accumulate on `s` — after poisoning the
/// destination's first page when `poison` — and asserts that it fails as
/// `expected` says and leaves the destination as it was.
fn unfolded_after_failure(s: SmbServer, poison: bool, expected: fn(&SmbError) -> bool) {
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s.clone(), NodeId(0));
        let policy = RetryPolicy { max_attempts: 4, ..RetryPolicy::with_seed(4) };
        let wg = client.alloc(&ctx, client.create(&ctx, "wg", ELEMS, None).unwrap()).unwrap();
        let dw = client.alloc(&ctx, client.create(&ctx, "dw", ELEMS, None).unwrap()).unwrap();
        let base: Vec<f32> = (0..ELEMS).map(|i| i as f32 + 0.5).collect();
        client.write(&ctx, &wg, &base).unwrap();
        client.write(&ctx, &dw, &[1.0; ELEMS]).unwrap();
        if poison {
            s.inject_bit_flip(wg.key, 1, 3).unwrap();
            assert_eq!(s.scrub_pass(&ctx), 1, "the flip poisons the first page");
        }
        let bytes = || s.rdma().with_region(&wg.mr, |b| b.to_vec()).unwrap();
        let (before, version) = (bytes(), s.version(wg.key).unwrap());
        let folded = client.accumulate_range_retrying(&ctx, &dw, &wg, 0, ELEMS, &policy);
        assert!(folded.as_ref().is_err_and(expected), "{folded:?}");
        assert_eq!(bytes(), before, "a failed accumulate must not touch W_g");
        assert_eq!(s.version(wg.key).unwrap(), version, "nor bump its version");
    });
    sim.run();
}

/// Plan-driven torn writes through the retrying path degrade to page
/// atomicity: after repair, every page reads back as either the old or the
/// new generation in full — the delivered prefix keeps what landed whole,
/// the torn tail rolls back — and nothing in between.
#[test]
fn seeded_torn_writes_degrade_to_page_atomicity() {
    let plan = FaultPlan::new(9).with_torn_write_prob(1.0);
    let pair = paged_pair(Some(plan));
    let p = pair.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::with_failover(p.clone(), NodeId(0));
        let policy = RetryPolicy { max_attempts: 8, ..RetryPolicy::with_seed(9) };
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        let base: Vec<f32> = (0..ELEMS).map(|i| i as f32).collect();
        client.write(&ctx, &buf, &base).unwrap();
        p.replicate(&ctx).unwrap();
        let intended: Vec<f32> = base.iter().map(|v| v + 100.0).collect();
        // Every attempt tears (p = 1.0), so the ack means "prefix landed,
        // intent recorded", not "all bytes landed".
        client.write_retrying(&ctx, &buf, &intended, &policy).unwrap();
        let mut out = vec![0.0f32; ELEMS];
        client.read_retrying(&ctx, &buf, &mut out, &policy).unwrap();
        let mut new_pages = 0usize;
        for page in 0..ELEMS / PAGE {
            let span = &out[page * PAGE..(page + 1) * PAGE];
            if span == &intended[page * PAGE..(page + 1) * PAGE] {
                new_pages += 1;
                assert_eq!(new_pages, page + 1, "new-generation pages form a prefix");
            } else {
                assert_eq!(span, &base[page * PAGE..(page + 1) * PAGE], "page {page} mixed bytes");
            }
        }
        assert!(new_pages < ELEMS / PAGE, "p = 1.0 tears every attempt, tail must roll back");
        let fs = client.fault_stats();
        assert!(fs.corruptions_detected >= 1, "{fs:?}");
        assert_eq!(fs.corruptions_detected, fs.corruptions_repaired, "{fs:?}");
        let inj = p.primary().rdma().fabric().fault_injector().unwrap().stats();
        assert!(inj.torn_writes >= 1, "{inj:?}");
    });
    sim.run();
}

/// Scheduled DRAM decay is found by the scrub pass once its virtual time
/// arrives, and the poisoned page then fails loudly on the read path.
#[test]
fn scrub_pass_finds_scheduled_dram_decay() {
    let memory_node = NodeId(ClusterSpec::paper_testbed(1).gpu_nodes);
    let plan = FaultPlan::new(11).decay_dram(memory_node, SimTime::from_millis(5));
    let server = paged_single(Some(plan));
    let s = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s.clone(), NodeId(0));
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &[4.0f32; ELEMS]).unwrap();
        // Before the decay's virtual time the grid verifies clean.
        assert_eq!(s.scrub_pass(&ctx), 0);
        ctx.sleep_until(SimTime::from_millis(6));
        assert_eq!(s.scrub_pass(&ctx), 1, "one decayed page newly poisoned");
        assert_eq!(s.corruptions_detected(), 1);
        let inj = s.rdma().fabric().fault_injector().unwrap().stats();
        assert_eq!(inj.dram_decays_applied, 1, "{inj:?}");
        let mut out = vec![0.0f32; ELEMS];
        // A plain read repairs a poisoned page once; a lone server has no
        // replica to repair from.
        match client.read(&ctx, &buf, &mut out) {
            Err(SmbError::Unrepairable { key: k, node, page }) => {
                assert_eq!((k, node, vec![page]), (key, s.node(), s.poisoned_pages(key)));
            }
            other => panic!("decayed page must fail the read, got {other:?}"),
        }
        // A second pass reports nothing new: poison is counted once.
        assert_eq!(s.scrub_pass(&ctx), 0);
        assert_eq!(s.corruptions_detected(), 1);
    });
    sim.run();
}

/// The background scrubber process finds decay on its own cadence — no
/// client read needed — and stops cleanly when asked.
#[test]
fn background_scrubber_finds_decay_between_reads() {
    let memory_node = NodeId(ClusterSpec::paper_testbed(1).gpu_nodes);
    let plan = FaultPlan::new(13).decay_dram(memory_node, SimTime::from_millis(3));
    let cfg = SmbServerConfig {
        page_elems: PAGE,
        scrub_interval: SimDuration::from_millis(2),
        ..SmbServerConfig::default()
    };
    let spec = ClusterSpec::paper_testbed(1);
    let server =
        SmbServer::with_config(RdmaFabric::new(Fabric::with_faults(spec, plan)), cfg).unwrap();
    let s = server.clone();
    let scrub = server.clone();
    let mut sim = Simulation::new();
    sim.spawn("scrubber", move |ctx| scrub.run_scrubber(&ctx));
    sim.spawn("w", move |ctx| {
        let client = SmbClient::new(s.clone(), NodeId(0));
        let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
        let buf = client.alloc(&ctx, key).unwrap();
        client.write(&ctx, &buf, &[5.0f32; ELEMS]).unwrap();
        ctx.sleep_until(SimTime::from_millis(10));
        assert_eq!(s.corruptions_detected(), 1, "scrubber found the decay unprompted");
        assert_eq!(s.poisoned_pages(key).len(), 1);
        s.stop_scrubber();
    });
    sim.run();
}

/// A DRAM decay landing on the control-info segment no longer kills the
/// run: the progress board repairs the poisoned page from the standby and
/// retries once, for snapshots and for publishes alike, and the fault-free
/// path costs the same virtual time as before.
#[test]
fn progress_board_survives_decay_on_its_segment() {
    use shmcaffe_smb::progress::{ProgressBoard, WorkerProgress};
    const WORKERS: usize = 6; // 12 elements: three pages
    /// (snapshot after the decay, fault stats, virtual clock at the end).
    fn run(decay: bool, publish_first: bool) -> (Vec<WorkerProgress>, [u64; 3], SimTime) {
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let memory_node = NodeId(spec.gpu_nodes);
        // The board is the pair's only segment, so the seeded decay has
        // nowhere else to land.
        let plan = FaultPlan::new(21);
        let plan = if decay { plan.decay_dram(memory_node, SimTime::from_millis(5)) } else { plan };
        let pair =
            SmbPair::new(RdmaFabric::new(Fabric::with_faults(spec, plan)), paged_config()).unwrap();
        let p = pair.clone();
        let out = Arc::new(Mutex::new((Vec::new(), [0u64; 3], SimTime::ZERO)));
        let o2 = Arc::clone(&out);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let (board, _key) = ProgressBoard::create(&client, &ctx, "ctrl", WORKERS).unwrap();
            for rank in 0..WORKERS {
                board.publish(&client, &ctx, rank, 10 + rank as u64, false).unwrap();
            }
            p.replicate(&ctx).unwrap();
            ctx.sleep_until(SimTime::from_millis(6));
            if publish_first {
                // Re-publishing the replicated value keeps the repaired
                // board equal to the undamaged one whichever page decayed.
                for rank in 0..WORKERS {
                    board.publish(&client, &ctx, rank, 10 + rank as u64, false).unwrap();
                }
            }
            let snap = board.snapshot(&client, &ctx).unwrap();
            let fs = client.fault_stats();
            *o2.lock() = (
                snap.workers,
                [fs.corruptions_detected, fs.corruptions_repaired, fs.corruptions_unrepairable],
                ctx.now(),
            );
            if decay {
                assert_eq!(p.repairs_completed(), 1);
                assert_eq!(p.primary().corruptions_detected(), 1);
                let inj = p.primary().rdma().fabric().fault_injector().unwrap().stats();
                assert_eq!(inj.dram_decays_applied, 1, "{inj:?}");
            }
        });
        sim.run();
        let guard = out.lock();
        guard.clone()
    }
    for publish_first in [false, true] {
        let (clean, clean_stats, _) = run(false, publish_first);
        let (repaired, stats, _) = run(true, publish_first);
        assert_eq!(repaired, clean, "repair restores the replicated board");
        assert_eq!(clean_stats, [0, 0, 0]);
        assert_eq!(stats, [1, 1, 0], "detected once, repaired once, nothing unrepairable");
    }
    // Same seed, same decay: the repaired run replays to the same clock.
    assert_eq!(run(true, false).2, run(true, false).2);
}

/// The whole detect → repair pipeline is a pure function of the seed: two
/// runs produce bit-identical repaired bytes, identical counters, and an
/// identical virtual clock.
#[test]
fn repair_pipeline_replays_bit_identically() {
    /// (repaired bytes, detected, repaired, pair repairs, virtual clock).
    type RunOutcome = (Vec<f32>, u64, u64, u64, SimTime);
    fn run_once() -> RunOutcome {
        let plan = FaultPlan::new(77).with_wire_flip_prob(0.3);
        let pair = paged_pair(Some(plan));
        let p = pair.clone();
        let out: Arc<Mutex<RunOutcome>> =
            Arc::new(Mutex::new((Vec::new(), 0, 0, 0, SimTime::ZERO)));
        let o2 = Arc::clone(&out);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::with_failover(p.clone(), NodeId(0));
            let policy = RetryPolicy { max_attempts: 12, ..RetryPolicy::with_seed(77) };
            let key = client.create(&ctx, "wg", ELEMS, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            let payload: Vec<f32> = (0..ELEMS).map(|i| i as f32 * 1.25).collect();
            client.write(&ctx, &buf, &payload).unwrap();
            p.replicate(&ctx).unwrap();
            p.primary().inject_bit_flip(key, 6, 2).unwrap();
            let mut data = vec![0.0f32; ELEMS];
            client.read_retrying(&ctx, &buf, &mut data, &policy).unwrap();
            let fs = client.fault_stats();
            *o2.lock() = (
                data,
                fs.corruptions_detected,
                fs.corruptions_repaired,
                p.repairs_completed(),
                ctx.now(),
            );
        });
        sim.run();
        let guard = out.lock();
        guard.clone()
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "same seed must replay bit-identically");
    assert!(a.1 >= 1, "the flip was detected");
    assert_eq!(a.3, 1, "and repaired exactly once");
}
