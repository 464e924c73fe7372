//! Property and exhaustive tests of the CRC-guarded page grid: every
//! single-bit flip, every seeded double-bit flip, and every torn-write
//! prefix is detected, and detection poisons exactly the affected pages.

use parking_lot::Mutex;
use proptest::prelude::*;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::Simulation;
use shmcaffe_smb::{SmbClient, SmbError, SmbServer, SmbServerConfig};
use std::sync::Arc;

fn paged_server(page_elems: usize) -> SmbServer {
    let cfg = SmbServerConfig { page_elems, ..SmbServerConfig::default() };
    SmbServer::with_config(RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1))), cfg)
        .unwrap()
}

/// The pages of an `n`-element segment overlapping `[offset, offset+len)` —
/// the oracle the tests check poisoning against.
fn pages_in(pe: usize, n: usize, offset: usize, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    (offset / pe..((offset + len - 1) / pe + 1).min(n.div_ceil(pe))).collect()
}

/// Representative (page_elems, segment_elems) shapes: aligned, unaligned,
/// page > segment, single-element pages.
const SHAPES: [(usize, usize); 5] = [(4, 13), (8, 8), (3, 10), (16, 5), (1, 6)];

/// Exhaustive: every single-bit flip of every element is detected by the
/// next read, which names the exact page (as `Unrepairable`: a lone
/// server has no replica), and only that page is poisoned.
#[test]
fn every_single_bit_flip_is_detected() {
    for (pe, n) in SHAPES {
        let srv = paged_server(pe);
        let s = srv.clone();
        let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&failures);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let mut case = 0usize;
            for elem in 0..n {
                for bit in 0..32u32 {
                    let key = client.create(&ctx, &format!("b{case}"), n, None).unwrap();
                    case += 1;
                    let buf = client.alloc(&ctx, key).unwrap();
                    let payload: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();
                    client.write(&ctx, &buf, &payload).unwrap();
                    s.inject_bit_flip(key, elem, bit).unwrap();
                    let mut out = vec![0.0f32; n];
                    match client.read(&ctx, &buf, &mut out) {
                        Err(SmbError::Unrepairable { page, .. }) if page == elem / pe => {}
                        other => f2
                            .lock()
                            .push(format!("pe={pe} n={n} elem={elem} bit={bit}: {other:?}")),
                    }
                    if s.poisoned_pages(key) != vec![elem / pe] {
                        f2.lock().push(format!(
                            "pe={pe} n={n} elem={elem} bit={bit}: poisoned {:?}",
                            s.poisoned_pages(key)
                        ));
                    }
                }
            }
        });
        sim.run();
        let fails = failures.lock();
        assert!(fails.is_empty(), "undetected flips: {:?}", &fails[..fails.len().min(5)]);
    }
}

/// Exhaustive: every torn prefix of a full-buffer write is detected by the
/// scrubber, which poisons exactly the pages past the delivered prefix; the
/// intact delivery (`prefix == n`) stays clean.
#[test]
fn every_torn_write_prefix_is_detected() {
    for (pe, n) in SHAPES {
        let srv = paged_server(pe);
        let s = srv.clone();
        let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&failures);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let base: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let intended: Vec<f32> = base.iter().map(|v| v + 1.0).collect();
            for prefix in 0..=n {
                let key = client.create(&ctx, &format!("b{prefix}"), n, None).unwrap();
                let buf = client.alloc(&ctx, key).unwrap();
                client.write(&ctx, &buf, &base).unwrap();
                s.inject_torn_write(&ctx, key, 0, &intended, prefix).unwrap();
                let newly = s.scrub_pass(&ctx);
                let expect = pages_in(pe, n, prefix, n - prefix);
                if s.poisoned_pages(key) != expect || newly != expect.len() {
                    f2.lock().push(format!(
                        "pe={pe} n={n} prefix={prefix}: poisoned {:?} (newly {newly}), want {expect:?}",
                        s.poisoned_pages(key)
                    ));
                }
            }
        });
        sim.run();
        let fails = failures.lock();
        assert!(fails.is_empty(), "torn prefixes misdetected: {:?}", &fails[..fails.len().min(5)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded double-bit flip (two distinct (element, bit) positions)
    /// is detected: CRC32C's Hamming distance exceeds 2 at page scale, so
    /// the scrubber poisons exactly the pages holding flipped elements.
    #[test]
    fn double_bit_flips_are_detected(
        pe in 1usize..24,
        n in 1usize..96,
        a in 0usize..10_000,
        bit_a in 0u32..32,
        b in 0usize..10_000,
        bit_b in 0u32..32,
    ) {
        let (ea, eb) = (a % n, b % n);
        prop_assume!((ea, bit_a) != (eb, bit_b));
        let srv = paged_server(pe);
        let s = srv.clone();
        let poisoned: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let p2 = Arc::clone(&poisoned);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let key = client.create(&ctx, "b", n, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            let payload: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 3.0).collect();
            client.write(&ctx, &buf, &payload).unwrap();
            s.inject_bit_flip(key, ea, bit_a).unwrap();
            s.inject_bit_flip(key, eb, bit_b).unwrap();
            s.scrub_pass(&ctx);
            *p2.lock() = s.poisoned_pages(key);
        });
        sim.run();
        let mut expect = vec![ea / pe, eb / pe];
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(poisoned.lock().clone(), expect);
    }

    /// Any torn prefix of any sub-range write is detected: the scrubber
    /// poisons exactly the pages covering the undelivered tail.
    #[test]
    fn torn_range_writes_are_detected(
        pe in 1usize..16,
        n in 4usize..64,
        off in 0usize..10_000,
        len in 0usize..10_000,
        prefix in 0usize..10_000,
    ) {
        let off = off % n;
        let len = 1 + len % (n - off);
        let prefix = prefix % len; // strictly torn: prefix < len
        let srv = paged_server(pe);
        let s = srv.clone();
        let poisoned: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let p2 = Arc::clone(&poisoned);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let client = SmbClient::new(s.clone(), NodeId(0));
            let key = client.create(&ctx, "b", n, None).unwrap();
            let buf = client.alloc(&ctx, key).unwrap();
            let base: Vec<f32> = (0..n).map(|i| i as f32).collect();
            client.write(&ctx, &buf, &base).unwrap();
            let intended: Vec<f32> = base[off..off + len].iter().map(|v| v + 1.0).collect();
            s.inject_torn_write(&ctx, key, off, &intended, prefix).unwrap();
            s.scrub_pass(&ctx);
            *p2.lock() = s.poisoned_pages(key);
        });
        sim.run();
        prop_assert_eq!(poisoned.lock().clone(), pages_in(pe, n, off + prefix, len - prefix));
    }
}
