//! Bandwidth-limited FIFO resources: links, buses and service engines.
//!
//! A [`BandwidthResource`] models a store-and-forward pipe: transfers are
//! serviced in virtual-time arrival order, each occupying the pipe for
//! `bytes / bandwidth`. Contention therefore emerges as queueing delay.
//! This single abstraction models the paper's InfiniBand HCAs (7 GB/s), the
//! switch backplane, per-node PCIe buses (~12 GB/s) and the SMB server's
//! accumulate engine.
//!
//! A resource's books — when it next falls free, and its byte, busy-time
//! and transfer totals — are four `AtomicU64`s, written with plain
//! `Relaxed` loads and stores and no lock (DESIGN.md §5k, "where a
//! resource's books live"). Only the process holding the running slot
//! books a transfer, and every process of a run is a fiber on the run's
//! one OS thread, so no two bookings ever interleave; a read after
//! [`crate::Simulation::run`] returns is ordered after the whole run by
//! the join of that thread.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::{SimContext, SimDuration, SimTime};

/// Static parameters of a link: bandwidth and propagation latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way propagation latency added after the transfer completes.
    pub latency: SimDuration,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn new(bandwidth_bps: f64, latency: SimDuration) -> Self {
        assert!(bandwidth_bps.is_finite() && bandwidth_bps > 0.0, "bandwidth must be positive");
        LinkModel { bandwidth_bps, latency }
    }
}

/// The books of one resource, in nanoseconds and counts.
///
/// Each update is a load and a store, never a read-modify-write: nothing
/// else can run between the two (module docs), and a locked `fetch_add`
/// would cost as much as the lock these replaced.
#[derive(Debug, Default)]
struct Books {
    busy_until: AtomicU64,
    total_bytes: AtomicU64,
    total_busy: AtomicU64,
    transfers: AtomicU64,
}

impl Books {
    fn busy_until(&self) -> SimTime {
        SimTime::from_nanos(self.busy_until.load(Relaxed))
    }

    /// Books one service interval of `service` ending at `end`.
    fn book(&self, end: SimTime, bytes: u64, service: SimDuration) {
        let busy = SimDuration::from_nanos(self.total_busy.load(Relaxed)) + service;
        self.busy_until.store(end.as_nanos(), Relaxed);
        self.total_bytes.store(self.total_bytes.load(Relaxed) + bytes, Relaxed);
        self.total_busy.store(busy.as_nanos(), Relaxed);
        self.transfers.store(self.transfers.load(Relaxed) + 1, Relaxed);
    }
}

/// A FIFO bandwidth resource shared by simulated processes.
///
/// Cloning returns another handle to the same resource.
///
/// # Example
///
/// ```rust
/// use shmcaffe_simnet::{Simulation, SimDuration};
/// use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
///
/// let mut sim = Simulation::new();
/// let bus = BandwidthResource::new("pcie", LinkModel::new(12e9, SimDuration::ZERO));
/// for i in 0..2 {
///     let bus = bus.clone();
///     sim.spawn(&format!("gpu{i}"), move |ctx| {
///         bus.transfer(&ctx, 12_000_000_000); // 1 s of service each
///     });
/// }
/// let end = sim.run();
/// // Two 1-second transfers serialised on the shared bus.
/// assert_eq!(end.as_secs_f64().round(), 2.0);
/// ```
#[derive(Clone)]
pub struct BandwidthResource {
    name: Arc<str>,
    model: LinkModel,
    books: Arc<Books>,
}

impl std::fmt::Debug for BandwidthResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthResource")
            .field("name", &self.name)
            .field("model", &self.model)
            .finish()
    }
}

/// Timing of one completed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReport {
    /// When the transfer began occupying the resource.
    pub start: SimTime,
    /// When the last byte left the resource (latency not included).
    pub end: SimTime,
}

impl TransferReport {
    /// Queueing + service duration (excludes propagation latency).
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

impl BandwidthResource {
    /// Creates a resource with the given model.
    pub fn new(name: &str, model: LinkModel) -> Self {
        BandwidthResource { name: name.into(), model, books: Arc::default() }
    }

    /// The resource's link model.
    pub fn model(&self) -> LinkModel {
        self.model
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Moves `bytes` through the resource, blocking in virtual time for
    /// queueing, service and propagation latency: [`transfer_path_stream`]
    /// over a one-hop path.
    pub fn transfer(&self, ctx: &SimContext, bytes: u64) -> TransferReport {
        transfer_path_stream(ctx, &[self], bytes, None)
    }

    /// Reserves the resource without transferring bytes (control messages,
    /// fixed-cost operations). Blocks for queueing + `service` + latency.
    pub fn occupy(&self, ctx: &SimContext, service: SimDuration) -> TransferReport {
        let start = ctx.now().max(self.books.busy_until());
        let end = start + service;
        self.books.book(end, 0, service);
        ctx.sleep_until(end + self.model.latency);
        TransferReport { start, end }
    }

    /// Total bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.books.total_bytes.load(Relaxed)
    }

    /// Total busy (service) time accumulated so far.
    pub fn total_busy(&self) -> SimDuration {
        SimDuration::from_nanos(self.books.total_busy.load(Relaxed))
    }

    /// Number of transfers serviced so far.
    pub fn transfer_count(&self) -> u64 {
        self.books.transfers.load(Relaxed)
    }

    /// Utilisation over `[0, horizon]`: busy time divided by the horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.total_busy().as_secs_f64() / horizon.as_secs_f64()
    }
}

/// Moves `bytes` through a chain of resources as one cut-through transfer,
/// with an optional per-stream pacing limit in bytes/s.
///
/// The transfer starts when every resource is free, proceeds at the minimum
/// bandwidth along the chain, and occupies all resources until it completes.
/// The maximum per-hop latency is added once. This models an end-to-end path
/// (source HCA → switch → destination HCA) without simulating per-packet
/// pipelining.
///
/// With `stream_bps` the *links* are still occupied for `bytes / link_bw`
/// (so concurrent streams aggregate to the link rate), but the requester
/// does not complete before `arrival + bytes / stream_bps`. This models
/// protocol stacks whose single connection cannot saturate the wire — e.g.
/// the SMB server's RDS-derived transport, whose aggregate bandwidth grows
/// with the process count (paper Fig. 7).
///
/// # Panics
///
/// Panics if `path` is empty or `stream_bps` is non-positive.
pub fn transfer_path_stream(
    ctx: &SimContext,
    path: &[&BandwidthResource],
    bytes: u64,
    stream_bps: Option<f64>,
) -> TransferReport {
    assert!(!path.is_empty(), "transfer path must contain at least one resource");
    assert!(stream_bps.is_none_or(|bps| bps > 0.0), "stream_bps must be positive");
    let now = ctx.now();
    let min_bw = path.iter().map(|r| r.model.bandwidth_bps).fold(f64::INFINITY, f64::min);
    let service = SimDuration::from_secs_f64(bytes as f64 / min_bw);
    let max_latency = path.iter().map(|r| r.model.latency).max().unwrap_or(SimDuration::ZERO);

    // Only the running process books (module docs), so reading every hop
    // and then booking every hop cannot race. A shared (half-duplex)
    // resource may appear twice in the path; it is booked once, at its
    // first position (paths are a handful of hops, so the scan is free).
    let start = path.iter().fold(now, |t, r| t.max(r.books.busy_until()));
    let end = start + service;
    for (i, r) in path.iter().enumerate() {
        if !path[..i].iter().any(|earlier| Arc::ptr_eq(&earlier.books, &r.books)) {
            r.books.book(end, bytes, service);
        }
    }
    // Paced streams flow concurrently: completion is governed by the
    // stream's own rate from *arrival*, or by aggregate link saturation
    // (the accumulated service backlog), whichever is later.
    let complete = match stream_bps {
        Some(bps) => end.max(now + SimDuration::from_secs_f64(bytes as f64 / bps)),
        None => end,
    };
    ctx.sleep_until(complete + max_latency);
    TransferReport { start, end: complete }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use parking_lot::Mutex as PMutex;

    fn gbps(n: f64) -> LinkModel {
        LinkModel::new(n * 1e9, SimDuration::ZERO)
    }

    #[test]
    fn single_transfer_takes_bytes_over_bandwidth() {
        let mut sim = Simulation::new();
        let link = BandwidthResource::new("l", LinkModel::new(1e9, SimDuration::from_micros(5)));
        let l = link.clone();
        sim.spawn("p", move |ctx| {
            let rep = l.transfer(&ctx, 500_000_000);
            assert_eq!(rep.duration().as_secs_f64(), 0.5);
            // 0.5 s service + 5 us latency.
            assert_eq!(ctx.now().as_nanos(), 500_000_000 + 5_000);
        });
        sim.run();
    }

    #[test]
    fn concurrent_transfers_serialize_fifo() {
        let mut sim = Simulation::new();
        let link = BandwidthResource::new("l", gbps(1.0));
        let order = std::sync::Arc::new(PMutex::new(Vec::new()));
        for i in 0..4u64 {
            let l = link.clone();
            let order = std::sync::Arc::clone(&order);
            sim.spawn(&format!("p{i}"), move |ctx| {
                let rep = l.transfer(&ctx, 100_000_000); // 100 ms each
                order.lock().push((i, rep.start.as_millis_f64(), rep.end.as_millis_f64()));
            });
        }
        let end = sim.run();
        assert_eq!(end.as_millis_f64(), 400.0);
        let order = order.lock().clone();
        // Starts at 0, 100, 200, 300 in spawn order.
        for (idx, (i, start, end)) in order.iter().enumerate() {
            assert_eq!(*i as usize, idx);
            assert_eq!(*start, 100.0 * idx as f64);
            assert_eq!(*end, 100.0 * (idx + 1) as f64);
        }
    }

    #[test]
    fn aggregate_bandwidth_is_capped_at_link_rate() {
        // N processes each push 100 MB through a 7 GB/s link; aggregate
        // throughput must equal the link rate, not N times it.
        let mut sim = Simulation::new();
        let link = BandwidthResource::new("hca", gbps(7.0));
        let n = 8u64;
        let per_proc = 100_000_000u64;
        for i in 0..n {
            let l = link.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                l.transfer(&ctx, per_proc);
            });
        }
        let end = sim.run();
        let aggregate = (n * per_proc) as f64 / end.as_secs_f64();
        assert!((aggregate - 7e9).abs() / 7e9 < 1e-6, "aggregate {aggregate}");
    }

    #[test]
    fn occupy_reserves_fixed_service_time() {
        let mut sim = Simulation::new();
        let engine = BandwidthResource::new("accum", gbps(10.0));
        let e = engine.clone();
        sim.spawn("p", move |ctx| {
            e.occupy(&ctx, SimDuration::from_millis(3));
            assert_eq!(ctx.now().as_millis_f64(), 3.0);
        });
        sim.run();
        assert_eq!(engine.transfer_count(), 1);
    }

    #[test]
    fn path_transfer_bottlenecked_by_slowest_hop() {
        let mut sim = Simulation::new();
        let fast = BandwidthResource::new("fast", gbps(10.0));
        let slow = BandwidthResource::new("slow", gbps(1.0));
        let (f, s) = (fast.clone(), slow.clone());
        sim.spawn("p", move |ctx| {
            let rep = transfer_path_stream(&ctx, &[&f, &s], 1_000_000_000, None);
            assert_eq!(rep.duration().as_secs_f64(), 1.0);
        });
        sim.run();
        // Both hops were occupied for the full transfer.
        assert_eq!(fast.total_busy().as_secs_f64(), 1.0);
        assert_eq!(slow.total_busy().as_secs_f64(), 1.0);
    }

    #[test]
    fn utilization_accounting() {
        let mut sim = Simulation::new();
        let link = BandwidthResource::new("l", gbps(1.0));
        let l = link.clone();
        sim.spawn("p", move |ctx| {
            l.transfer(&ctx, 250_000_000);
            ctx.sleep(SimDuration::from_millis(750));
        });
        let end = sim.run();
        assert_eq!(end.as_secs_f64(), 1.0);
        assert!((link.utilization(end) - 0.25).abs() < 1e-9);
        assert_eq!(link.total_bytes(), 250_000_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        LinkModel::new(0.0, SimDuration::ZERO);
    }

    #[test]
    fn stream_cap_limits_single_transfer() {
        // 7 GB/s link, 1.75 GB/s stream: 1 GB takes 571 ms for the
        // requester but occupies the link for only 143 ms.
        let mut sim = Simulation::new();
        let link = BandwidthResource::new("l", gbps(7.0));
        let l = link.clone();
        sim.spawn("p", move |ctx| {
            transfer_path_stream(&ctx, &[&l], 1_000_000_000, Some(1.75e9));
            assert!((ctx.now().as_secs_f64() - 1.0 / 1.75).abs() < 1e-3);
        });
        sim.run();
        assert!((link.total_busy().as_secs_f64() - 1.0 / 7.0).abs() < 1e-3);
    }

    #[test]
    fn concurrent_capped_streams_aggregate_toward_link_rate() {
        // Aggregate bandwidth rises with the process count until the link
        // saturates — the shape of the paper's Fig. 7.
        let aggregate = |procs: usize| -> f64 {
            let mut sim = Simulation::new();
            let link = BandwidthResource::new("l", gbps(7.0));
            let per_proc = 1_000_000_000u64;
            for i in 0..procs {
                let l = link.clone();
                sim.spawn(&format!("p{i}"), move |ctx| {
                    transfer_path_stream(&ctx, &[&l], per_proc, Some(1.75e9));
                });
            }
            let end = sim.run();
            (procs as u64 * per_proc) as f64 / end.as_secs_f64()
        };
        let a2 = aggregate(2);
        let a8 = aggregate(8);
        let a16 = aggregate(16);
        assert!((a2 - 3.5e9).abs() < 0.2e9, "2 procs: {a2}");
        assert!(a8 > 6.0e9, "8 procs: {a8}");
        assert!(a16 <= 7.0e9 + 1.0 && a16 > 6.5e9, "16 procs: {a16}");
        assert!(a2 < a8 && a8 <= a16 + 0.5e9);
    }

    #[test]
    fn path_with_duplicate_resource_charges_once() {
        // A half-duplex endpoint appears as both tx and rx.
        let mut sim = Simulation::new();
        let shared = BandwidthResource::new("hd", gbps(1.0));
        let (s1, s2) = (shared.clone(), shared.clone());
        sim.spawn("p", move |ctx| {
            transfer_path_stream(&ctx, &[&s1, &s2], 1_000_000_000, None);
            assert_eq!(s1.total_bytes(), 1_000_000_000);
            assert_eq!(s1.total_busy().as_secs_f64(), 1.0);
            assert_eq!(s1.transfer_count(), 1);
            // Booked busy until the one transfer's end, 1 s.
            assert_eq!(s2.transfer(&ctx, 0).start.as_secs_f64(), 1.0);
        });
        assert_eq!(sim.run().as_secs_f64(), 1.0);
    }

    #[test]
    fn rejected_stream_rate_leaves_the_books_untouched() {
        let link = BandwidthResource::new("l", gbps(1.0));
        let mut sim = Simulation::new();
        let l = link.clone();
        sim.spawn("p", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            transfer_path_stream(&ctx, &[&l, &l], 1_000_000_000, Some(0.0));
        });
        let err = sim.run_result().expect_err("a zero stream rate is rejected");
        assert!(err.contains("stream_bps must be positive"), "{err}");
        assert_eq!(link.total_bytes(), 0);
        assert_eq!(link.total_busy(), SimDuration::ZERO);
        assert_eq!(link.transfer_count(), 0);
        // Nor was the link booked busy: a transfer at 0 starts at once.
        let mut sim = Simulation::new();
        let l = link.clone();
        sim.spawn("q", move |ctx| assert_eq!(l.transfer(&ctx, 0).start, SimTime::ZERO));
        sim.run();
    }

    #[test]
    fn books_read_after_the_run_match_the_books_inside_it() {
        let link = BandwidthResource::new("l", LinkModel::new(1e9, SimDuration::from_micros(3)));
        let seen = std::sync::Arc::new(PMutex::new((0, SimDuration::ZERO, 0)));
        let mut sim = Simulation::new();
        for i in 0..4u64 {
            let (l, seen) = (link.clone(), std::sync::Arc::clone(&seen));
            sim.spawn(&format!("p{i}"), move |ctx| {
                l.transfer(&ctx, 1_000_000 * (i + 1));
                l.occupy(&ctx, SimDuration::from_micros(7 * i));
                transfer_path_stream(&ctx, &[&l], 4096, Some(1e8));
                *seen.lock() = (l.total_bytes(), l.total_busy(), l.transfer_count());
            });
        }
        let end = sim.run();
        let (bytes, busy, count) = *seen.lock();
        assert_eq!(bytes, 10_000_000 + 4 * 4096);
        assert_eq!(count, 12);
        assert_eq!(
            (link.total_bytes(), link.total_busy(), link.transfer_count()),
            (bytes, busy, count)
        );
        assert_eq!(link.utilization(end), busy.as_secs_f64() / end.as_secs_f64());
    }
}
