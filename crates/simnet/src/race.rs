//! The shared-memory access vocabulary and the happens-before race detector.
//!
//! Two things are always compiled: [`AccessKind`], the one classification
//! every instrumented access carries (announced once, through
//! [`crate::SimContext::access`], to both the schedule explorer and the
//! detector), and [`HbEdge`], the one release/acquire synchronization edge
//! higher layers declare. The detector itself — per-process vector clocks
//! and the per-region access history — is compiled in only under the
//! `race-detect` feature; without it an access is just the explorer's
//! footprint and an edge is a zero-sized no-op.
//!
//! The simulator's cooperative scheduler makes every run deterministic, but
//! determinism is not the same as *correct synchronization*: two simulated
//! processes may touch the same shared-memory segment with no ordering edge
//! between them, and the result then silently depends on scheduler
//! tie-breaking rules rather than on protocol-level synchronization.
//! Following the FastTrack/ThreadSanitizer lineage, the detector tracks one
//! vector clock per simulated process and checks every instrumented
//! byte-range access against the region's access history.
//!
//! # Happens-before edges
//!
//! Clocks advance along the synchronization edges the platform actually
//! uses (see DESIGN.md § Enforced invariants):
//!
//! * **channel send → recv** ([`crate::channel::SimChannel`]) — covers the
//!   MPI substrate, the SEASGD exchanger's request/reply lanes, and all
//!   rendezvous-style fan-out helpers;
//! * **process spawn** ([`crate::SimContext::spawn`]) — parent to child;
//! * **segment creation → allocation**, **lease heartbeat → eviction** and
//!   the replicated pair's fence / replication / promotion edges in the SMB
//!   control plane (each an [`HbEdge`] held by `shmcaffe-smb`).
//!
//! # Access classification
//!
//! Not every concurrent overlapping pair is a bug in this system: the SMB
//! accumulate engine is serialized by the memory server's DRAM bus (paper
//! T.A3, "the SMB server exclusively processes the cumulative update
//! requests"), and SEASGD readers of the global weight buffer are stale-
//! tolerant *by design* (asynchronous SGD). [`AccessKind`] therefore
//! distinguishes plain accesses from engine-serialized ("atomic") ones,
//! and a pair is racy only if it is conflicting **and** at least one side
//! is a plain access — see [`AccessKind::conflicts_with`].

use std::fmt;

use crate::SimContext;

/// How an instrumented access touches a byte range.
///
/// The `Atomic*` kinds model operations that the simulated platform
/// serializes on a shared engine (the SMB accumulate engine / DRAM bus) or
/// that are stale-tolerant by protocol design. The kind carries both
/// relations over it: [`AccessKind::commutes_with`] for the schedule
/// explorer and [`AccessKind::conflicts_with`] for the race detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain read: must not observe a concurrent write of any kind.
    Read,
    /// Plain write: conflicts with every concurrent overlapping access.
    Write,
    /// Engine-serialized / stale-tolerant read (e.g. a SEASGD worker
    /// pulling the global weights while accumulates are in flight).
    AtomicRead,
    /// Engine-serialized write (e.g. a progress-board slot publish).
    AtomicWrite,
    /// Engine-serialized read-modify-write (the SMB accumulate).
    AtomicRmw,
}

impl AccessKind {
    fn is_write_class(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::AtomicWrite | AccessKind::AtomicRmw)
    }

    fn is_plain(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Write)
    }

    /// Whether two overlapping accesses of these kinds commute (their
    /// execution order cannot affect any state or observation) — the
    /// explorer's independence relation. Strictly finer than
    /// [`AccessKind::conflicts_with`]: an `Atomic*`/`Atomic*` pair is never
    /// a *race* (both sides are engine-serialized), but a write-class
    /// access still orders state, so only read/read overlaps commute.
    pub fn commutes_with(self, other: AccessKind) -> bool {
        !self.is_write_class() && !other.is_write_class()
    }

    /// Whether two overlapping accesses from different processes with no
    /// happens-before edge constitute a race: at least one side writes,
    /// and at least one side is a plain (non-engine-serialized) access.
    pub fn conflicts_with(self, other: AccessKind) -> bool {
        (self.is_write_class() || other.is_write_class()) && (self.is_plain() || other.is_plain())
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::AtomicRead => "atomic-read",
            AccessKind::AtomicWrite => "atomic-write",
            AccessKind::AtomicRmw => "atomic-rmw",
        };
        f.write_str(s)
    }
}

/// One happens-before edge: whatever the releasing process did before
/// [`HbEdge::release`] happens-before whatever an acquiring process does
/// after [`HbEdge::acquire`]. Held wherever a protocol hands authority
/// over shared memory from one process to another outside a channel (a
/// segment's creation, a lease heartbeat, a fence epoch). A fresh edge has
/// never been released and acquiring it orders nothing; cloning carries the
/// last release along. Zero-sized and a no-op without `race-detect`.
#[derive(Debug, Clone, Default)]
pub struct HbEdge {
    #[cfg(feature = "race-detect")]
    stamp: Option<VectorClock>,
}

impl HbEdge {
    /// The source of the edge: ticks the caller's vector clock and keeps
    /// the snapshot, replacing any earlier release.
    pub fn release(&mut self, ctx: &SimContext) {
        #[cfg(feature = "race-detect")]
        {
            self.stamp = Some(ctx.core.vc_stamp(ctx.pid));
        }
        #[cfg(not(feature = "race-detect"))]
        let _ = ctx;
    }

    /// The sink of the edge: joins the last release (if any) into the
    /// caller's vector clock.
    pub fn acquire(&self, ctx: &SimContext) {
        #[cfg(feature = "race-detect")]
        if let Some(stamp) = &self.stamp {
            ctx.core.vc_join(ctx.pid, stamp);
        }
        #[cfg(not(feature = "race-detect"))]
        let _ = ctx;
    }
}

#[cfg(feature = "race-detect")]
pub use detector::{RaceDetector, RaceReport, VectorClock};

#[cfg(feature = "race-detect")]
mod detector {
    use parking_lot::Mutex;
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt;

    use super::AccessKind;
    use crate::SimContext;

    /// A vector clock: one logical-time component per simulated process id.
    ///
    /// Missing components read as zero, so clocks from simulations that
    /// spawn processes dynamically compare correctly at any length.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct VectorClock(Vec<u64>);

    impl VectorClock {
        pub(crate) fn from_components(components: Vec<u64>) -> Self {
            VectorClock(components)
        }

        /// The clock component for `pid` (zero if never ticked).
        pub fn component(&self, pid: usize) -> u64 {
            self.0.get(pid).copied().unwrap_or(0)
        }

        pub(crate) fn components(&self) -> &[u64] {
            &self.0
        }
    }

    /// One recorded access in a region's history.
    #[derive(Debug, Clone)]
    struct Access {
        pid: usize,
        kind: AccessKind,
        offset: usize,
        len: usize,
        site: &'static str,
        /// The accessor's own clock component at access time. An access `a`
        /// happens-before a later access with clock `c` iff
        /// `a.epoch <= c.component(a.pid)` (the FastTrack epoch test).
        epoch: u64,
    }

    /// A detected race: two concurrent overlapping accesses with no
    /// happens-before edge, named by their instrumentation sites.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RaceReport {
        /// The region (RDMA rkey) the accesses overlap on.
        pub region: u64,
        /// Instrumentation site of the earlier-recorded access.
        pub earlier_site: &'static str,
        /// Process id of the earlier-recorded access.
        pub earlier_pid: usize,
        /// Kind of the earlier-recorded access.
        pub earlier_kind: AccessKind,
        /// Instrumentation site of the later-recorded access.
        pub later_site: &'static str,
        /// Process id of the later-recorded access.
        pub later_pid: usize,
        /// Kind of the later-recorded access.
        pub later_kind: AccessKind,
    }

    impl fmt::Display for RaceReport {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "data race on region rkey:{:#x}: {} `{}` (pid {}) is concurrent with {} `{}` \
                 (pid {})",
                self.region,
                self.earlier_kind,
                self.earlier_site,
                self.earlier_pid,
                self.later_kind,
                self.later_site,
                self.later_pid,
            )
        }
    }

    struct DetectorState {
        /// Per-region access history, keyed by rkey.
        regions: BTreeMap<u64, Vec<Access>>,
        reports: Vec<RaceReport>,
        /// Site pairs already reported per region (report deduplication).
        seen: BTreeSet<(u64, &'static str, &'static str)>,
        halt_on_race: bool,
    }

    /// The happens-before race detector of one simulation.
    ///
    /// Owned by the [`crate::Simulation`] (not global), so concurrently
    /// running simulations in one test binary never observe each other, and
    /// reached through [`crate::Simulation::race_detector`]; every
    /// [`SimContext::access`] of the run records into it. By default a
    /// detected race panics the accessing simulated process — the
    /// simulation then fails with a message naming both access sites, which
    /// turns every integration test compiled with `race-detect` into a
    /// zero-race assertion. Tests that *expect* a race disable halting and
    /// inspect [`RaceDetector::reports`].
    pub struct RaceDetector {
        inner: Mutex<DetectorState>,
    }

    impl fmt::Debug for RaceDetector {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let st = self.inner.lock();
            f.debug_struct("RaceDetector")
                .field("regions", &st.regions.len())
                .field("reports", &st.reports.len())
                .finish()
        }
    }

    fn ranges_overlap(a_off: usize, a_len: usize, b_off: usize, b_len: usize) -> bool {
        a_off < b_off + b_len && b_off < a_off + a_len
    }

    impl RaceDetector {
        /// Creates an empty detector that halts the simulation on a race.
        pub(crate) fn new() -> Self {
            RaceDetector {
                inner: Mutex::new(DetectorState {
                    regions: BTreeMap::new(),
                    reports: Vec::new(),
                    seen: BTreeSet::new(),
                    halt_on_race: true,
                }),
            }
        }

        /// Whether a detected race panics the accessing simulated process
        /// (default `true`). Tests that deliberately seed a race disable
        /// this and assert on [`RaceDetector::reports`] instead.
        pub fn set_halt_on_race(&self, halt: bool) {
            self.inner.lock().halt_on_race = halt;
        }

        /// Records one byte-range access and checks it against the region's
        /// history. `region` is the RDMA rkey; `offset`/`len` are in
        /// elements.
        ///
        /// # Panics
        ///
        /// Panics (failing the simulation with both sites named) if the
        /// access races with a recorded one and halting is enabled.
        pub(crate) fn record(
            &self,
            ctx: &SimContext,
            region: u64,
            offset: usize,
            len: usize,
            kind: AccessKind,
            site: &'static str,
        ) {
            let pid = ctx.pid();
            let clock = ctx.core.vc_stamp(pid);
            let epoch = clock.component(pid);
            let mut halt_msg: Option<String> = None;
            {
                let mut st = self.inner.lock();
                let st = &mut *st;
                let history = st.regions.entry(region).or_default();
                for prev in history.iter() {
                    if prev.pid == pid
                        || !ranges_overlap(prev.offset, prev.len, offset, len)
                        || !prev.kind.conflicts_with(kind)
                        // The epoch test: `prev` happens-before this access
                        // iff its component is contained in our joined clock.
                        || prev.epoch <= clock.component(prev.pid)
                    {
                        continue;
                    }
                    if !st.seen.insert((region, prev.site, site)) {
                        continue;
                    }
                    let report = RaceReport {
                        region,
                        earlier_site: prev.site,
                        earlier_pid: prev.pid,
                        earlier_kind: prev.kind,
                        later_site: site,
                        later_pid: pid,
                        later_kind: kind,
                    };
                    if st.halt_on_race && halt_msg.is_none() {
                        halt_msg = Some(report.to_string());
                    }
                    st.reports.push(report);
                }
                // Prune: an older access by the same process with the same
                // kind/range/site is superseded — anything concurrent with
                // it is also concurrent with the newer access (epochs only
                // grow along one process's timeline), so dropping it loses
                // no races.
                history.retain(|a| {
                    !(a.pid == pid
                        && a.kind == kind
                        && a.offset == offset
                        && a.len == len
                        && a.site == site)
                });
                history.push(Access { pid, kind, offset, len, site, epoch });
            }
            if let Some(msg) = halt_msg {
                panic!("{msg}");
            }
        }

        /// All races reported so far.
        pub fn reports(&self) -> Vec<RaceReport> {
            self.inner.lock().reports.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merged kind's two relations over all 25 ordered pairs:
    /// `commutes_with` ⇔ both sides read-class; `conflicts_with` ⇔ a
    /// write-class side and a plain side.
    #[test]
    fn access_kind_truth_table() {
        use AccessKind::*;
        let kinds = [Read, Write, AtomicRead, AtomicWrite, AtomicRmw];
        let read_class = |k| matches!(k, Read | AtomicRead);
        let plain = |k| matches!(k, Read | Write);
        for a in kinds {
            for b in kinds {
                assert_eq!(a.commutes_with(b), read_class(a) && read_class(b), "{a} / {b}");
                let racy = (!read_class(a) || !read_class(b)) && (plain(a) || plain(b));
                assert_eq!(a.conflicts_with(b), racy, "{a} / {b}");
            }
        }
        // Spot checks, so the table above cannot drift with the helpers.
        assert!(AtomicRead.commutes_with(Read));
        assert!(!AtomicRmw.commutes_with(AtomicRmw) && !AtomicRmw.conflicts_with(AtomicRmw));
        assert!(Read.conflicts_with(AtomicWrite) && !AtomicRead.conflicts_with(AtomicWrite));
        assert!(Write.conflicts_with(AtomicRead) && !Read.conflicts_with(AtomicRead));
    }

    #[cfg(not(feature = "race-detect"))]
    #[test]
    fn edge_is_zero_sized_without_the_detector() {
        assert_eq!(std::mem::size_of::<HbEdge>(), 0);
    }

    /// The detector proper, driven through `ctx.access` like every caller.
    #[cfg(feature = "race-detect")]
    mod detector {
        use crate::channel::SimChannel;
        use crate::{AccessKind, Simulation};

        #[test]
        fn unsynchronized_concurrent_writes_race() {
            let mut sim = Simulation::new();
            let det = sim.race_detector();
            det.set_halt_on_race(false);
            for i in 0..2 {
                sim.spawn(&format!("w{i}"), move |ctx| {
                    ctx.access(7, 0, 4, AccessKind::Write, "test::write");
                });
            }
            sim.run();
            let reports = det.reports();
            assert_eq!(reports.len(), 1, "{reports:?}");
            assert_eq!(reports[0].region, 7);
            assert_eq!(reports[0].earlier_site, "test::write");
            assert_eq!(reports[0].later_site, "test::write");
        }

        #[test]
        fn channel_edge_orders_accesses() {
            let ch: SimChannel<()> = SimChannel::new("sync");
            let mut sim = Simulation::new();
            let det = sim.race_detector();
            let tx = ch.clone();
            sim.spawn("producer", move |ctx| {
                ctx.access(1, 0, 8, AccessKind::Write, "test::produce");
                tx.send(&ctx, ());
            });
            sim.spawn("consumer", move |ctx| {
                ch.recv(&ctx);
                ctx.access(1, 0, 8, AccessKind::Write, "test::consume");
            });
            sim.run();
            assert!(det.reports().is_empty(), "{:?}", det.reports());
        }

        #[test]
        fn spawn_edge_orders_parent_and_child() {
            let mut sim = Simulation::new();
            let det = sim.race_detector();
            sim.spawn("parent", move |ctx| {
                ctx.access(2, 0, 4, AccessKind::Write, "test::parent");
                ctx.spawn("child", move |cctx| {
                    cctx.access(2, 0, 4, AccessKind::Write, "test::child");
                });
            });
            sim.run();
            assert!(det.reports().is_empty(), "{:?}", det.reports());
        }

        #[test]
        fn disjoint_ranges_do_not_race() {
            let mut sim = Simulation::new();
            let det = sim.race_detector();
            for i in 0..2usize {
                sim.spawn(&format!("w{i}"), move |ctx| {
                    ctx.access(3, i * 4, 4, AccessKind::Write, "test::slot");
                });
            }
            sim.run();
            assert!(det.reports().is_empty(), "{:?}", det.reports());
        }

        #[test]
        fn engine_serialized_rmws_do_not_race() {
            let mut sim = Simulation::new();
            let det = sim.race_detector();
            for i in 0..3 {
                sim.spawn(&format!("w{i}"), move |ctx| {
                    ctx.access(4, 0, 16, AccessKind::AtomicRmw, "test::accumulate");
                });
            }
            sim.run();
            assert!(det.reports().is_empty(), "{:?}", det.reports());
        }

        #[test]
        #[should_panic(expected = "data race")]
        fn halting_detector_fails_the_simulation() {
            let mut sim = Simulation::new();
            for i in 0..2 {
                sim.spawn(&format!("w{i}"), move |ctx| {
                    ctx.access(5, 0, 4, AccessKind::Write, "test::write");
                });
            }
            sim.run();
        }
    }
}
