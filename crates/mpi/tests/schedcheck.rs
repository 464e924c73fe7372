//! Schedule-space model checking of the MPI collectives with the simnet
//! `schedcheck` explorer (`Simulation::explore`, DESIGN.md §5i).
//!
//! `allreduce_wire`, `broadcast_wire` and `barrier` each run over 2, 3 and
//! 4 ranks, packed on one node (PCIe hops) and spread one rank per node
//! (HCA hops). Every tie, wake and delivery ordering is explored, with
//! and without DPOR pruning — to exhaustion, except for the ring
//! all-reduce over three or more nodes (see [`bounds`]) — and under every
//! explored schedule every rank must return bit-equal results: the same
//! bits on every rank and in every schedule.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use shmcaffe_mpi::{Comm, MpiData, MpiWorld};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{AccessKind, ExploreBounds, SimContext, SimDuration, Simulation};

/// Elements per rank: not a multiple of any rank count, so the ring's
/// chunks differ in length.
const ELEMS: usize = 11;
/// Logical wire size of the full vector: large enough that every hop
/// takes time, so ranks meet at ties.
const WIRE: u64 = 4096;
/// Region id of the barrier's entry count in the access record.
const ENTERED: u64 = 0xBA22;
/// Schedule budget per exploration; certification fails if a search
/// needs more.
const BUDGET: usize = 2048;

#[derive(Debug, Clone, Copy)]
enum Collective {
    Allreduce,
    Broadcast,
    Barrier,
}

/// Rank `r`'s contribution: fractional values, so a reordered sum would
/// show in the bits.
fn contribution(rank: usize) -> Vec<f32> {
    (0..ELEMS).map(|i| (rank * ELEMS + i) as f32 * 0.1 + 0.05).collect()
}

/// One rank's part of `op`, returned as the bits it ends with. A barrier
/// returns how many ranks had entered it when this one left.
fn run_rank(ctx: &SimContext, comm: &mut Comm, op: Collective, entered: &Mutex<usize>) -> Vec<u32> {
    let rank = comm.rank();
    let values = match op {
        Collective::Allreduce => comm.allreduce_wire(ctx, contribution(rank), WIRE),
        Collective::Broadcast => {
            let root = 1;
            let data = (rank == root).then(|| MpiData::F32s(contribution(root)));
            comm.broadcast_wire(ctx, root, data, WIRE).into_f32s()
        }
        Collective::Barrier => {
            // Arrivals staggered by rank parity: pairs of ranks tie. The
            // count is annotated so the pruner sees who touched it.
            ctx.sleep(SimDuration::from_micros(10 * (rank % 2) as u64));
            ctx.access(ENTERED, 0, 1, AccessKind::AtomicRmw, "barrier.entered");
            *entered.lock() += 1;
            comm.barrier(ctx);
            ctx.access(ENTERED, 0, 1, AccessKind::AtomicRead, "barrier.entered");
            vec![*entered.lock() as f32]
        }
    };
    values.iter().map(|v| v.to_bits()).collect()
}

/// The model: `ranks` processes run `op`, each leaving its bits in its own
/// slot. After each explored run the state probe files every rank's bits
/// into `outcomes` — one entry per distinct outcome over all schedules.
fn model(
    op: Collective,
    ranks: usize,
    packed: bool,
    outcomes: &Arc<Mutex<BTreeSet<Vec<Vec<u32>>>>>,
) -> impl Fn(&mut Simulation) {
    let outcomes = Arc::clone(outcomes);
    move |sim: &mut Simulation| {
        let layout = (0..ranks).map(|r| NodeId(if packed { 0 } else { r })).collect();
        let world = MpiWorld::with_layout(Fabric::new(ClusterSpec::paper_testbed(ranks)), layout);
        let slots = Arc::new(Mutex::new(vec![Vec::new(); ranks]));
        let entered = Arc::new(Mutex::new(0usize));
        for rank in 0..ranks {
            let mut comm = world.comm(rank);
            let (slots, entered) = (Arc::clone(&slots), Arc::clone(&entered));
            sim.spawn(&format!("rank{rank}"), move |ctx| {
                let bits = run_rank(&ctx, &mut comm, op, &entered);
                slots.lock()[rank] = bits;
            });
        }
        let outcomes = Arc::clone(&outcomes);
        // The outcome is checked across schedules, not hashed: finish
        // times may differ where results may not.
        sim.set_state_probe(move || {
            outcomes.lock().insert(slots.lock().clone());
            0
        });
    }
}

/// What a finished collective must agree on, up to f32 rounding for the
/// sum (its bits are pinned by the one-outcome requirement).
fn check_value(op: Collective, ranks: usize, bits: &[u32]) {
    let got: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    match op {
        Collective::Allreduce => {
            let want: Vec<f32> =
                (0..ELEMS).map(|i| (0..ranks).map(|r| contribution(r)[i]).sum()).collect();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-4, "allreduce over {ranks}: {g} vs {w}");
            }
            assert_eq!(got.len(), ELEMS);
        }
        Collective::Broadcast => assert_eq!(got, contribution(1)),
        Collective::Barrier => assert_eq!(got, vec![ranks as f32]),
    }
}

/// The search for one case. A ring all-reduce over three or more ranks
/// on separate nodes ties every rank at every step, and each rank's step
/// touches both neighbours' mailboxes, so its schedule space outgrows a
/// test's budget (124 416 schedules unpruned at three ranks; over 300 000
/// pruned at four); it is searched to two preemptions instead. Every other
/// case is searched exhaustively.
fn bounds(op: Collective, ranks: usize, packed: bool, prune_independent: bool) -> ExploreBounds {
    let bounds = if matches!(op, Collective::Allreduce) && !packed && ranks >= 3 {
        ExploreBounds { max_preemptions: 2, ..ExploreBounds::exhaustive(BUDGET) }
    } else {
        ExploreBounds::exhaustive(BUDGET)
    };
    ExploreBounds { prune_independent, ..bounds }
}

#[test]
fn collectives_give_bit_equal_results_under_every_schedule() {
    for op in [Collective::Allreduce, Collective::Broadcast, Collective::Barrier] {
        for ranks in [2, 3, 4] {
            for packed in [true, false] {
                let case = format!("{op:?} over {ranks} ranks, packed {packed}");
                let outcomes = Arc::new(Mutex::new(BTreeSet::new()));
                let mut explored = Vec::new();
                for prune_independent in [true, false] {
                    let bounds = bounds(op, ranks, packed, prune_independent);
                    let exhaustive = bounds.max_preemptions == usize::MAX;
                    let report = Simulation::explore(&bounds, model(op, ranks, packed, &outcomes));
                    let case = format!("{case}, pruning {prune_independent}: {report:?}");
                    assert!(report.failure.is_none(), "{case}");
                    if exhaustive {
                        assert!(report.certified(), "{case}");
                    } else {
                        assert!(
                            report.schedules < BUDGET,
                            "only the preemption bound cuts: {case}"
                        );
                    }
                    explored.push(report.schedules);
                }
                let outcomes = outcomes.lock();
                assert_eq!(outcomes.len(), 1, "{case}: schedules disagree: {:?}", *outcomes);
                let all = outcomes.first().expect("one outcome");
                for (rank, bits) in all.iter().enumerate() {
                    assert_eq!(bits, &all[0], "{case}: rank {rank} disagrees with rank 0");
                }
                check_value(op, ranks, &all[0]);
                println!(
                    "schedcheck mpi {case}: {} schedules pruned, {} unpruned",
                    explored[0], explored[1]
                );
            }
        }
    }
}
