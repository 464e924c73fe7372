//! Timing oracle for the collectives: the virtual instant, in ns, at which
//! every rank returns from each `allreduce_wire` and `barrier` of one
//! seeded sequence, for 2, 3, 5 and 8 ranks in three layouts (all ranks on
//! one node, four per node, one per node). Any change to wire pricing,
//! send order or the order of same-instant grants moves it.

use parking_lot::Mutex;
use shmcaffe_mpi::MpiWorld;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, Simulation};
use std::sync::Arc;

/// Element count and modelled wire size, neither a multiple of any rank
/// count, so the chunks are uneven and the per-chunk wire size truncates.
const ELEMS: usize = 37;
const WIRE: u64 = 10_000_019;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Every rank on node 0: all traffic on its PCIe bus.
    Packed,
    /// The paper's layout, four ranks per node.
    Paper,
    /// One rank per node: all traffic over the HCAs.
    Spread,
}

fn world(layout: Layout, ranks: usize) -> MpiWorld {
    match layout {
        Layout::Packed => MpiWorld::with_layout(
            Fabric::new(ClusterSpec::paper_testbed(1)),
            vec![NodeId(0); ranks],
        ),
        Layout::Paper => {
            MpiWorld::new(Fabric::new(ClusterSpec::paper_testbed(ranks.div_ceil(4))), ranks)
        }
        Layout::Spread => MpiWorld::with_layout(
            Fabric::new(ClusterSpec::paper_testbed(ranks)),
            (0..ranks).map(NodeId).collect(),
        ),
    }
}

/// Per rank: the return instants of an all-reduce entered by every rank at
/// t = 0 (every ring step a same-instant tie, the last rank waking rank 0
/// included), a barrier, an all-reduce entered with a per-rank stagger and
/// a second barrier entered with another.
fn returns(layout: Layout, ranks: usize) -> Vec<[u64; 4]> {
    let world = world(layout, ranks);
    let out = Arc::new(Mutex::new(vec![[0u64; 4]; ranks]));
    let mut sim = Simulation::new();
    for rank in 0..ranks {
        let mut comm = world.comm(rank);
        let out = Arc::clone(&out);
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let mine = |round: usize| -> Vec<f32> {
                (0..ELEMS).map(|i| (rank * ELEMS + i + round) as f32 * 0.25).collect()
            };
            let mut at = [0u64; 4];
            let sum = comm.allreduce_wire(&ctx, mine(0), WIRE);
            at[0] = ctx.now().as_nanos();
            comm.barrier(&ctx);
            at[1] = ctx.now().as_nanos();
            ctx.sleep(SimDuration::from_nanos((rank as u64 * 7_919) % 13_001));
            let sum2 = comm.allreduce_wire(&ctx, mine(1), WIRE);
            at[2] = ctx.now().as_nanos();
            ctx.sleep(SimDuration::from_nanos((rank as u64 * 104_729) % 50_021));
            comm.barrier(&ctx);
            at[3] = ctx.now().as_nanos();
            for (round, got) in [(0, sum), (1, sum2)] {
                for (i, v) in got.iter().enumerate() {
                    let want: f32 =
                        (0..comm.size()).map(|r| (r * ELEMS + i + round) as f32 * 0.25).sum();
                    assert!((v - want).abs() < 1e-2, "rank {rank} elem {i}: {v} vs {want}");
                }
            }
            out.lock()[rank] = at;
        });
    }
    sim.run();
    let got = out.lock().clone();
    got
}

#[test]
fn collective_return_times_match_the_parent_capture() {
    let mut mismatches = Vec::new();
    for &(layout, ranks, want) in GOLDEN {
        let got = returns(layout, ranks);
        assert_eq!(returns(layout, ranks), got, "{layout:?} x{ranks} does not replay");
        if got != want {
            mismatches.push(format!("    (Layout::{layout:?}, {ranks}, &{got:?}),"));
        }
    }
    assert!(mismatches.is_empty(), "return times moved; observed rows:\n{}", mismatches.join("\n"));
}

/// `(layout, ranks, per-rank [allreduce, barrier, allreduce, barrier]
/// return ns)`.
#[rustfmt::skip]
const GOLDEN: &[(Layout, usize, &[[u64; 4]])] = &[
    (Layout::Packed, 2, &[
        [1668668, 1670670, 3339338, 3346027],
        [1668668, 1670670, 3339338, 3346027],
    ]),
    (Layout::Paper, 2, &[
        [1668668, 1670670, 3339338, 3346027],
        [1668668, 1670670, 3339338, 3346027],
    ]),
    (Layout::Spread, 2, &[
        [1432574, 1436576, 2877069, 2885758],
        [1432574, 1436576, 2877069, 2885758],
    ]),
    (Layout::Packed, 3, &[
        [3334336, 3337339, 6393897, 6684052],
        [3056558, 3336338, 6671675, 6683051],
        [3334336, 3337339, 6671675, 6684052],
    ]),
    (Layout::Paper, 3, &[
        [3334336, 3337339, 6393897, 6684052],
        [3056558, 3336338, 6671675, 6683051],
        [3334336, 3337339, 6671675, 6684052],
    ]),
    (Layout::Spread, 3, &[
        [1912764, 1918768, 3837450, 3852827],
        [1912764, 1916767, 3837450, 3850826],
        [1912764, 1918768, 3837450, 3852827],
    ]),
    (Layout::Packed, 5, &[
        [6501013, 6672686, 13340366, 13350058],
        [6667680, 6669683, 13340366, 13347055],
        [6667680, 6670684, 12840365, 13348056],
        [6167679, 6671685, 13007032, 13349057],
        [6334346, 6672686, 13173699, 13350058],
    ]),
    (Layout::Paper, 5, &[
        [3667674, 4007014, 7674523, 8027923],
        [3834341, 4003011, 7841190, 8023920],
        [4001008, 4004012, 8007857, 8024921],
        [4001008, 4005013, 8007857, 8025922],
        [3788722, 4007014, 7795571, 8027923],
    ]),
    (Layout::Spread, 5, &[
        [2301720, 2311728, 4622203, 4650956],
        [2301720, 2305725, 4622203, 4644953],
        [2301720, 2307726, 4622203, 4646954],
        [2301720, 2309727, 4622203, 4648955],
        [2301720, 2311728, 4622203, 4650956],
    ]),
    (Layout::Packed, 8, &[
        [11251036, 12195382, 22924583, 23372694],
        [11355203, 11669707, 23028750, 23366688],
        [11459370, 11670708, 23132917, 23367689],
        [11563537, 11671709, 23237084, 23368690],
        [11667704, 11672710, 23341251, 23369691],
        [11667704, 11673711, 23341251, 23370692],
        [11042702, 11778713, 22716249, 23371693],
        [11146869, 12195382, 22820416, 23372694],
    ]),
    (Layout::Paper, 8, &[
        [4244085, 4389023, 8629698, 8807444],
        [4271847, 4379017, 8654702, 8797438],
        [4376014, 4380018, 8758869, 8798439],
        [4376014, 4381019, 8758869, 8799440],
        [4244085, 4383020, 8626940, 8801441],
        [4271847, 4385021, 8657460, 8803442],
        [4376014, 4387022, 8761627, 8805443],
        [4376014, 4389023, 8761627, 8807444],
    ]),
    (Layout::Spread, 8, &[
        [2528008, 2544022, 5078540, 5127357],
        [2528008, 2532016, 5078540, 5115351],
        [2528008, 2534017, 5078540, 5117352],
        [2528008, 2536018, 5078540, 5119353],
        [2528008, 2538019, 5078540, 5121354],
        [2528008, 2540020, 5078540, 5123355],
        [2528008, 2542021, 5078540, 5125356],
        [2528008, 2544022, 5078540, 5127357],
    ]),
];
