//! Microbenchmarks of the virtual-time engine: context-switch throughput,
//! channel ping-pong and contended-link transfers. These measure the cost
//! of the *simulator itself* (real wall-clock), which bounds how large a
//! cluster/iteration count the timing experiments can sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::{SimDuration, Simulation};

/// 1024 one-microsecond sleeps split evenly over `procs` processes: the same
/// number of scheduler switches at every count, so the per-switch host cost
/// is flat in the process count exactly when a grant wakes one thread.
fn bench_scheduler_switches(c: &mut Criterion) {
    for procs in [2u64, 8, 16, 32, 64] {
        c.bench_function(&format!("sim_1024_sleeps_{procs}_procs"), |b| {
            b.iter(|| {
                let mut sim = Simulation::new();
                for i in 0..procs {
                    sim.spawn(&format!("p{i}"), move |ctx| {
                        for _ in 0..1024 / procs {
                            ctx.sleep(SimDuration::from_micros(1));
                        }
                    });
                }
                sim.run()
            });
        });
    }
}

fn bench_channel_pingpong(c: &mut Criterion) {
    c.bench_function("sim_channel_pingpong_500", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let ping: SimChannel<u32> = SimChannel::new("ping");
            let pong: SimChannel<u32> = SimChannel::new("pong");
            let (ping2, pong2) = (ping.clone(), pong.clone());
            sim.spawn("a", move |ctx| {
                for i in 0..500 {
                    ping.send(&ctx, i);
                    pong.recv(&ctx);
                }
            });
            sim.spawn("b", move |ctx| {
                for _ in 0..500 {
                    ping2.recv(&ctx);
                    pong2.send(&ctx, 0);
                }
            });
            sim.run()
        });
    });
}

fn bench_contended_link(c: &mut Criterion) {
    c.bench_function("sim_contended_link_8x100", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let link =
                BandwidthResource::new("l", LinkModel::new(7e9, SimDuration::from_micros(2)));
            for i in 0..8 {
                let l = link.clone();
                sim.spawn(&format!("w{i}"), move |ctx| {
                    for _ in 0..100 {
                        l.transfer(&ctx, 1_000_000);
                    }
                });
            }
            sim.run()
        });
    });
}

criterion_group!(benches, bench_scheduler_switches, bench_channel_pingpong, bench_contended_link);
criterion_main!(benches);
