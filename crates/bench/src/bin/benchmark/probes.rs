//! Layer probes: direct calls into one layer at a time, on one thread.
//!
//! A probe that blocks in virtual time runs as the only busy process of
//! its own simulation, so its host interval holds the cost of everything
//! the call triggers (helper processes, scheduler hand-offs) and nothing
//! else. Probe values do not depend on the workload being traced.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use shmcaffe::seasgd::{ElasticExchanger, SeasgdBuffers};
use shmcaffe::trainer::{ModeledTrainerFactory, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_collectives::IntraNodeGroup;
use shmcaffe_dnn::data::{Dataset, SyntheticImages};
use shmcaffe_dnn::{Solver, SolverConfig};
use shmcaffe_models::{proxies, CnnModel, WorkloadModel};
use shmcaffe_mpi::MpiWorld;
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::channel::SimChannel;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimContext, SimDuration, Simulation};
use shmcaffe_smb::crc::crc32c_f32;
use shmcaffe_smb::{RetryPolicy, SmbClient, SmbPair, SmbServer, SmbServerConfig};
use shmcaffe_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeometry};
use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::ops::{axpy, elastic_mix};

use crate::workloads::{Sizes, Values};

/// Runs every layer probe and returns its metrics.
pub fn run(sizes: &Sizes) -> Values {
    let (reps, elems) = (sizes.probe_reps, sizes.probe_elems);
    let mut v = Values::new();
    tensor(&mut v, reps, elems);
    dnn_solver(&mut v, reps);
    smb_ops(&mut v, reps, elems, true);
    smb_ops(&mut v, reps, elems, false);
    smb_integrity(&mut v, reps, elems);
    rdma(&mut v, reps, elems);
    simnet(&mut v, reps);
    allreduce(&mut v, reps);
    exchange(&mut v, reps);
    // Growths belong to warm-up; a steady-state kernel change that starts
    // allocating shows as a larger count.
    v.insert("tensor.workspace_growths", shmcaffe_tensor::workspace::growth_count() as f64);
    v
}

/// Host seconds per call of `f`, after one warm-up call.
fn time_host(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Runs `body` as the only process of a simulation and returns its result.
fn solo<R: Send + 'static>(body: impl FnOnce(&SimContext) -> R + Send + 'static) -> R {
    let out = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&out);
    let mut sim = Simulation::new();
    sim.spawn("probe", move |ctx| *sink.lock() = Some(body(&ctx)));
    sim.run();
    let result = out.lock().take();
    result.expect("the probe process ran to completion")
}

/// Host and virtual microseconds per call of `op` inside a simulation,
/// after one warm-up call.
fn time_op(ctx: &SimContext, reps: usize, mut op: impl FnMut()) -> (f64, f64) {
    op();
    let (host, virt) = (Instant::now(), ctx.now());
    for _ in 0..reps {
        op();
    }
    let per = |total_us: f64| total_us / reps as f64;
    (per(host.elapsed().as_secs_f64() * 1e6), per((ctx.now() - virt).as_secs_f64() * 1e6))
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i % 13) as f32 * 0.25 - 1.0).collect()
}

/// Kernel throughput at the proxy net's stem shapes (3x32x32 input, 3x3
/// kernels, 8 filters, batch 16) and at the SMB probe buffer size (1 MiB).
fn tensor(v: &mut Values, reps: usize, elems: usize) {
    let bytes = (elems * 4) as f64;
    let reps = reps * 8;
    let (batch, out_c) = (16, 8);
    let geom = Conv2dGeometry::square(3, 32, 3, 1, 1);
    let (k, spatial) = (geom.col_rows(), 32 * 32);
    let input = ramp(batch * geom.in_len());
    let weights = ramp(out_c * k);
    let bias = ramp(out_c);
    let mut output = vec![0.0f32; batch * out_c * spatial];
    let conv_flops = (2 * batch * out_c * k * spatial) as f64;

    let a = ramp(out_c * k);
    let b = ramp(k * spatial);
    let mut c = vec![0.0f32; out_c * spatial];
    let s = time_host(reps, || {
        gemm(Transpose::No, Transpose::No, out_c, spatial, k, 1.0, &a, &b, 0.0, &mut c);
        black_box(&c);
    });
    v.insert("tensor.gemm_gflops", (2 * out_c * k * spatial) as f64 / s / 1e9);

    let s = time_host(reps, || {
        conv2d_forward(&geom, batch, out_c, &input, &weights, &bias, &mut output);
        black_box(&output);
    });
    v.insert("tensor.conv_fwd_gflops", conv_flops / s / 1e9);

    let d_output = ramp(output.len());
    let mut d_weights = vec![0.0f32; weights.len()];
    let mut d_bias = vec![0.0f32; out_c];
    let mut d_input = vec![0.0f32; input.len()];
    let s = time_host(reps, || {
        conv2d_backward(
            &geom,
            batch,
            out_c,
            &input,
            &weights,
            &d_output,
            &mut d_weights,
            &mut d_bias,
            &mut d_input,
        );
        black_box(&d_input);
    });
    // dW and dX are one GEMM each of the forward's size.
    v.insert("tensor.conv_bwd_gflops", 2.0 * conv_flops / s / 1e9);

    let x = ramp(elems);
    let mut y = ramp(elems);
    let s = time_host(reps, || {
        axpy(0.5, &x, &mut y);
        black_box(&y);
    });
    v.insert("tensor.axpy_gbps", 3.0 * bytes / s / 1e9);

    let mut wx = ramp(elems);
    let mut dw = vec![0.0f32; elems];
    let s = time_host(reps, || {
        elastic_mix(0.2, &mut wx, &mut dw, &x);
        black_box(&dw);
    });
    v.insert("tensor.elastic_mix_gbps", 4.0 * bytes / s / 1e9);
}

/// One solver update of the proxy net after a real backward pass.
fn dnn_solver(v: &mut Values, reps: usize) {
    let data = SyntheticImages::new(4, 3, 32, 16, 0.5, 1);
    let net = proxies::mini_inception(3, 32, 4, 1).expect("proxy geometry fits");
    let mut solver = Solver::new(net, SolverConfig::default());
    let (x, labels) = data.minibatch(&(0..16).collect::<Vec<_>>()).expect("indices in range");
    solver.compute_gradients(&x, &labels).expect("shapes match");
    let s = time_host(reps * 8, || solver.apply_update());
    v.insert("dnn.solver_update_host_ms", s * 1e3);
}

/// The SMB client's op matrix from a single client, 1 MiB buffers, with
/// the CRC page grid on (`paged`) or off.
fn smb_ops(v: &mut Values, reps: usize, elems: usize, paged: bool) {
    let timings = solo(move |ctx| {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let config =
            SmbServerConfig { page_elems: if paged { 4096 } else { 0 }, ..Default::default() };
        let server = SmbServer::with_config(rdma, config).expect("a memory server is attached");
        let client = SmbClient::new(server, NodeId(0));
        let make = |name: &str| {
            let key = client.create(ctx, name, elems, None).expect("fresh server");
            client.alloc(ctx, key).expect("key just created")
        };
        let (src, dst) = (make("src"), make("dst"));
        let data = ramp(elems);
        let mut buf = vec![0.0f32; elems];
        let retry = RetryPolicy::with_seed(1);
        let chunk = elems / 16;
        let ok = "probe ops on live segments succeed";
        // (host metric, virtual metric, (host us, virtual us)) per op.
        let mut out = vec![
            (
                if paged { "smb.write_host_us" } else { "smb.write_unpaged_host_us" },
                "smb.write_virt_us",
                time_op(ctx, reps, || client.write(ctx, &src, &data).expect(ok)),
            ),
            (
                if paged { "smb.read_host_us" } else { "smb.read_unpaged_host_us" },
                "smb.read_virt_us",
                time_op(ctx, reps, || client.read(ctx, &src, &mut buf).expect(ok)),
            ),
            (
                if paged { "smb.accumulate_host_us" } else { "smb.accumulate_unpaged_host_us" },
                "smb.accumulate_virt_us",
                time_op(ctx, reps, || {
                    client.accumulate(ctx, &src, &dst).expect(ok);
                }),
            ),
        ];
        if !paged {
            return out;
        }
        // The chunked exchange's tile-sized range ops.
        out.push((
            "smb.read_range_host_us",
            "smb.read_range_virt_us",
            time_op(ctx, reps, || {
                client.read_range_retrying(ctx, &src, chunk, &mut buf[..chunk], &retry).expect(ok);
            }),
        ));
        out.push((
            "smb.write_range_host_us",
            "smb.write_range_virt_us",
            time_op(ctx, reps, || {
                client.write_range_retrying(ctx, &src, chunk, &data[..chunk], &retry).expect(ok);
            }),
        ));
        out.push((
            "smb.accumulate_range_host_us",
            "smb.accumulate_range_virt_us",
            time_op(ctx, reps, || {
                client.accumulate_range_retrying(ctx, &src, &dst, chunk, chunk, &retry).expect(ok);
            }),
        ));
        out.push((
            "smb.checkpoint_write_host_us",
            "smb.checkpoint_write_virt_us",
            time_op(ctx, reps, || client.checkpoint_write(ctx, &dst, &data, &retry).expect(ok)),
        ));
        out
    });
    for (host_name, virt_name, (host_us, virt_us)) in timings {
        v.insert(host_name, host_us);
        // Virtual time does not depend on the CRC grid: report it once.
        if paged {
            v.insert(virt_name, virt_us);
        }
    }
}

/// CRC throughput, page verification, one scrub pass and one replication
/// pass over a pair holding two dirty 1 MiB segments.
fn smb_integrity(v: &mut Values, reps: usize, elems: usize) {
    let bytes = (elems * 4) as f64;
    let data = ramp(elems);
    let s = time_host(reps * 8, || {
        black_box(crc32c_f32(black_box(&data)));
    });
    v.insert("smb.crc32c_gbps", bytes / s / 1e9);

    let [verify, scrub, replicate] = solo(move |ctx| {
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
        let rdma = RdmaFabric::new(Fabric::new(spec));
        let config = SmbServerConfig { page_elems: 4096, ..Default::default() };
        let pair = SmbPair::new(rdma, config).expect("two memory servers are attached");
        let client = SmbClient::with_failover(pair.clone(), NodeId(0));
        let data = ramp(elems);
        let bufs: Vec<_> = ["a", "b"]
            .iter()
            .map(|name| {
                let key = client.create(ctx, name, elems, None).expect("fresh server");
                client.alloc(ctx, key).expect("key just created")
            })
            .collect();
        let primary = pair.primary().clone();
        let verify = time_op(ctx, reps, || {
            primary.verify_region(ctx, bufs[0].key, 0, elems).expect("no corruption injected");
        });
        let scrub = time_op(ctx, reps, || {
            primary.scrub_pass(ctx);
        });
        // Dirty both segments before every pass so each pass ships 2 MiB.
        let mut passes = (0.0, 0.0);
        for _ in 0..reps {
            for b in &bufs {
                client.write(ctx, b, &data).expect("sizes match");
            }
            let (host, virt) = (Instant::now(), ctx.now());
            pair.replicate(ctx).expect("the pair is healthy");
            passes.0 += host.elapsed().as_secs_f64() * 1e6 / reps as f64;
            passes.1 += (ctx.now() - virt).as_secs_f64() * 1e6 / reps as f64;
        }
        [verify, scrub, passes]
    });
    v.insert("smb.verify_region_host_us", verify.0);
    v.insert("smb.scrub_pass_host_us", scrub.0);
    v.insert("smb.replicate_host_us", replicate.0);
    v.insert("smb.replicate_virt_us", replicate.1);
}

/// Raw verbs at 1 MiB between a GPU node and the memory server.
fn rdma(v: &mut Values, reps: usize, elems: usize) {
    let fabric = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
    let mem = fabric.fabric().memory_server().expect("the testbed has a memory server");
    let f = fabric.clone();
    let s = time_host(reps * 4, || {
        let mr = f.register(mem, elems).expect("the node exists");
        black_box(f.deregister(&mr).expect("just registered"));
    });
    v.insert("rdma.register_host_us", s * 1e6);

    let (read, write) = solo(move |ctx| {
        let mr = fabric.register(mem, elems).expect("the node exists");
        let data = ramp(elems);
        let mut buf = vec![0.0f32; elems];
        let read = time_op(ctx, reps, || {
            fabric.read(ctx, NodeId(0), &mr, 0, &mut buf).expect("in bounds");
        });
        let write = time_op(ctx, reps, || {
            fabric.write(ctx, NodeId(0), &mr, 0, &data).expect("in bounds");
        });
        (read, write)
    });
    v.insert("rdma.read_host_us", read.0);
    v.insert("rdma.read_wire_virt_us", read.1);
    v.insert("rdma.write_host_us", write.0);
    v.insert("rdma.write_wire_virt_us", write.1);
}

/// Engine micro-costs, after `benches/fabric_engine.rs`: scheduler switches
/// with 2, 8 and 16 runnable processes, a channel ping-pong, and transfers
/// on a link eight processes contend for.
fn simnet(v: &mut Values, reps: usize) {
    let sleeps = 250 * reps;
    for (procs, name) in [
        (2, "simnet.host_us_per_switch.p2"),
        (8, "simnet.host_us_per_switch.p8"),
        (16, "simnet.host_us_per_switch.p16"),
    ] {
        let per_proc = sleeps / procs;
        let start = Instant::now();
        let mut sim = Simulation::new();
        for i in 0..procs {
            sim.spawn(&format!("p{i}"), move |ctx| {
                for _ in 0..per_proc {
                    ctx.sleep(SimDuration::from_micros(1));
                }
            });
        }
        sim.run();
        v.insert(name, start.elapsed().as_secs_f64() * 1e6 / (per_proc * procs) as f64);
    }

    let rounds = 60 * reps;
    let start = Instant::now();
    let mut sim = Simulation::new();
    let ping: SimChannel<u32> = SimChannel::new("ping");
    let pong: SimChannel<u32> = SimChannel::new("pong");
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn("a", move |ctx| {
        for i in 0..rounds {
            ping.send(&ctx, i as u32);
            pong.recv(&ctx);
        }
    });
    sim.spawn("b", move |ctx| {
        for _ in 0..rounds {
            ping2.recv(&ctx);
            pong2.send(&ctx, 0);
        }
    });
    sim.run();
    v.insert("simnet.host_us_per_msg", start.elapsed().as_secs_f64() * 1e6 / (2 * rounds) as f64);

    let per_proc = 12 * reps;
    let start = Instant::now();
    let mut sim = Simulation::new();
    let link = BandwidthResource::new("l", LinkModel::new(7e9, SimDuration::from_micros(2)));
    for i in 0..8 {
        let l = link.clone();
        sim.spawn(&format!("w{i}"), move |ctx| {
            for _ in 0..per_proc {
                l.transfer(&ctx, 1_000_000);
            }
        });
    }
    sim.run();
    v.insert(
        "simnet.host_us_per_transfer",
        start.elapsed().as_secs_f64() * 1e6 / (8 * per_proc) as f64,
    );
}

/// Ring all-reduce of an Inception_v1-sized gradient (53.5 MB on the wire,
/// 4096 physical elements): 8 MPI ranks over 2 nodes, and a 4-GPU NCCL
/// ring on one node's PCIe bus. Host cost is per collective, all ranks.
fn allreduce(v: &mut Values, reps: usize) {
    let wire = CnnModel::InceptionV1.param_bytes();
    let elems = WorkloadModel::DEFAULT_PARAM_ELEMS;

    let fabric = Fabric::new(ClusterSpec { memory_servers: 0, ..ClusterSpec::paper_testbed(2) });
    let world = MpiWorld::new(fabric, 8);
    let start = Instant::now();
    let mut sim = Simulation::new();
    for rank in 0..8 {
        let mut comm = world.comm(rank);
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let mut data = vec![1.0f32; elems];
            for _ in 0..reps {
                data = comm.allreduce_wire(&ctx, data, wire);
            }
            black_box(data);
        });
    }
    let wall = sim.run();
    v.insert("mpi.allreduce_virt_ms", wall.as_millis_f64() / reps as f64);
    v.insert("mpi.allreduce_host_us", start.elapsed().as_secs_f64() * 1e6 / reps as f64);

    let clique = IntraNodeGroup::new(Fabric::new(ClusterSpec::paper_testbed(1)), NodeId(0), 4);
    let start = Instant::now();
    let mut sim = Simulation::new();
    for gpu in 0..4 {
        let mut comm = clique.comm(gpu);
        sim.spawn(&format!("g{gpu}"), move |ctx| {
            let mut data = vec![1.0f32; elems];
            for _ in 0..reps {
                data = comm.all_reduce_wire(&ctx, data, wire);
            }
            black_box(data);
        });
    }
    let wall = sim.run();
    v.insert("collectives.ring_allreduce_virt_ms", wall.as_millis_f64() / reps as f64);
    v.insert(
        "collectives.ring_allreduce_host_us",
        start.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );
}

/// Host cost of one SEASGD exchange of a modelled Inception_v1: a single
/// worker in a benchmark-owned loop, so the interval covers the worker,
/// its lane reader and update thread, and their hand-offs.
fn exchange(v: &mut Values, reps: usize) {
    let host_us = solo(move |ctx| {
        let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
        let server = SmbServer::new(rdma).expect("a memory server is attached");
        let client = SmbClient::new(server, NodeId(0));
        let factory = ModeledTrainerFactory::new(
            WorkloadModel::from_cnn(CnnModel::InceptionV1),
            JitterModel::NONE,
            1,
        );
        let mut trainer = factory.make(0, 1);
        let (elems, wire) =
            (WorkloadModel::DEFAULT_PARAM_ELEMS, CnnModel::InceptionV1.param_bytes());
        let make = |name: &str| {
            let key = client.create(ctx, name, elems, Some(wire)).expect("fresh server");
            client.alloc(ctx, key).expect("key just created")
        };
        let buffers = SeasgdBuffers { wg: make("W_g"), dw: make("dW_0") };
        let cfg = ShmCaffeConfig::default();
        let mut exchanger =
            ElasticExchanger::spawn(ctx, client, buffers, elems, wire, &cfg, "probe");
        let (host_us, _) = time_op(ctx, reps * 2, || {
            exchanger.exchange(ctx, &mut trainer).expect("fault-free exchange");
        });
        exchanger.finish(ctx);
        host_us
    });
    v.insert("seasgd.exchange_host_us", host_us);
}
