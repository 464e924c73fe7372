//! Proves the steady-state convolution forward + backward path performs
//! **zero heap allocations** once the workspace arenas are warm.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass over a realistic layer, the test snapshots the *calling
//! thread's* allocation counter, runs several full forward + backward
//! iterations at one thread, and asserts the counter did not move. The
//! counter is per thread because the test harness runs this file's tests
//! concurrently in one process: a process-global count would also see the
//! sibling test's four pool workers boxing closures. (In parallel mode the
//! task dispatch itself boxes closures, so the zero-allocation property is
//! asserted on the serial path; a second test asserts the *arena* stays
//! warm — no buffer growths — under a 4-thread schedule as well.)
//!
//! This is the regression gate for the tentpole perf claim: the fused
//! conv path must never reintroduce a per-call or per-task `Vec`. Max-pool
//! forward, whose staged band is a workspace slot too, is held to the same
//! zero.

// The crate denies `unsafe_code`; a `GlobalAlloc` impl is `unsafe` by
// definition, and this one only delegates to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shmcaffe_tensor::conv::{
    conv2d_backward, conv2d_backward_banks, conv2d_forward, conv2d_forward_banks, Bank, BankGrad,
    Conv2dGeometry,
};
use shmcaffe_tensor::pool::pool_forward;
use shmcaffe_tensor::{parallel, workspace};

/// System allocator wrapper that counts each thread's allocation calls.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: touching it never
    // allocates or registers a dtor, so it is safe inside `GlobalAlloc`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// update is a plain thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by the calling thread so far.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(2891336453);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
        .collect()
}

struct Workload {
    geom: Conv2dGeometry,
    batch: usize,
    oc: usize,
    input: Vec<f32>,
    weights: Vec<f32>,
    bias: Vec<f32>,
    d_output: Vec<f32>,
    output: Vec<f32>,
    d_weights: Vec<f32>,
    d_bias: Vec<f32>,
    d_input: Vec<f32>,
}

impl Workload {
    fn new() -> Self {
        // Crosses both fixed-grid boundaries: kdim = 32*3*3 = 288 spans
        // two KC=256 k-blocks, and spatial = 24*24 = 576 spans two NC=512
        // column strips, so the steady state exercises every fused path.
        let geom = Conv2dGeometry::square(32, 24, 3, 1, 1);
        let batch = 2;
        let oc = 10;
        let spatial = geom.col_cols().unwrap();
        Workload {
            geom,
            batch,
            oc,
            input: fill(batch * geom.in_len(), 1),
            weights: fill(oc * geom.col_rows(), 2),
            bias: fill(oc, 3),
            d_output: fill(batch * oc * spatial, 4),
            output: vec![0.0; batch * oc * spatial],
            d_weights: vec![0.0; oc * geom.col_rows()],
            d_bias: vec![0.0; oc],
            d_input: vec![0.0; batch * geom.in_len()],
        }
    }

    fn step(&mut self) {
        conv2d_forward(
            &self.geom,
            self.batch,
            self.oc,
            &self.input,
            &self.weights,
            &self.bias,
            &mut self.output,
        );
        conv2d_backward(
            &self.geom,
            self.batch,
            self.oc,
            &self.input,
            &self.weights,
            &self.d_output,
            &mut self.d_weights,
            &mut self.d_bias,
            &mut self.d_input,
        );
    }
}

#[test]
fn steady_state_conv_fwd_bwd_allocates_nothing() {
    parallel::with_threads(1, || {
        let mut w = Workload::new();
        // Warm-up: grows the thread-local workspace arenas.
        w.step();
        w.step();

        let before = alloc_count();
        for _ in 0..5 {
            w.step();
        }
        let after = alloc_count();
        assert_eq!(
            after - before,
            0,
            "steady-state conv fwd+bwd performed {} heap allocations",
            after - before
        );
    });
}

/// The multi-bank kernels run on the same arenas: the Inception siblings'
/// three 1x1 banks (one writing into a wider concatenation), forward plus
/// backward with an input gradient, allocate nothing once warm — two image
/// groups of lane-packed `dW` included (a 2-channel bank alone packs 4).
#[test]
fn steady_state_multi_bank_fwd_bwd_allocates_nothing() {
    parallel::with_threads(1, || {
        let (geom, batch, spatial) = (Conv2dGeometry::square(16, 16, 1, 1, 0), 8, 256);
        let c_outs = [6, 4, 2];
        let input = fill(batch * geom.in_len(), 6);
        let weights = c_outs.map(|c| fill(c * 16, 7 + c as u32));
        let bias = c_outs.map(|c| fill(c, 8));
        let (wide, image_len) = (24 * spatial, c_outs.map(|c| c * spatial));
        let d_output =
            [fill(batch * wide, 9), fill(batch * image_len[1], 10), fill(batch * image_len[2], 11)];
        let mut concat = vec![0.0; batch * wide];
        let [mut r3, mut r5] = [1, 2].map(|b| vec![0.0; batch * image_len[b]]);
        let mut d_weights = weights.clone();
        let mut d_bias = bias.clone();
        let mut d_input = vec![0.0; input.len()];
        let mut step = || {
            conv2d_forward_banks(
                &geom,
                batch,
                &input,
                [
                    Bank {
                        weights: &weights[0],
                        bias: &bias[0],
                        output: &mut concat,
                        image_len: wide,
                    },
                    Bank {
                        weights: &weights[1],
                        bias: &bias[1],
                        output: &mut r3,
                        image_len: image_len[1],
                    },
                    Bank {
                        weights: &weights[2],
                        bias: &bias[2],
                        output: &mut r5,
                        image_len: image_len[2],
                    },
                ],
            );
            let [dw0, dw1, dw2] = &mut d_weights;
            let [db0, db1, db2] = &mut d_bias;
            let banks = [
                BankGrad {
                    weights: &weights[0],
                    d_output: &d_output[0],
                    image_len: wide,
                    d_weights: dw0,
                    d_bias: db0,
                },
                BankGrad {
                    weights: &weights[1],
                    d_output: &d_output[1],
                    image_len: image_len[1],
                    d_weights: dw1,
                    d_bias: db1,
                },
                BankGrad {
                    weights: &weights[2],
                    d_output: &d_output[2],
                    image_len: image_len[2],
                    d_weights: dw2,
                    d_bias: db2,
                },
            ];
            conv2d_backward_banks(&geom, batch, &input, banks, &mut d_input);
            let bank = [BankGrad {
                weights: &weights[2],
                d_output: &d_output[2],
                image_len: image_len[2],
                d_weights: &mut d_weights[2],
                d_bias: &mut [],
            }];
            conv2d_backward_banks(&geom, batch, &input, bank, &mut d_input);
        };
        step();
        step();
        let before = alloc_count();
        for _ in 0..5 {
            step();
        }
        assert_eq!(alloc_count() - before, 0, "steady-state multi-bank fwd+bwd allocated");
    });
}

/// Max-pool forward stages every channel into the `-inf` band: the slot
/// comes from the workspace, so once warm a call allocates nothing (an
/// arena growth would be an allocation on this thread) — padded stride 1
/// and de-interleaved stride 2 alike.
#[test]
fn steady_state_max_pool_forward_allocates_nothing() {
    parallel::with_threads(1, || {
        for geom in [Conv2dGeometry::square(8, 16, 3, 1, 1), Conv2dGeometry::square(8, 33, 3, 2, 0)]
        {
            let batch = 3;
            let out_len = geom.in_channels * geom.out_h().unwrap() * geom.out_w().unwrap();
            let input = fill(batch * geom.in_len(), 5);
            let mut output = vec![0.0; batch * out_len];
            let mut argmax = vec![0u32; batch * out_len];
            let mut step = || pool_forward(&geom, batch, &input, &mut output, &mut argmax);
            step();
            let before = alloc_count();
            for _ in 0..5 {
                step();
            }
            assert_eq!(alloc_count() - before, 0, "steady-state max-pool forward allocated");
        }
    });
}

#[test]
fn workspace_arena_reaches_quiescence_under_parallel_schedule() {
    // Which pool worker runs which task bucket is scheduler-dependent, so
    // a worker can first meet a large buffer request a few iterations in.
    // What must hold is convergence: each (thread, tag) buffer grows
    // monotonically toward the workload's fixed maximum demand, so growth
    // events die out — the arena quiesces — within a handful of steps.
    parallel::with_threads(4, || {
        let mut w = Workload::new();
        let mut quiet = 0;
        for _ in 0..40 {
            let before = workspace::growth_count();
            w.step();
            if workspace::growth_count() == before {
                quiet += 1;
                if quiet >= 3 {
                    return;
                }
            } else {
                quiet = 0;
            }
        }
        panic!("workspace arena never quiesced within 40 parallel iterations");
    });
}
