//! `Mlp`'s activation tape is sized on the first batch and reused: after
//! it, a dense step (zero the gradients, forward, backward, SGD) makes no
//! heap allocation, at the same batch size or a smaller one. TBSM's
//! `AttentionPool` and DLRM's `Interaction` keep their buffers the same
//! way, and so does a table's `RowSet`, rebuilt every backward. Counted by the process-wide
//! allocator in `tests/common/hostile.rs`.
//!
//! One `#[test]` only: a neighbouring test thread would show up in the
//! count.

#[path = "common/hostile.rs"]
#[expect(dead_code, reason = "this suite counts allocations; the frames serve the decoder suites")]
mod hostile;

use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Barrier;

use fae::data::{generate, BatchKind, GenOptions, MiniBatch, WorkloadSpec};
use fae::embed::RowSet;
use fae::models::attention::AttentionPool;
use fae::models::interaction::Interaction;
use fae::nn::cores::{self, fan_out};
use fae::nn::{Activation, Layer, Mlp, Tensor};

use hostile::heap_use;

fn seeded(len: usize, salt: u32) -> Vec<f32> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % 1000)
        .map(|v| v as f32 / 500.0 - 1.0)
        .collect()
}

/// Zeroes the gradients, runs forward and backward over the first
/// `rows` samples of `x` and `g`, and steps.
fn step(mlp: &mut Mlp, x: &[f32], g: &[f32], rows: usize, input_grad: bool) {
    let (w, out) = (mlp.sizes()[0], mlp.out_width());
    mlp.zero_grad();
    mlp.input_mut(rows).copy_from_slice(&x[..rows * w]);
    mlp.forward_tape();
    mlp.backward_tape(&g[..rows * out], input_grad);
    mlp.sgd_step(0.01);
}

#[test]
fn a_steady_state_dense_step_allocates_nothing() {
    // A product above the split threshold spawns scoped threads, which
    // allocate. As task 0 of a fan-out as wide as the cores, the count's
    // products get one core and stay on this thread; the other tasks have
    // started before the count does and only end.
    let spec = WorkloadSpec::rmc1_taobao();
    let ds = generate(&spec, &GenOptions::sized(11, 1_024));
    let taobao: Vec<MiniBatch> = (0..4)
        .map(|i| {
            let ids: Vec<usize> = (i * 256..(i + 1) * 256).collect();
            MiniBatch::gather(&ds, &ids, BatchKind::Unclassified)
        })
        .collect();
    let width = cores::share();
    let started = Barrier::new(width);
    fan_out((0..width).collect(), |task| {
        started.wait();
        if task == 0 {
            count_steady_steps();
            count_attention();
            count_interaction();
            count_row_sets(&spec, &taobao);
        }
    });
}

fn count_steady_steps() {
    let shapes: [(&[usize], Activation); 5] = [
        (&[3, 16], Activation::Relu),
        (&[32, 60, 1], Activation::Sigmoid),
        (&[13, 512, 256, 64, 16], Activation::Relu),
        (&[367, 256, 1], Activation::Sigmoid),
        (&[6, 1, 3], Activation::None),
    ];
    for (sizes, act) in shapes {
        let mut mlp = Mlp::new(sizes, act, &mut StdRng::seed_from_u64(1));
        let batch = 256;
        let x = seeded(batch * sizes[0], 1);
        let g = seeded(batch * mlp.out_width(), 2);
        let ((), _, first) = heap_use(|| step(&mut mlp, &x, &g, batch, true));
        assert!(first > 0, "{sizes:?}: the first batch sizes the tape");
        for (rows, input_grad) in [(batch, true), (batch, false), (batch / 3, true), (1, false)] {
            let ((), _, allocs) = heap_use(|| step(&mut mlp, &x, &g, rows, input_grad));
            assert_eq!(allocs, 0, "{sizes:?} at batch {rows} (input grad {input_grad})");
        }
    }
}

/// TBSM's attention at d = 16: after a first batch of 256, a forward and
/// backward at 256 and at 85 samples allocate nothing. The vectors are
/// built before the count; the op takes them by value.
fn count_attention() {
    let d = 16;
    let mut att = AttentionPool::new();
    for (i, batch) in [256, 256, 85].into_iter().enumerate() {
        let mut offsets = vec![0];
        for s in 0..batch {
            offsets.push(offsets[s] + (7 * s + 3) % 23);
        }
        let total = offsets[batch];
        let vectors = Tensor::from_vec(total, d, seeded(total * d, 3));
        let mut z = seeded(batch * 2 * d, 4);
        let dz = seeded(batch * 2 * d, 5);
        let mut dq = vec![0.0; batch * d];
        let ((), _, allocs) = heap_use(|| {
            att.forward(vectors, &offsets, &mut z);
            att.backward(&z, &dz, &mut dq);
        });
        if i > 0 {
            assert_eq!(allocs, 0, "attention at batch {batch}");
        }
    }
}

/// DLRM's interaction at Kaggle's 27 features of width 16: after a first
/// batch of 256, a forward and backward at 256 and at 85 samples allocate
/// nothing. The features are built before the count; the op takes them
/// by value.
fn count_interaction() {
    let (f, d) = (27, 16);
    let width = Interaction::out_width(f, d);
    let mut op = Interaction::new();
    for (i, batch) in [256, 256, 85].into_iter().enumerate() {
        let features: Vec<Tensor> =
            (0..f).map(|x| Tensor::from_vec(batch, d, seeded(batch * d, 6 + x as u32))).collect();
        let mut out = vec![0.0; batch * width];
        let g = seeded(batch * width, 5);
        let ((), _, allocs) = heap_use(|| {
            op.forward(features, &mut out);
            op.backward(&g);
        });
        if i > 0 {
            assert_eq!(allocs, 0, "interaction at batch {batch}");
        }
    }
}

/// Taobao's three tables at batch 256: once a pass over the batches has
/// grown each set's rows and inverse, rebuilding from them allocates
/// nothing.
fn count_row_sets(spec: &WorkloadSpec, batches: &[MiniBatch]) {
    let mut sets: Vec<RowSet> = spec.tables.iter().map(|t| RowSet::new(t.rows)).collect();
    for pass in 0..2 {
        for (i, mb) in batches.iter().enumerate() {
            let ((), _, allocs) = heap_use(|| {
                for (set, csr) in sets.iter_mut().zip(&mb.sparse) {
                    set.build(&csr.indices);
                }
            });
            if pass > 0 {
                assert_eq!(allocs, 0, "row sets of Taobao batch {i}");
            }
        }
    }
}
