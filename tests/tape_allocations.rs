//! `Mlp`'s activation tape is sized on the first batch and reused: after
//! it, a dense step (zero the gradients, forward, backward, SGD) makes no
//! heap allocation, at the same batch size or a smaller one. Counted by
//! the process-wide allocator in `tests/common/hostile.rs`.
//!
//! One `#[test]` only: a neighbouring test thread would show up in the
//! count.

#[path = "common/hostile.rs"]
#[expect(dead_code, reason = "this suite counts allocations; the frames serve the decoder suites")]
mod hostile;

use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Barrier;

use fae::nn::cores::{self, fan_out};
use fae::nn::{Activation, Layer, Mlp};

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
    let width = cores::share();
    let started = Barrier::new(width);
    fan_out((0..width).collect(), |task| {
        started.wait();
        if task == 0 {
            count_steady_steps();
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
