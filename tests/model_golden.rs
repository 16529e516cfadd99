//! Golden pins for the dense model path: `Mlp` ending in ReLU, sigmoid
//! and no activation (one-layer stacks stand for a lone linear layer and
//! a linear layer with each activation), DLRM's `Interaction`, DLRM and
//! TBSM, each held
//! `to_bits`-equal to constants printed by the layer-by-layer code they
//! were written against. The trainer digests compare two runs of one
//! build, so a rewrite that moved an f32 sum on both sides would pass
//! them; these constants would not move with it.
//!
//! Every case runs three batches on one instance (the first size, a
//! smaller one, then a larger one), so a model that keeps buffers between
//! batches is pinned on reuse as well as on first use. Inputs, weights and
//! upstream gradients carry `+0.0`, `-0.0` and subnormals; one stack is
//! built so that most of its post-ReLU gradient is zero.
//!
//! A change that is meant to move a pin prints the table to paste.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fae::data::{generate, BatchKind, GenOptions, MiniBatch, TableIndices, WorkloadSpec};
use fae::embed::SparseGrad;
use fae::models::interaction::Interaction;
use fae::models::{Dlrm, MasterEmbeddings, RecModel, Tbsm};
use fae::nn::{Activation, Layer, Mlp, Tensor};

/// FNV-1a 64 over little-endian 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f32]) {
        self.word(v.len() as u32);
        v.iter().for_each(|x| self.word(x.to_bits()));
    }

    fn tensor(&mut self, t: &Tensor) {
        self.word(t.rows() as u32);
        self.word(t.cols() as u32);
        self.floats(t.as_slice());
    }

    fn sparse(&mut self, grads: &[SparseGrad]) {
        for g in grads {
            self.word(g.nnz_rows() as u32);
            for (row, values) in g.iter() {
                self.word(row);
                self.floats(values);
            }
        }
    }
}

/// A seeded value in which about a quarter of the draws are `+0.0`,
/// `-0.0` or subnormal; the rest are uniform in `[lo, lo + 2)`.
fn value(key: u64, lo: f32) -> f32 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let h = h ^ (h >> 29);
    match h % 12 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(((h >> 32) as u32 & 0x807f_ffff) | 1),
        _ => ((h >> 40) % 2001) as f32 / 1000.0 + lo,
    }
}

fn operand(rows: usize, cols: usize, salt: u64, lo: f32) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| value((r as u64) << 32 | (c as u64) ^ (salt << 20), lo))
}

/// One `Mlp` pin: widths, final activation, the three batch sizes, and
/// where its inputs and parameters are centred.
struct MlpCase {
    name: &'static str,
    sizes: &'static [usize],
    act: Activation,
    batches: [usize; 3],
    input_lo: f32,
    param_lo: f32,
}

const fn case(
    name: &'static str,
    sizes: &'static [usize],
    act: Activation,
    batches: [usize; 3],
) -> MlpCase {
    MlpCase { name, sizes, act, batches, input_lo: -1.0, param_lo: -1.0 }
}

fn mlp_cases() -> Vec<MlpCase> {
    vec![
        case("linear 19->24", &[19, 24], Activation::None, [37, 5, 64]),
        case("linear+relu 19->24", &[19, 24], Activation::Relu, [37, 5, 64]),
        case("linear+sigmoid 19->24", &[19, 24], Activation::Sigmoid, [37, 5, 64]),
        case("linear+sigmoid 19->1", &[19, 1], Activation::Sigmoid, [37, 1, 40]),
        case("width-1 input 1->8->1", &[1, 8, 1], Activation::Sigmoid, [9, 1, 12]),
        case("width-1 hidden 6->1->3", &[6, 1, 3], Activation::None, [9, 2, 16]),
        case("batch 1 19->24->1", &[19, 24, 1], Activation::Sigmoid, [1, 1, 3]),
        case("taobao bottom 3->16", &[3, 16], Activation::Relu, [256, 17, 256]),
        case("taobao top 32->60->1", &[32, 60, 1], Activation::Sigmoid, [256, 37, 256]),
        case(
            "kaggle bottom 13->512->256->64->16",
            &[13, 512, 256, 64, 16],
            Activation::Relu,
            [256, 3, 256],
        ),
        case("kaggle top 367->256->1", &[367, 256, 1], Activation::Sigmoid, [256, 7, 256]),
        MlpCase {
            name: "mostly dead relu 16->48->24->1",
            sizes: &[16, 48, 24, 1],
            act: Activation::None,
            batches: [40, 8, 41],
            input_lo: 0.0,
            param_lo: -1.7,
        },
    ]
}

/// Forward, backward and an SGD step on each of the case's batches:
/// outputs, input gradients, parameter gradients and stepped parameters.
fn run_mlp(c: &MlpCase, salt: u64) -> u64 {
    let mut mlp = Mlp::new(c.sizes, c.act, &mut StdRng::seed_from_u64(salt));
    let n = mlp.param_count();
    let params: Vec<f32> = (0..n as u64).map(|k| value(k ^ (salt << 40), c.param_lo)).collect();
    assert_eq!(mlp.read_params(&params), n);
    let mut h = Fnv::new();
    let out = c.sizes[c.sizes.len() - 1];
    for (i, &rows) in c.batches.iter().enumerate() {
        let x = operand(rows, c.sizes[0], salt * 8 + i as u64, c.input_lo);
        let g = operand(rows, out, salt * 8 + 4 + i as u64, -1.0);
        mlp.zero_grad();
        let y = mlp.forward(&x);
        let dx = mlp.backward(&g);
        let mut grads = Vec::new();
        mlp.write_grads(&mut grads);
        mlp.sgd_step(0.125);
        let mut stepped = Vec::new();
        mlp.write_params(&mut stepped);
        h.tensor(&y);
        h.tensor(&dx);
        h.floats(&grads);
        h.floats(&stepped);
    }
    h.0
}

/// A case whose post-ReLU gradient is mostly zero must really be one.
#[test]
fn the_dead_relu_case_zeroes_most_of_its_input_gradient() {
    let c = mlp_cases().pop().expect("cases");
    let mut mlp = Mlp::new(c.sizes, c.act, &mut StdRng::seed_from_u64(99));
    let params: Vec<f32> =
        (0..mlp.param_count() as u64).map(|k| value(k ^ (99 << 40), c.param_lo)).collect();
    mlp.read_params(&params);
    let x = operand(c.batches[0], c.sizes[0], 99 * 8, c.input_lo);
    let y = mlp.forward(&x);
    let dx = mlp.backward(&Tensor::full(y.rows(), y.cols(), 1.0));
    let zeros = dx.as_slice().iter().filter(|v| **v == 0.0).count();
    assert!(zeros * 2 > dx.len(), "{zeros} of {} input-gradient elements are zero", dx.len());
}

/// Printed by the layer-by-layer `Mlp` (a `Linear` and an activation
/// module per layer, each cloning its input).
const MLP_PINS: [u64; 12] = [
    0x7be347fc42d13625, // linear 19->24
    0xf2470009972cda00, // linear+relu 19->24
    0xc6b45983485c8d15, // linear+sigmoid 19->24
    0x0ce93f8445caa678, // linear+sigmoid 19->1
    0x3c41c18c9f1dc50d, // width-1 input 1->8->1
    0x61d22f6cbc3a075e, // width-1 hidden 6->1->3
    0x3f683b85e783d478, // batch 1 19->24->1
    0xefd9970977f9a737, // taobao bottom 3->16
    0x90505f0d75f7835e, // taobao top 32->60->1
    0x35b9a4aa95029f28, // kaggle bottom 13->512->256->64->16
    0x32989d7063376992, // kaggle top 367->256->1
    0xf6882246abea60ae, // mostly dead relu 16->48->24->1
];

#[test]
fn mlp_forward_backward_and_step_are_pinned() {
    let cases = mlp_cases();
    let got: Vec<u64> = cases.iter().zip(1..).map(|(c, salt)| run_mlp(c, salt)).collect();
    if got != MLP_PINS {
        let table: String = cases
            .iter()
            .zip(&got)
            .map(|(c, h)| format!("    0x{h:016x}, // {}\n", c.name))
            .collect();
        panic!("MLP pins moved; the table is now:\n{table}");
    }
}

/// `v` with every NaN written as `f32::NAN`: Rust does not fix a NaN's
/// payload, so a pin on it would pin the compiler, not the model.
fn canonical(v: &[f32]) -> Vec<f32> {
    v.iter().map(|&x| if x.is_nan() { f32::NAN } else { x }).collect()
}

/// One `Interaction` of `f` features of width `d` over batches of 256,
/// 33, 17 and 1: the forward output and every feature gradient. The
/// features and the upstream gradient carry `±0.0` and subnormals; the
/// middle sample has one `+inf` feature element, and sample 0 has only
/// `±0.0` pair gradients under a pass-through gradient starting `-0.0`.
fn run_interaction(f: usize, d: usize, salt: u64) -> u64 {
    let width = Interaction::out_width(f, d);
    let mut op = Interaction::new();
    let mut h = Fnv::new();
    for (i, batch) in [256, 33, 17, 1].into_iter().enumerate() {
        let key = (salt * 4 + i as u64) << 6;
        let mut features: Vec<Tensor> =
            (0..f).map(|x| operand(batch, d, key | x as u64, -1.0)).collect();
        features[f - 1].set(batch / 2, 0, f32::INFINITY);
        let mut g = operand(batch, width, key | 63, -1.0);
        g.set(0, 0, -0.0);
        for k in d..width {
            g.set(0, k, if k % 2 == 0 { 0.0 } else { -0.0 });
        }
        let mut out = vec![f32::NAN; batch * width];
        op.forward(features, &mut out);
        h.floats(&canonical(&out));
        let grads = op.backward(g.as_slice());
        for t in grads.iter() {
            h.word(t.rows() as u32);
            h.floats(&canonical(t.as_slice()));
        }
    }
    h.0
}

/// `(f, d)`: Kaggle's 27 × 16, the tiny spec's 5 × 8, and widths with a
/// tail past each 8-wide chunk.
const INTERACTION_SHAPES: [(usize, usize); 4] = [(27, 16), (5, 8), (4, 13), (3, 24)];

/// Printed by the interaction of one `lanes::dot` per pair and sample
/// and two zero-skipping axpys per pair gradient.
const INTERACTION_PINS: [u64; 4] = [
    0xa50698ce238b6e11, // 27 x 16
    0x8173a0b30334bfd4, // 5 x 8
    0x9ce036f25fcce49e, // 4 x 13
    0x4d3dc44c3d89e03b, // 3 x 24
];

#[test]
fn interaction_forward_and_backward_are_pinned() {
    let got: Vec<u64> = INTERACTION_SHAPES
        .iter()
        .zip(1..)
        .map(|(&(f, d), salt)| run_interaction(f, d, salt))
        .collect();
    if got != INTERACTION_PINS {
        let table: String = INTERACTION_SHAPES
            .iter()
            .zip(&got)
            .map(|((f, d), h)| format!("    0x{h:016x}, // {f} x {d}\n"))
            .collect();
        panic!("interaction pins moved; the table is now:\n{table}");
    }
}

/// Batches of `sizes.len()` lengths from a fresh dataset, with `+0.0`,
/// `-0.0` and subnormals written over some dense features.
fn batches(spec: &WorkloadSpec, sizes: &[usize]) -> Vec<MiniBatch> {
    let ds = generate(spec, &GenOptions::sized(17, 400));
    let mut start = 0;
    sizes
        .iter()
        .map(|&n| {
            let ids: Vec<usize> = (start..start + n).collect();
            start += n;
            let mut mb = MiniBatch::gather(&ds, &ids, BatchKind::Unclassified);
            for (k, v) in mb.dense.iter_mut().enumerate() {
                match k % 7 {
                    2 => *v = -0.0,
                    4 => *v = f32::from_bits(0x0000_0321),
                    5 => *v = 0.0,
                    _ => {}
                }
            }
            mb
        })
        .collect()
}

/// Forward, backward and a dense SGD step on each batch: predictions,
/// sparse (embedding) gradients, dense gradients and stepped parameters.
fn run_model(model: &mut dyn RecModel, emb: &MasterEmbeddings, batches: &[MiniBatch]) -> u64 {
    let mut h = Fnv::new();
    for (i, mb) in batches.iter().enumerate() {
        model.zero_grad();
        let pred = model.forward(mb, emb);
        let g = operand(pred.rows(), 1, 900 + i as u64, -1.0);
        let sparse = model.backward(&g);
        let mut grads = Vec::new();
        model.write_grads(&mut grads);
        model.sgd_step(0.25);
        let mut params = Vec::new();
        model.write_params(&mut params);
        h.tensor(&pred);
        h.sparse(&sparse);
        h.floats(&grads);
        h.floats(&params);
    }
    h.0
}

fn small_taobao() -> WorkloadSpec {
    let mut s = WorkloadSpec::rmc1_taobao();
    s.tables[0].rows = 2_000;
    s.tables[1].rows = 200;
    s.tables[2].rows = 500;
    s
}

/// `(name, hash)` of DLRM on the tiny spec and TBSM on a small Taobao.
fn model_runs() -> Vec<(&'static str, u64)> {
    let sizes = [64, 17, 1, 96];
    let spec = WorkloadSpec::tiny_test();
    let mut rng = StdRng::seed_from_u64(42);
    let mut dlrm = Dlrm::from_spec(&spec, &mut rng);
    let emb = MasterEmbeddings::from_spec(&spec, &mut rng);
    let dlrm_hash = run_model(&mut dlrm, &emb, &batches(&spec, &sizes));

    let spec = small_taobao();
    let mut rng = StdRng::seed_from_u64(11);
    let mut tbsm = Tbsm::from_spec(&spec, &mut rng);
    let emb = MasterEmbeddings::from_spec(&spec, &mut rng);
    let tbsm_hash = run_model(&mut tbsm, &emb, &batches(&spec, &sizes));
    vec![("dlrm tiny", dlrm_hash), ("tbsm small taobao", tbsm_hash)]
}

/// Printed by the models over the layer-by-layer `Mlp`.
const MODEL_PINS: [u64; 2] = [
    0x72374ba13c28d1c1, // dlrm tiny
    0x65f19a39a2dd10cb, // tbsm small taobao
];

#[test]
fn dlrm_and_tbsm_forward_backward_and_step_are_pinned() {
    let runs = model_runs();
    let got: Vec<u64> = runs.iter().map(|r| r.1).collect();
    if got != MODEL_PINS {
        let table: String =
            runs.iter().map(|(name, h)| format!("    0x{h:016x}, // {name}\n")).collect();
        panic!("model pins moved; the table is now:\n{table}");
    }
}

/// `batches`' dense features under hand-built bags: every table's last
/// row (`rows - 1`) twice in one bag, an id three times in another, empty
/// bags, and some generated bags between them.
fn edge_batches(spec: &WorkloadSpec, sizes: &[usize]) -> Vec<MiniBatch> {
    let mut out = batches(spec, sizes);
    for (i, mb) in out.iter_mut().enumerate() {
        for (t, csr) in mb.sparse.iter_mut().enumerate() {
            let last = spec.tables[t].rows as u32 - 1;
            let mut bags = TableIndices::new();
            for b in 0..csr.len() {
                let h = (b as u32).wrapping_mul(2_654_435_761) ^ (i as u32 * 97 + t as u32);
                match b % 5 {
                    0 => bags.push_bag(&[last, h % last, last]),
                    1 => bags.push_bag(&[]),
                    2 => bags.push_bag(&[h % 13, last, h % 13, h % 13]),
                    3 => bags.push_bag(csr.bag(b)),
                    _ => bags.push_bag(&[h % (last + 1)]),
                }
            }
            *csr = bags;
        }
    }
    out
}

/// `(name, hash)` of DLRM and TBSM, as `model_runs`, over `edge_batches`.
fn edge_runs() -> Vec<(&'static str, u64)> {
    let sizes = [23, 5, 1, 41];
    let spec = WorkloadSpec::tiny_test();
    let mut rng = StdRng::seed_from_u64(43);
    let mut dlrm = Dlrm::from_spec(&spec, &mut rng);
    let emb = MasterEmbeddings::from_spec(&spec, &mut rng);
    let dlrm_hash = run_model(&mut dlrm, &emb, &edge_batches(&spec, &sizes));

    let spec = small_taobao();
    let mut rng = StdRng::seed_from_u64(12);
    let mut tbsm = Tbsm::from_spec(&spec, &mut rng);
    let emb = MasterEmbeddings::from_spec(&spec, &mut rng);
    let tbsm_hash = run_model(&mut tbsm, &emb, &edge_batches(&spec, &sizes));
    vec![("dlrm tiny, edge bags", dlrm_hash), ("tbsm small taobao, edge bags", tbsm_hash)]
}

/// Printed by the models whose backward coalesces through a radix sort
/// of every lookup.
const EDGE_PINS: [u64; 2] = [
    0xbb4e09c9fc78e691, // dlrm tiny, edge bags
    0xbce301ae7d63823d, // tbsm small taobao, edge bags
];

#[test]
fn last_rows_repeated_ids_and_empty_bags_are_pinned() {
    let runs = edge_runs();
    let got: Vec<u64> = runs.iter().map(|r| r.1).collect();
    if got != EDGE_PINS {
        let table: String =
            runs.iter().map(|(name, h)| format!("    0x{h:016x}, // {name}\n")).collect();
        panic!("edge-bag pins moved; the table is now:\n{table}");
    }
}
