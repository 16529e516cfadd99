//! Golden pins for `SparseGrad`: the map-based accumulate it was before
//! it became sorted rows beside an arena is kept here as
//! [`Reference::accumulate`], and every way of building a gradient —
//! an `accumulate` loop, `scatter`, `scatter_bags`, `merge`, the wire —
//! is held `to_bits`-equal to it. The trainer digests compare two runs of
//! one build, so a rewrite that reordered an f32 sum on both sides would
//! pass them; this reference would not move with it.
//!
//! The contract: contributions to one row are summed in the order they
//! arrive, onto a row that starts at `+0.0` (so a lone `-0.0` reads
//! `+0.0`), and rows are handed back in strictly ascending id order.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fae::core::HotEmbeddings;
use fae::data::WorkloadSpec;
use fae::embed::{AccessCounter, HotColdPartition, SparseGrad};
use fae::models::{EmbeddingSource, MasterEmbeddings};
use fae::net::{Frame, Message};
use fae::nn::Tensor;

const DIMS: [usize; 6] = [0, 1, 7, 8, 16, 17];
const NAN_PAYLOAD: u32 = 0x7FC0_1234;

/// The arena + `BTreeMap` slot map `SparseGrad` used to be, with a
/// scalar add: shares no code with the type under test.
struct Reference {
    dim: usize,
    slots: BTreeMap<u32, u32>,
    data: Vec<f32>,
}

impl Reference {
    fn new(dim: usize) -> Self {
        Self { dim, slots: BTreeMap::new(), data: Vec::new() }
    }

    fn accumulate(&mut self, idx: u32, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim);
        let next = self.slots.len() as u32;
        let slot = *self.slots.entry(idx).or_insert(next);
        if slot == next {
            self.data.resize(self.data.len() + self.dim, 0.0);
        }
        let off = slot as usize * self.dim;
        for (d, &g) in self.data[off..off + self.dim].iter_mut().zip(grad) {
            *d += g;
        }
    }

    /// `(row, value bits)` in ascending row order.
    fn rows(&self) -> Vec<(u32, Vec<u32>)> {
        self.slots
            .iter()
            .map(|(&row, &slot)| {
                let off = slot as usize * self.dim;
                (row, bits(&self.data[off..off + self.dim]))
            })
            .collect()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(row, value bits)` as `iter()` yields them, which must be strictly
/// ascending by row.
fn rows_of(g: &SparseGrad) -> Vec<(u32, Vec<u32>)> {
    let rows: Vec<(u32, Vec<u32>)> = g.iter().map(|(row, v)| (row, bits(v))).collect();
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "iter() not strictly ascending");
    assert_eq!(rows.len(), g.nnz_rows());
    for (row, v) in &rows {
        assert_eq!(g.get(*row).map(bits).as_ref(), Some(v), "get({row})");
    }
    rows
}

/// One contribution value: mostly ordinary, with the awkward ones mixed
/// in. One NaN payload and only `+inf`, so that no sum depends on which
/// operand of an addition the hardware propagates a NaN from.
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..16) {
        0 => -0.0,
        1 => 0.0,
        2 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)), // subnormal
        3 => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        4 if rng.gen_bool(0.1) => f32::from_bits(NAN_PAYLOAD),
        5 if rng.gen_bool(0.1) => f32::INFINITY,
        _ => rng.gen_range(-4.0f32..4.0),
    }
}

/// A stream of `n` `(id, contribution)` pairs over at most `n / 4`
/// distinct ids (so ≥ 70 % of the lookups are duplicates), out of order,
/// `0` and `u32::MAX` among them. Ids are multiples of an odd constant
/// mod 2³², so they spread over the whole range and two streams of like
/// length share about half of theirs.
fn stream(rng: &mut StdRng, dim: usize, n: usize) -> (Vec<u32>, Vec<f32>) {
    let len = (n / 4).max(1);
    let mut pool: Vec<u32> =
        (0..len).map(|_| rng.gen_range(0..2 * len as u32).wrapping_mul(0x9E37_79B1)).collect();
    pool[0] = u32::MAX;
    if let Some(second) = pool.get_mut(1) {
        *second = 0;
    }
    let ids: Vec<u32> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
    let values: Vec<f32> = (0..n * dim).map(|_| value(rng)).collect();
    let distinct = ids.iter().collect::<std::collections::BTreeSet<_>>().len();
    assert!(n < 10 || distinct * 10 <= n * 3, "{distinct} distinct of {n}");
    (ids, values)
}

fn contribution(values: &[f32], dim: usize, p: usize) -> &[f32] {
    &values[p * dim..(p + 1) * dim]
}

fn reference_of(dim: usize, ids: &[u32], values: &[f32]) -> Reference {
    let mut r = Reference::new(dim);
    for (p, &id) in ids.iter().enumerate() {
        r.accumulate(id, contribution(values, dim, p));
    }
    r
}

fn accumulated(dim: usize, ids: &[u32], values: &[f32]) -> SparseGrad {
    let mut g = SparseGrad::new(dim);
    for (p, &id) in ids.iter().enumerate() {
        g.accumulate(id, contribution(values, dim, p));
    }
    g
}

type Case = (usize, Vec<u32>, Vec<f32>);

/// The `(dim, ids, contributions)` streams the tests below share: five
/// lengths for each of [`DIMS`], in that order.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for dim in DIMS {
        for (seed, n) in [(1u64, 0usize), (2, 1), (3, 9), (4, 2_500), (5, 3_000)] {
            let mut rng = StdRng::seed_from_u64(seed * 1_000 + dim as u64);
            let (ids, values) = stream(&mut rng, dim, n);
            out.push((dim, ids, values));
        }
    }
    out
}

/// Accumulates every coalesced row of `from` into `into`, ascending —
/// what a merge is defined as.
fn accumulate_rows(into: &mut Reference, from: &Reference) {
    for (&row, &slot) in &from.slots {
        let off = slot as usize * from.dim;
        into.accumulate(row, &from.data[off..off + from.dim]);
    }
}

#[test]
fn an_accumulate_loop_matches_the_reference() {
    for (dim, ids, values) in cases() {
        let g = accumulated(dim, &ids, &values);
        assert_eq!(g.dim(), dim);
        assert_eq!(
            rows_of(&g),
            reference_of(dim, &ids, &values).rows(),
            "dim {dim} n {}",
            ids.len()
        );
    }
}

#[test]
fn scatter_matches_the_reference() {
    for (dim, ids, values) in cases() {
        let g = SparseGrad::scatter(dim, &ids, |p| contribution(&values, dim, p));
        assert_eq!(g.dim(), dim);
        assert_eq!(
            rows_of(&g),
            reference_of(dim, &ids, &values).rows(),
            "dim {dim} n {}",
            ids.len()
        );
    }
}

#[test]
fn scatter_bags_matches_the_reference() {
    // The id stream cut into ragged bags, empty ones among them; every
    // index of bag `b` receives row `b` of the bag gradient.
    for (dim, ids, _) in cases() {
        let mut rng = StdRng::seed_from_u64(ids.len() as u64 + dim as u64);
        let mut offsets = vec![0usize];
        while offsets[offsets.len() - 1] < ids.len() {
            let at = offsets[offsets.len() - 1];
            offsets.push((at + rng.gen_range(0usize..6)).min(ids.len()));
        }
        let bags = offsets.len() - 1;
        let grad = Tensor::from_fn(bags, dim, |_, _| value(&mut rng));
        let mut reference = Reference::new(dim);
        for (b, w) in offsets.windows(2).enumerate() {
            for &id in &ids[w[0]..w[1]] {
                reference.accumulate(id, grad.row(b));
            }
        }
        let g = SparseGrad::scatter_bags(dim, &ids, &offsets, &grad);
        assert_eq!(rows_of(&g), reference.rows(), "dim {dim} n {} in {bags} bags", ids.len());
    }
}

#[test]
fn a_lone_negative_zero_reads_positive_zero() {
    let mut g = SparseGrad::new(2);
    g.accumulate(5, &[-0.0, -0.0]);
    assert_eq!(rows_of(&g), vec![(5, vec![0, 0])]);
    let scattered = SparseGrad::scatter(2, &[5], |_| &[-0.0, -0.0]);
    assert_eq!(rows_of(&scattered), vec![(5, vec![0, 0])]);
    let mut merged = SparseGrad::new(2);
    merged.merge(&SparseGrad::from_ascending_rows(2, &[5], vec![-0.0, -0.0]).expect("one row"));
    assert_eq!(rows_of(&merged), vec![(5, vec![0, 0])]);
}

#[test]
fn merge_matches_accumulating_all_of_a_then_all_of_b() {
    // B arrives coalesced: each of its rows is one contribution, in
    // ascending row order, onto whatever A left there — `+0.0` where A
    // left nothing. Pairs include an empty side and a stream with itself.
    for per_dim in cases().chunks(5) {
        for (a, b) in [(3, 4), (4, 3), (2, 4), (0, 3), (3, 0), (1, 1), (4, 4)] {
            let ((dim, ids_a, values_a), (_, ids_b, values_b)) = (&per_dim[a], &per_dim[b]);
            let mut reference = reference_of(*dim, ids_a, values_a);
            accumulate_rows(&mut reference, &reference_of(*dim, ids_b, values_b));
            let mut merged = accumulated(*dim, ids_a, values_a);
            merged.merge(&accumulated(*dim, ids_b, values_b));
            assert_eq!(rows_of(&merged), reference.rows(), "dim {dim}, {a} <- {b}");
        }
    }
}

#[test]
fn the_wire_carries_every_bit() {
    for chunk in cases().chunks(5) {
        let sparse: Vec<SparseGrad> =
            chunk.iter().map(|(dim, ids, values)| accumulated(*dim, ids, values)).collect();
        let expected: Vec<_> =
            chunk.iter().map(|(dim, ids, values)| reference_of(*dim, ids, values).rows()).collect();
        let frame = Frame {
            node: 1,
            epoch: 2,
            seq: 3,
            step: 4,
            msg: Message::Grads { loss: 0.5, samples: 7, dense: vec![1.0], sparse },
        };
        let bytes = frame.encode();
        let back = Frame::decode(&bytes[4..]).expect("frame decodes");
        let Message::Grads { sparse, .. } = back.msg else { panic!("kind changed") };
        assert_eq!(sparse.iter().map(rows_of).collect::<Vec<_>>(), expected);
    }
}

#[test]
fn a_hot_apply_equals_the_gradients_applied_row_by_row() {
    // A 3-table spec; hot rows are the multiples of 3. The reference
    // subtracts `lr * g` from the hot-local row each global id names,
    // with no intermediate gradient.
    let mut spec = WorkloadSpec::tiny_test();
    spec.tables.truncate(3);
    let mut rng = StdRng::seed_from_u64(17);
    let master = MasterEmbeddings::from_spec(&spec, &mut rng);
    let partitions: Vec<HotColdPartition> = spec
        .tables
        .iter()
        .map(|t| {
            let mut c = AccessCounter::new(t.rows);
            (0..t.rows).step_by(3).for_each(|r| c.record(r as u32));
            HotColdPartition::from_counts(&c, 1)
        })
        .collect();
    let hot = HotEmbeddings::build(&master, partitions.clone());
    let dim = spec.embedding_dim;
    let lr = 0.37f32;
    let mut expected: Vec<Vec<Vec<f32>>> = partitions
        .iter()
        .enumerate()
        .map(|(t, p)| p.hot_ids().iter().map(|&g| master.row(t, g)).collect())
        .collect();
    for step in 0..3 {
        let grads: Vec<SparseGrad> = partitions
            .iter()
            .map(|p| {
                let n = 600;
                let ids: Vec<u32> =
                    (0..n).map(|_| p.hot_ids()[rng.gen_range(0..p.hot_count() / 4)]).collect();
                let values: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                accumulated(dim, &ids, &values)
            })
            .collect();
        for ((g, p), rows) in grads.iter().zip(&partitions).zip(&mut expected) {
            for (global, grad) in g.iter() {
                let local = p.hot_local(global).expect("hot id") as usize;
                for (w, &gv) in rows[local].iter_mut().zip(grad) {
                    *w += -lr * gv;
                }
            }
        }
        hot.apply_shared(&grads, lr);
        for (t, (p, rows)) in partitions.iter().zip(&expected).enumerate() {
            let ids = p.hot_ids();
            let offsets: Vec<usize> = (0..=ids.len()).collect();
            let got = hot.lookup(t, ids, &offsets);
            let want: Vec<f32> = rows.iter().flatten().copied().collect();
            assert_eq!(bits(got.as_slice()), bits(&want), "table {t} after step {step}");
        }
    }
}
