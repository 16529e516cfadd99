//! Manually 8-wide unrolled `f32` kernels for the hot numeric loops.
//!
//! The workspace forbids `unsafe`, so there are no intrinsics here — just
//! fixed-width unrolls over `chunks_exact(8)` that the compiler can keep in
//! SIMD registers. fae-lint's `float-fuse` rule reports such an unroll
//! anywhere else in library code, so every one lives here, beside its
//! contract. Four families live side by side with *different*
//! bit-identity contracts (DESIGN.md §14):
//!
//! * **Elementwise** kernels ([`add_assign`], [`axpy`], [`scale_assign`])
//!   touch each element independently; unrolling changes no addition order,
//!   so results are bit-identical to the scalar loop they replace.
//! * The **reduction** kernel [`block_dots`] (DLRM's interaction forward)
//!   holds [`BLOCK`] samples in the lanes of one vector and takes a pair's
//!   dot in all of them at once, each lane with 8 partial accumulators
//!   folded pairwise at the end. This *reorders* f32 addition
//!   relative to a left-to-right scalar sum — the documented carve-out of
//!   DESIGN.md §14. Every digest/golden test in the workspace
//!   compares two runs of the *same* binary, so the contract that matters
//!   (run-to-run and serial-vs-parallel bit-identity) is preserved because
//!   every path shares these kernels.
//! * The **chained dots** [`dots`] (TBSM's attention scores and their
//!   gradients) run four dot products as independent chains, each exactly
//!   `Iterator::sum`'s fold: ascending terms from `-0.0`, so the bits are
//!   the scalar sum's, and only the four chains' adds overlap.
//! * The **register tile** `tile_product` holds a 4 × 32 block of a
//!   product's output in registers across the whole shared dimension,
//!   with 8-, 4- and 1-wide column tiles for the rest of a row.
//!   Each element takes its terms in ascending order, one multiply and
//!   one add each, as an axpy per term would, but skips none; its callers
//!   in `tensor.rs` and [`pair_grads`] (DLRM's interaction backward, over
//!   one sample's matrix of pair gradients) check when that is the
//!   zero-skip loop's bits.
//!
//! Built for the host CPU (`.cargo/config.toml`), an 8-wide chunk is one
//! 256-bit `ymm` register on AVX2 / AVX-512: [`axpy`] and [`add_assign`]
//! also pair chunks into 512-bit `zmm` in their main loop, and a
//! [`block_dots`] lane vector is one `zmm`. Baseline x86-64 (SSE2) splits
//! them over `xmm`; each lane's bits are the same (DESIGN.md §14, "Target ISA").
//! Plain `zip` loops ran 9–12 % slower under `native`, so the unrolls stay.

/// In-place `dst[i] += src[i]`. Elementwise: bit-identical to the scalar
/// loop (no reassociation). Panics on length mismatch.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    // Elementwise, no f32 reassociation (DESIGN.md §14).
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] += sc[0];
        dc[1] += sc[1];
        dc[2] += sc[2];
        dc[3] += sc[3];
        dc[4] += sc[4];
        dc[5] += sc[5];
        dc[6] += sc[6];
        dc[7] += sc[7];
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv += sv;
    }
}

/// In-place `dst[i] += a * src[i]`. Elementwise: bit-identical to the
/// scalar loop. Panics on length mismatch.
pub fn axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    // Elementwise, no f32 reassociation (DESIGN.md §14).
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] += a * sc[0];
        dc[1] += a * sc[1];
        dc[2] += a * sc[2];
        dc[3] += a * sc[3];
        dc[4] += a * sc[4];
        dc[5] += a * sc[5];
        dc[6] += a * sc[6];
        dc[7] += a * sc[7];
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv += a * sv;
    }
}

/// In-place `dst[i] *= s`. Elementwise: bit-identical to the scalar loop.
pub fn scale_assign(dst: &mut [f32], s: f32) {
    // Elementwise, no f32 reassociation (DESIGN.md §14).
    let mut d = dst.chunks_exact_mut(8);
    for dc in &mut d {
        dc[0] *= s;
        dc[1] *= s;
        dc[2] *= s;
        dc[3] *= s;
        dc[4] *= s;
        dc[5] *= s;
        dc[6] *= s;
        dc[7] *= s;
    }
    for dv in d.into_remainder() {
        *dv *= s;
    }
}

/// `out[t] = q · rows[t·d..(t + 1)·d]` for each `d = q.len()`-wide row
/// `t`, each exactly `Iterator::sum`'s fold of the products: terms in
/// ascending order from `-0.0`, one multiply and one add each. Four rows
/// run as independent chains, so their adds overlap. Panics on a length
/// mismatch.
pub fn dots(q: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = q.len();
    assert_eq!(rows.len(), out.len() * d, "dots length mismatch");
    let row = |t: usize| &rows[t * d..(t + 1) * d];
    let (fours, rest) = out.split_at_mut(out.len() / 4 * 4);
    for (i, o) in fours.chunks_exact_mut(4).enumerate() {
        let mut acc = [-0.0f32; 4];
        let rows4 = row(4 * i).iter().zip(row(4 * i + 1)).zip(row(4 * i + 2)).zip(row(4 * i + 3));
        for (&x, (((&a, &b), &c), &e)) in q.iter().zip(rows4) {
            acc[0] += x * a;
            acc[1] += x * b;
            acc[2] += x * c;
            acc[3] += x * e;
        }
        o.copy_from_slice(&acc);
    }
    for (t, o) in rest.iter_mut().enumerate() {
        *o = q.iter().zip(row(fours.len() + t)).map(|(&x, &v)| x * v).sum();
    }
}

/// Samples per [`block_dots`] block: 16 `f32` lanes, one AVX-512 `zmm`.
pub const BLOCK: usize = 16;

/// DLRM's pairwise dots for [`BLOCK`] samples of `f` vectors at once:
/// `block[(i·d + e)·BLOCK + s]` is element `e` of feature `i` for sample
/// `s`, and `out[p·BLOCK + s]` gets sample `s`'s dot of pair `p` (`i < j`,
/// row-major). Each lane keeps 8 partial sums from `+0.0`, folds them
/// pairwise, then adds the tail: a fixed order, not a left-to-right sum.
pub fn block_dots(block: &[f32], f: usize, out: &mut [f32]) {
    let len = block.len() / f; // d · BLOCK
    assert!(f * len == block.len() && len.is_multiple_of(BLOCK), "block_dots block size mismatch");
    assert_eq!(out.len(), f * (f - 1) / 2 * BLOCK, "block_dots output size mismatch");
    let mut pairs = out.chunks_exact_mut(BLOCK);
    for (i, x) in block.chunks_exact(len).enumerate() {
        for (y, o) in block.chunks_exact(len).skip(i + 1).zip(&mut pairs) {
            o.copy_from_slice(&block_dot(x, y));
        }
    }
}

/// One pair's dot in each of [`BLOCK`] lanes: `acc[k]` sums the elements
/// `≡ k (mod 8)` of the whole 8-chunks, `tail` the rest (a separate
/// array: as `acc[8]` the forward ran ~20 % slower).
#[inline(always)]
fn block_dot(x: &[f32], y: &[f32]) -> [f32; BLOCK] {
    let (mut acc, mut tail) = ([[0.0f32; BLOCK]; 8], [0.0f32; BLOCK]);
    // 8 partial sums per lane reorder f32 addition (DESIGN.md §14).
    let mut xc = x.chunks_exact(8 * BLOCK);
    let mut yc = y.chunks_exact(8 * BLOCK);
    for (x, y) in (&mut xc).zip(&mut yc) {
        for (acc, (x, y)) in acc.iter_mut().zip(x.chunks_exact(BLOCK).zip(y.chunks_exact(BLOCK))) {
            acc.iter_mut().zip(x.iter().zip(y)).for_each(|(s, (&x, &y))| *s += x * y);
        }
    }
    for (x, y) in xc.remainder().chunks_exact(BLOCK).zip(yc.remainder().chunks_exact(BLOCK)) {
        tail.iter_mut().zip(x.iter().zip(y)).for_each(|(s, (&x, &y))| *s += x * y);
    }
    let a = &acc;
    std::array::from_fn(|s| {
        ((a[0][s] + a[1][s]) + (a[2][s] + a[3][s]))
            + ((a[4][s] + a[5][s]) + (a[6][s] + a[7][s]))
            + tail[s]
    })
}

/// DLRM's interaction backward for one sample of `f` vectors `v`
/// (row-major `f × d`): `out[x] += g(x, y) · v[y]` over the pair
/// gradients `pairs` (`i < j`, row-major), partners `y` ascending. That
/// is the order of the pair loop, which adds `g · v[j]` to `out[i]` and
/// `g · v[i]` to `out[j]` pair by pair and skips a zero `g`. The register
/// tile multiplies `v` by `coef`, the `f × f` symmetric coefficient
/// matrix with a zero diagonal, adding the `±0` terms the loop skips:
/// exact when `v` is finite and `out` holds no `-0.0`, as in `tensor.rs`.
/// A sample failing either takes the loop.
pub fn pair_grads(pairs: &[f32], v: &[f32], f: usize, coef: &mut [f32], out: &mut [f32]) {
    let d = v.len() / f;
    assert!(f * d == v.len() && out.len() == v.len(), "pair_grads size mismatch");
    assert!(pairs.len() == f * (f - 1) / 2 && coef.len() == f * f, "pair_grads size mismatch");
    let mut g = pairs.iter();
    for i in 0..f {
        coef[i * f + i] = 0.0;
        for (j, &g) in (i + 1..f).zip(&mut g) {
            coef[i * f + j] = g;
            coef[j * f + i] = g;
        }
    }
    // Every term in ascending partner order; `±0` ones only where they
    // move no bit (DESIGN.md §14).
    let negative_zero = out.iter().fold(false, |any, x| any | (x.to_bits() == (-0.0f32).to_bits()));
    if v.iter().fold(true, |ok, x| ok & x.is_finite()) && !negative_zero {
        return tile_product(coef, [f, 1], v, d, out);
    }
    for (row, out_row) in coef.chunks_exact(f).zip(out.chunks_exact_mut(d)) {
        for (&g, v_row) in row.iter().zip(v.chunks_exact(d)) {
            if g != 0.0 {
                axpy(out_row, g, v_row);
            }
        }
    }
}

/// The register tile: `out[r·n + c] += Σ_t a[r·rs + t·ts] · b[t·n + c]`
/// for every `n`-wide row `r` of `out` and row `t` of `b`, read in place.
/// A tile of 4 rows × 32 columns stays in registers across the whole `t`
/// loop; 8-, 4- and 1-wide column tiles and 1-row tiles take the
/// remainders, so a 60-wide row is 32 + 8 + 8 + 8 + 4 and never runs a
/// 1-wide tile.
/// Each element takes its terms in ascending `t`, one multiply and one
/// add each: an axpy per `t`, in registers, with no term skipped.
pub(crate) fn tile_product(a: &[f32], [rs, ts]: [usize; 2], b: &[f32], n: usize, out: &mut [f32]) {
    for (i, rows) in out.chunks_mut(4 * n).enumerate() {
        if rows.len() == 4 * n {
            tile_columns::<4>(&a[4 * i * rs..], [rs, ts], b, n, rows);
            continue;
        }
        for (j, row) in rows.chunks_exact_mut(n).enumerate() {
            tile_columns::<1>(&a[(4 * i + j) * rs..], [rs, ts], b, n, row);
        }
    }
}

/// [`tile_product`] over `R` rows: 32-, then 8-, 4- and 1-wide tiles.
fn tile_columns<const R: usize>(a: &[f32], step: [usize; 2], b: &[f32], n: usize, out: &mut [f32]) {
    let mut c = 0;
    while n - c >= 32 {
        tile::<R, 32>(a, step, b, n, c, out);
        c += 32;
    }
    while n - c >= 8 {
        tile::<R, 8>(a, step, b, n, c, out);
        c += 8;
    }
    if n - c >= 4 {
        tile::<R, 4>(a, step, b, n, c, out);
        c += 4;
    }
    for c in c..n {
        tile::<R, 1>(a, step, b, n, c, out);
    }
}

/// One `R × W` tile at column `c`, its sums in a local array the compiler
/// keeps in registers. Each `t` reads its `W` values of `b` once, for all
/// `R` rows; left to the optimizer, that sharing depended on what else
/// was inlined beside the loop (EXPERIMENTS.md, "Taobao step by part").
/// Elementwise in `c`: no f32 reassociation.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    [rs, ts]: [usize; 2],
    b: &[f32],
    n: usize,
    c: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&out[r * n + c..r * n + c + W]);
    }
    for (t, b_row) in b.chunks_exact(n).enumerate() {
        let y: [f32; W] = std::array::from_fn(|j| b_row[c + j]);
        for (r, acc) in acc.iter_mut().enumerate() {
            let x = a[r * rs + t * ts];
            for (s, &y) in acc.iter_mut().zip(&y) {
                *s += x * y;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * n + c..r * n + c + W].copy_from_slice(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample's dot as [`block_dots`] takes it in each lane: 8 partial
    /// accumulators folded pairwise at the end, then the tail. Panics on
    /// length mismatch.
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = [0.0f32; 8];
        // 8 partial sums reorder f32 addition (DESIGN.md §14).
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        for (x, y) in (&mut ac).zip(&mut bc) {
            acc[0] += x[0] * y[0];
            acc[1] += x[1] * y[1];
            acc[2] += x[2] * y[2];
            acc[3] += x[3] * y[3];
            acc[4] += x[4] * y[4];
            acc[5] += x[5] * y[5];
            acc[6] += x[6] * y[6];
            acc[7] += x[7] * y[7];
        }
        let mut tail = 0.0f32;
        for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
            tail += x * y;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    }

    fn seq(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| (((i as u32).wrapping_mul(2_654_435_761) ^ salt) % 1000) as f32 / 100.0 - 5.0)
            .collect()
    }

    #[test]
    fn add_assign_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 16, 23, 64] {
            let src = seq(n, 1);
            let mut a = seq(n, 2);
            let mut b = a.clone();
            add_assign(&mut a, &src);
            for (bv, &sv) in b.iter_mut().zip(&src) {
                *bv += sv;
            }
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 16, 23, 64] {
            let src = seq(n, 3);
            let mut a = seq(n, 4);
            let mut b = a.clone();
            axpy(&mut a, -0.37, &src);
            for (bv, &sv) in b.iter_mut().zip(&src) {
                *bv += -0.37 * sv;
            }
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn scale_assign_matches_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 16, 23] {
            let mut a = seq(n, 5);
            let mut b = a.clone();
            scale_assign(&mut a, 0.25);
            for bv in &mut b {
                *bv *= 0.25;
            }
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn dot_close_to_scalar_and_deterministic() {
        for n in [0, 1, 7, 8, 9, 16, 23, 64, 100] {
            let a = seq(n, 6);
            let b = seq(n, 7);
            let scalar: f64 =
                a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>();
            let fast = dot(&a, &b);
            assert!((f64::from(fast) - scalar).abs() < 1e-2 * (1.0 + scalar.abs()), "n={n}");
            // Deterministic: the same inputs always give the same bits.
            assert_eq!(fast.to_bits(), dot(&a, &b).to_bits());
        }
    }

    /// `seq` with `+0.0`, `-0.0`, subnormals and `±inf` planted by a hash.
    fn mixed(n: usize, salt: u32) -> Vec<f32> {
        let mut v = seq(n, salt);
        for (i, x) in v.iter_mut().enumerate() {
            let h = (i as u32 ^ salt << 16).wrapping_mul(2_246_822_519) >> 27;
            *x = match h {
                0..=2 => 0.0,
                3..=5 => -0.0,
                6..=8 => f32::from_bits(h << 9 | 1) * x.signum(),
                9 => f32::INFINITY,
                10 => f32::NEG_INFINITY,
                _ => *x,
            };
        }
        v
    }

    #[test]
    fn dots_are_bitwise_iterator_sum() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for d in [1, 3, 16, 17] {
            for len in 0..=9 {
                let salt = (d * 10 + len) as u32;
                let positive: Vec<f32> = seq(len * d, salt).iter().map(|x| x.abs() + 1.0).collect();
                // The last pair's products are all `-0.0`: a sum that
                // started at `+0.0` would end there instead.
                let cases = [
                    (seq(d, salt + 1), seq(len * d, salt + 2)),
                    (mixed(d, salt + 3), mixed(len * d, salt + 4)),
                    (vec![-0.0; d], positive),
                ];
                for (q, rows) in cases {
                    let want: Vec<f32> = rows
                        .chunks_exact(d)
                        .map(|r| q.iter().zip(r).map(|(a, b)| a * b).sum())
                        .collect();
                    let mut got = vec![f32::NAN; len];
                    dots(&q, &rows, &mut got);
                    assert_eq!(bits(&got), bits(&want), "d={d} len={len}");
                }
            }
        }
    }

    /// Bits, each NaN as one: Rust does not fix a NaN's payload, so a
    /// payload check would test the compiler, not the kernel.
    fn canonical(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// `mixed` with its infinities replaced by `0.5`.
    fn mixed_finite(n: usize, salt: u32) -> Vec<f32> {
        mixed(n, salt).into_iter().map(|x| if x.is_finite() { x } else { 0.5 }).collect()
    }

    #[test]
    fn block_dots_are_dot_per_sample() {
        let pairs = [(0, 1), (0, 2), (1, 2)];
        for d in 1..=40 {
            for n in 1..=40 {
                let salt = (d * 64 + n) as u32;
                let features =
                    [seq(n * d, salt), mixed(n * d, salt + 1), mixed_finite(n * d, salt + 2)];
                let vector = |i: usize, s: usize| &features[i][s * d..(s + 1) * d];
                let mut block = vec![0.0; 3 * d * BLOCK];
                let mut out = vec![f32::NAN; 3 * BLOCK];
                for first in (0..n).step_by(BLOCK) {
                    // Lanes past the last sample are padding, zero.
                    block.fill(0.0);
                    for i in 0..3 {
                        for s in first..n.min(first + BLOCK) {
                            for e in 0..d {
                                block[(i * d + e) * BLOCK + s - first] = vector(i, s)[e];
                            }
                        }
                    }
                    block_dots(&block, 3, &mut out);
                    for s in first..n.min(first + BLOCK) {
                        for (p, &(i, j)) in pairs.iter().enumerate() {
                            let want = dot(vector(i, s), vector(j, s));
                            let got = out[p * BLOCK + s - first];
                            assert_eq!(
                                canonical(&[got]),
                                canonical(&[want]),
                                "d={d} n={n} s={s} pair {p}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The loop [`pair_grads`] replaced: for each pair `i < j` with a
    /// non-zero gradient `g`, `out[i] += g · v[j]`, then `out[j] += g · v[i]`.
    fn pair_loop(pairs: &[f32], v: &[f32], f: usize, out: &mut [f32]) {
        let d = v.len() / f;
        let mut g = pairs.iter();
        for i in 0..f {
            for (j, &g) in (i + 1..f).zip(&mut g) {
                if g == 0.0 {
                    continue;
                }
                let (lo, hi) = out.split_at_mut(j * d);
                axpy(&mut lo[i * d..(i + 1) * d], g, &v[j * d..(j + 1) * d]);
                axpy(&mut hi[..d], g, &v[i * d..(i + 1) * d]);
            }
        }
    }

    /// For `d` in 1..=40 and 40 samples each (`f` of 2, 3, 5 and 27):
    /// `pair_grads` is the pair loop's bits everywhere, and the tile
    /// alone is wherever the guard admits the sample. Even samples have
    /// finite vectors, every third only `±0` pair gradients, and those
    /// and every fifth a pass-through gradient (feature 0's start) with
    /// `±0`, subnormals and `±inf`.
    #[test]
    fn pair_grads_are_the_zero_skip_pair_loop() {
        let (mut tiled, mut tile_needs_guard) = (0, [false; 2]);
        for d in 1..=40 {
            for s in 0..40 {
                let f = [2, 3, 5, 27][s % 4];
                let salt = (d * 64 + s) as u32;
                let v = if s % 2 == 0 { mixed_finite(f * d, salt) } else { mixed(f * d, salt) };
                let pairs: Vec<f32> = match s % 3 {
                    0 => {
                        (0..f * (f - 1) / 2).map(|k| if k % 2 == 0 { 0.0 } else { -0.0 }).collect()
                    }
                    _ => mixed(f * (f - 1) / 2, salt + 1),
                };
                let mut start = vec![0.0; f * d];
                let pass =
                    if s % 3 == 0 || s % 5 == 0 { mixed(d, salt + 2) } else { seq(d, salt + 2) };
                start[..d].copy_from_slice(&pass);
                let mut want = start.clone();
                pair_loop(&pairs, &v, f, &mut want);
                let mut got = start.clone();
                let mut coef = vec![f32::NAN; f * f];
                pair_grads(&pairs, &v, f, &mut coef, &mut got);
                assert_eq!(canonical(&got), canonical(&want), "d={d} s={s} f={f}");
                let mut tile = start.clone();
                tile_product(&coef, [f, 1], &v, d, &mut tile);
                let negative_zero = start.iter().any(|x| x.to_bits() == (-0.0f32).to_bits());
                if v.iter().all(|x| x.is_finite()) && !negative_zero {
                    assert_eq!(canonical(&tile), canonical(&want), "tile at d={d} s={s} f={f}");
                    tiled += 1;
                } else if canonical(&tile) != canonical(&want) {
                    tile_needs_guard[usize::from(v.iter().all(|x| x.is_finite()))] = true;
                }
            }
        }
        assert!(tiled > 300, "only {tiled} samples took the tile");
        assert_eq!(tile_needs_guard, [true; 2], "a guard condition that no sample needs");
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
