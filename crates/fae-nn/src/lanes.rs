//! Manually 8-wide unrolled `f32` kernels for the hot numeric loops.
//!
//! The workspace forbids `unsafe`, so there are no intrinsics here — just
//! fixed-width unrolls over `chunks_exact(8)` that the compiler can keep in
//! SIMD registers. fae-lint's `float-fuse` rule reports such an unroll
//! anywhere else in library code, so every one lives here, beside its
//! contract. Two families live side by side with *different*
//! bit-identity contracts (DESIGN.md §14):
//!
//! * **Elementwise** kernels ([`add_assign`], [`axpy`], [`scale_assign`])
//!   touch each element independently; unrolling changes no addition order,
//!   so results are bit-identical to the scalar loop they replace.
//! * The **reduction** kernel [`dot`] keeps 8 partial accumulators and
//!   folds them pairwise at the end. This *reorders* f32 addition
//!   relative to a left-to-right scalar sum — the documented carve-out of
//!   DESIGN.md §14. Every digest/golden test in the workspace
//!   compares two runs of the *same* binary, so the contract that matters
//!   (run-to-run and serial-vs-parallel bit-identity) is preserved because
//!   every path shares these kernels.
//!
//! Built for the host CPU (`.cargo/config.toml`), an 8-wide chunk is one
//! 256-bit `ymm` register on AVX2 / AVX-512: [`axpy`] and [`add_assign`]
//! also pair chunks into 512-bit `zmm` in their main loop, and [`dot`]
//! multiplies a chunk in one `ymm`. Baseline x86-64 (SSE2) splits it over
//! two `xmm`; each lane's bits are the same (DESIGN.md §14, "Target ISA").
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

/// Dot product with 8 partial accumulators folded pairwise at the end.
///
/// This reorders f32 addition relative to a left-to-right scalar sum — the
/// DESIGN.md §14 carve-out. Panics on length mismatch.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
