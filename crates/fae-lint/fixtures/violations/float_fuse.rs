//! Seeded float-fuse violations: 8-lane unroll sites outside
//! fae-nn/src/lanes.rs.

pub fn naked_unroll(dst: &mut [f32]) {
    for c in dst.chunks_exact_mut(8) {
        c[0] += 1.0;
    }
}

pub fn naked_reduction(src: &[f32]) -> f32 {
    let it = src.chunks_exact(8);
    it.remainder().len() as f32
}
