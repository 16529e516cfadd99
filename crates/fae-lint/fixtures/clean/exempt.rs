//! Everything in this file is either test-exempt or simply allowed —
//! fae-lint must report it clean under the strictest classification
//! (deterministic library code).

use std::collections::BTreeMap;

pub fn tally(xs: &[u32]) -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

pub fn safe_pick(m: &BTreeMap<u32, u32>) -> u32 {
    m.get(&1).copied().unwrap_or(0)
}

pub fn unrolled_by_four(dst: &mut [f32], s: f32) {
    for c in dst.chunks_exact_mut(4) {
        c[0] *= s;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn tests_may_do_anything() {
        let t = Instant::now();
        let mut m = HashMap::new();
        m.insert("k", t);
        assert!(m["k"].elapsed().as_secs() < 60);
        for c in [0.0f32; 16].chunks_exact(8) {
            assert_eq!(c[0], 0.0);
        }
    }
}
