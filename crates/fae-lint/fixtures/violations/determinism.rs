//! Seeded determinism violations. Every marked line below must produce a
//! diagnostic; `tests/fixture.rs` pins the exact rule and line numbers,
//! and CI runs fae-lint over this tree expecting a non-zero exit.
//! The `use` lines and the innocent HashMap below are deliberately
//! diagnostic-free: the flow-aware pass flags escaping flows, not
//! mentions.

pub fn stamp() -> Instant {
    // wall-clock: the host-clock read escapes through the pub return.
    Instant::now()
}

pub fn entropy() -> u64 {
    // ambient-rng: the ambient generator's output escapes (line 15).
    let mut r = rand::thread_rng();
    r.next_u64()
}

pub fn tally(xs: &[u32]) -> HashMap<u32, u32> {
    // Clean: building and returning a HashMap is order-independent;
    // only *iterating* one into digest-affecting state is a violation.
    let mut m = HashMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
