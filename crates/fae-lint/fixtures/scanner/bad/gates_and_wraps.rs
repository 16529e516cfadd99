//! Sites the line-at-a-time matchers missed: items behind a `cfg` that
//! merely *mentions* `test`, an unroll width on the line after its call,
//! and a call with a space before its parentheses. Each must fire.

#[cfg(not(test))]
pub fn only_in_release_builds(m: &Map) -> u32 {
    m["k"]
}

#[cfg_attr(test, derive(Debug))]
pub struct AlwaysCompiled {
    pub lanes: [f32; LANES["width"]],
}

pub fn wrapped_unroll(dst: &mut [f32]) {
    let lanes = dst.chunks_exact_mut(
        8
    );
    drop(lanes);
}

pub fn spaced_call(dst: &mut [f32]) {
    let _ = dst.chunks_exact (8);
}
