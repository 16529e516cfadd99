//! False hits of the line-at-a-time matchers: a test-gated fn whose
//! signature holds a `;`, and an unroll whose width expression rustfmt
//! wrapped onto the next line. Both must stay silent.

#[cfg(test)]
fn h(buf: [u8; 4], m: &Map) -> u8 { buf[0] + m["k"] }

pub fn wrapped_width(dst: &mut [f32]) {
    let lanes = dst.chunks_exact_mut(
        8 * 2,
    );
    drop(lanes);
}
