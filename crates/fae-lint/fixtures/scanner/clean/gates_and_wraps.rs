//! False hits of the line-at-a-time matchers: a test-gated fn whose
//! signature holds a `;`, and a timeline charge whose `Phase::` argument
//! rustfmt moved to the next line. Both must stay silent.

#[cfg(test)]
fn h(buf: [u8; 4]) -> u8 { *buf.first().unwrap() }

pub fn wrapped_charge(tl: &mut Accounting) {
    tl.timeline.add(
        Phase::Transfer,
        1.0,
    );
}
