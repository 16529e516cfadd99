//! Sites the line-at-a-time matchers missed: items behind a `cfg` that
//! merely *mentions* `test`, a metric name on the line after its call,
//! and a call with a space before its parentheses. Each must fire.

#[cfg(not(test))]
pub fn only_in_release_builds(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

#[cfg_attr(test, derive(Debug))]
pub struct AlwaysCompiled {
    pub lanes: [f32; LANES.checked_next_power_of_two().unwrap()],
}

pub fn wrapped_metric_name(t: &Telemetry) {
    t.counter_add(
        "Bad Name",
        1,
    );
}

pub fn spaced_call(v: &[u32]) -> u32 {
    *v.first().unwrap ()
}
