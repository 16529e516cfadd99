//! Scanner boundaries, firing half. Each shape below could fool a
//! scanner into swallowing live code (or into honouring a pragma that
//! is not one); the hit that follows it must still fire. The exact
//! (file, line, rule) triples are pinned by `scanner_fixture_pins` in
//! `tests/fixture.rs`; the silent twins live in `../clean/`.

pub fn after_raw_strings(v: &[u32]) -> u32 {
    let _a = r#"x.unwrap() "quoted" panic!("no")"#; let a = v.first().unwrap();
    let _b = r##"y.expect("m") "# still raw"##; let b = v.last().expect("live");
    a + b
}

pub fn after_byte_string_and_nested_comment(v: &[u32]) -> u32 {
    let _c = b"z.unwrap()"; let c = v.first().unwrap();
    /* outer /* inner x.unwrap() */ still comment todo!() */ panic!("live {c}");
}

pub fn after_a_quote_char(v: &[u32]) -> u32 {
    let _q = '"'; let r = v.first().unwrap(); let _s = "tail";
    *r
}

pub fn life<'a>(x: &'a [u8], _s: &'static str) -> u8 {
    let _c = 'a'; let _d = b'\''; *x.first().unwrap()
}

pub fn pragma_inside_a_string(v: &[u32]) -> u32 {
    let _p = "// fae-lint: allow(no-panic, reason = \"inside a string\")";
    *v.first().unwrap()
}

pub fn pragma_inside_a_block_comment(v: &[u32]) -> u32 {
    /* // fae-lint: allow(no-panic, reason = "inside a block comment") */
    *v.first().unwrap()
}

/// fae-lint: allow(no-panic, reason = "doc comments describe the syntax, they never suppress")
pub fn pragma_inside_a_doc_comment(v: &[u32]) -> u32 { *v.first().unwrap() }

pub fn pragma_window_is_two_lines(v: &[u32]) -> u32 {
    // fae-lint: allow(no-panic, reason = "covers this line and the next, no further")
    let a = v.first().unwrap();
    let b = v.last().unwrap();
    a + b
}

pub fn after_multibyte_text(v: &[u32], t: &Telemetry) -> u32 {
    let _s = "héllo — ünïcödé ✓"; /* ∑ naïve */ let z = v.first().unwrap();
    /* naïve → */ t.counter_add("Bad Näme", 1);
    *z
}

pub fn strings_hide_delimiters(timeline: &mut Timeline, secs: f64, m: &Map) -> u64 {
    timeline.add(lookup("a,b)"), secs);
    let _names = ["k", "j"];
    m["k"]
}

pub fn socket_calls(s: &mut TcpStream, buf: &mut [u8]) {
    let _doc = "s.read_exact(buf) is only text here"; s.read_exact(buf).ok();
    let _ = reconnect(s); let _ = TcpStream::connect_timeout(&addr(), dur(5));
}

pub fn unroll(dst: &mut [f32]) {
    let _w = "dst.chunks_exact_mut(8)"; for c in dst.chunks_exact_mut(8) { c[0] = 0.0; }
}

#[cfg(test)]
mod tests;

pub fn after_an_out_of_line_test_module(v: &[u32]) -> u32 { *v.first().unwrap() }

#[cfg(all(test, unix))]
mod gated {
    pub fn exempt(v: &[u32]) -> u32 { let _s = "}"; let _c = '}'; *v.first().unwrap() }
}

pub fn after_a_gated_module(v: &[u32]) -> u32 { *v.first().unwrap() }

#[test]
#[should_panic]
fn exempt_test_fn() { None::<u8>.unwrap(); }

pub fn after_a_test_fn(v: &[u32]) -> u32 { *v.first().unwrap() }
