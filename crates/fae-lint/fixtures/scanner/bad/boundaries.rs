//! Scanner boundaries, firing half. Each shape below could fool a
//! scanner into swallowing live code; the hit that follows it must
//! still fire. The exact (file, line, rule) triples are pinned by
//! `scanner_fixture_pins` in `tests/fixture.rs`; the silent twins live
//! in `../clean/`.

pub fn after_raw_strings(m: &Map) -> u32 {
    let _a = r#"m["k"] "quoted" panic!("no")"#; let a = m["k"];
    let _b = r##"m["j"] "# still raw"##; let b = m["j"];
    a + b
}

pub fn after_byte_string_and_nested_comment(m: &Map) -> u32 {
    let _c = b"m[\"k\"]"; let c = m["k"];
    /* outer /* inner m["k"] */ still comment m["j"] */ c + m["live"]
}

pub fn after_a_quote_char(m: &Map) -> u32 {
    let _q = '"'; let r = m["k"]; let _s = "tail";
    r
}

pub fn life<'a>(x: &'a [u8], _s: &'static str, m: &Map) -> u8 {
    let _c = 'a'; let _d = b'\''; x[0] + m["k"]
}

pub fn after_quoted_escapes(m: &Map) -> u32 {
    let _p = "// a \"line comment\" inside a string";
    m["k"]
}

pub fn after_a_block_comment(m: &Map) -> u32 {
    /* // a line comment inside a block comment: m["k"] */
    m["k"]
}

/// A doc comment quoting m["k"] hides it; the next line does not.
pub fn after_a_doc_comment(m: &Map) -> u32 { m["k"] }

pub fn after_a_line_comment(m: &Map) -> u32 {
    // a line comment ends at its newline: m["k"]
    let a = m.len() as u32; // ... and a trailing one at its own: m["k"]
    let b = m["k"];
    a + b
}

pub fn after_multibyte_text(m: &Map) -> u32 {
    let _s = "héllo — ünïcödé ✓"; /* ∑ naïve */ let z = m["k"];
    /* naïve → */ let y = m["Bäd Näme"];
    z + y
}

pub fn strings_hide_delimiters(m: &Map) -> u64 {
    let _ = (lookup("a,b)"), m["k"]);
    let _names = ["k", "j"];
    m["k"]
}

pub fn after_the_same_index_quoted(m: &Map) {
    let _doc = "m[\"k\"] is only text here"; let _ = m["k"];
    let _ = m.get("k");
}

pub fn unroll(dst: &mut [f32]) {
    let _w = "dst.chunks_exact_mut(8)"; for c in dst.chunks_exact_mut(8) { c[0] = 0.0; }
}

#[cfg(test)]
mod tests;

pub fn after_an_out_of_line_test_module(m: &Map) -> u32 { m["k"] }

#[cfg(all(test, unix))]
mod gated {
    pub fn exempt(m: &Map) -> u32 { let _s = "}"; let _c = '}'; m["k"] }
}

pub fn after_a_gated_module(m: &Map) -> u32 { m["k"] }

#[test]
#[should_panic]
fn exempt_test_fn() { Map::new()["k"]; }

pub fn after_a_test_fn(m: &Map) -> u32 { m["k"] }
