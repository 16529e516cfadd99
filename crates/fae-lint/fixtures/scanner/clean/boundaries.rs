//! Scanner boundaries, silent half. Every trigger below sits inside a
//! literal, a comment or a test-gated item, or is a near-miss of a
//! rule's shape; the tree must lint clean under every scope at once
//! (`--det --lib`).

pub fn triggers_inside_literals(v: &[u32]) -> u32 {
    let _a = r#"x.unwrap() "quoted" panic!("no") m["k"]"#;
    let _b = r##"y.expect("m") "# still raw m["k"]"##;
    let _c = b"z.unwrap() s.read_exact(b) m[\"k\"]";
    let _d = "he said \"m[\\\"k\\\"]\" and left; dst.chunks_exact(8)";
    let _e = ('"', '\'', '}', "m[\"k\"]");
    v.first().copied().unwrap_or(0)
}

pub fn triggers_inside_comments(v: &[u32]) -> u32 {
    /* outer /* inner m["k"] */ still comment: dst.chunks_exact(8) */
    /* multi
       line m["k"]
    */
    // m["k"] dst.chunks_exact_mut(8)
    v.len() as u32 // trailing: m["k"]
}

pub fn lifetimes<'a, 'b: 'a>(x: &'a [u8], _y: &'b str, _s: &'static str) -> u8 {
    let _c = 'a'; let _d = b'\''; let _e = '\u{1F600}';
    x.first().copied().unwrap_or(b'"')
}

/// Quoting a trigger in a doc comment is fine: `m["k"]`, `dst.chunks_exact(8)`.
pub fn quoted_in_a_doc_comment() -> &'static str {
    "m[\"k\"]"
}

pub fn after_multibyte_text(m: &Map) -> Option<u32> {
    let _s = "héllo — ünïcödé ✓"; /* ∑ naïve */ let z = m.get("k");
    /* naïve → */ let _k = "Bäd Näme";
    z
}

pub fn near_misses(hist: &mut Hist, m: &Map) {
    let _names = ["k", "j"];
    let _more = vec!["k"];
    let _ = m.get("k");
    for c in [0.0f32; 16].chunks_exact(4) { hist.add(c[0] as f64); }
    let _ = hist.lanes.chunks_exact(8 * 2);
}

#[cfg(test)]
mod tests;

#[cfg(all(test, unix))]
mod gated {
    pub fn exempt(m: &Map) -> u32 { let _s = "}"; let _c = '}'; m["k"] }
}

#[test]
#[should_panic]
fn exempt_test_fn() { Map::new()["k"]; }

#[cfg(test)]
mod inline_tests {
    use std::time::Instant;

    #[test]
    fn anything_goes() {
        let t = Instant::now();
        let m: Map = Map::new();
        assert!(m["k"] == 0 && t.elapsed().as_secs() < 60, "{}", "}");
        for c in [0.0f32; 16].chunks_exact(8) { assert_eq!(c[0], 0.0); }
    }
}
