//! Scanner boundaries, silent half. Every trigger below sits inside a
//! literal, a comment, a test-gated item or a pragma's two-line window,
//! or is a near-miss of a rule's shape; the tree must lint clean under
//! every scope at once (`--det --lib --net --metrics`). Pragma syntax
//! that is merely *quoted* (string, block comment, doc comment) must be
//! neither honoured nor reported as `bad-pragma`/`unused-pragma`.

pub fn triggers_inside_literals(v: &[u32]) -> u32 {
    let _a = r#"x.unwrap() "quoted" panic!("no") m["k"]"#;
    let _b = r##"y.expect("m") "# still raw todo!()"##;
    let _c = b"z.unwrap() s.read_exact(b) t.counter_add(\"Bad Name\", 1)";
    let _d = "he said \"x.unwrap()\" and left; dst.chunks_exact(8)";
    let _e = ('"', '\'', '}', "timeline.add(secs, 1.0)");
    v.first().copied().unwrap_or(0)
}

pub fn triggers_inside_comments(v: &[u32]) -> u32 {
    /* outer /* inner x.unwrap() */ still comment: panic!("no") m["k"] */
    /* multi
       line x.expect("no")
    */
    // x.unwrap() TcpStream::connect(addr) t.gauge_set("Bad Name", 0.0)
    v.len() as u32 // trailing: unreachable!()
}

pub fn lifetimes<'a, 'b: 'a>(x: &'a [u8], _y: &'b str, _s: &'static str) -> u8 {
    let _c = 'a'; let _d = b'\''; let _e = '\u{1F600}';
    x.first().copied().unwrap_or(b'"')
}

/// Quoting the syntax is fine: `// fae-lint: allow(no-panic)` suppresses a site.
pub fn quoted_pragmas() -> &'static str {
    /* fae-lint: allow(not-even-a-rule) */
    "fae-lint: allow(oops"
}

pub fn pragma_window(v: &[u32]) -> u32 {
    // fae-lint: allow(no-panic, reason = "line above the hit")
    let a = v.first().unwrap();
    let b = v.last().unwrap(); // fae-lint: allow(no-panic, reason = "same line as the hit")
    a + b
}

pub fn after_multibyte_text(v: &[u32], t: &Telemetry) -> u32 {
    // fae-lint: allow(no-panic, reason = "ünïcödé in the reason — still parses, still covers")
    let _s = "héllo — ünïcödé ✓"; /* ∑ naïve */ let z = v.first().unwrap();
    /* naïve → */ t.counter_add("scanner.good_name", 1);
    *z
}

pub fn near_misses(timeline: &mut Timeline, hist: &mut Hist, phase: &Phase, secs: f64) {
    timeline.add(phase_of("a,b)"), secs);
    timeline.add(Phase::Transfer, cost("x, y"));
    timeline.add(*phase, secs);
    hist.add(secs);
    let _names = ["k", "j"];
    let _more = vec!["k"];
    let _ = reconnect(hist);
    let _ = TcpStream::connect_timeout(&addr(), dur(5));
    let _ = Some(1u8).unwrap_or_default();
    for c in [0.0f32; 16].chunks_exact(4) { hist.add(c[0] as f64); }
}

pub fn wrapped_good_name(t: &Telemetry, m: &Metrics, name: &str) {
    t.counter_add(
        "scanner.wrapped_good_name",
        1,
    );
    m.counter_add(name, 1);
    m.window.observe(0.5);
}

#[cfg(test)]
mod tests;

#[cfg(all(test, unix))]
mod gated {
    pub fn exempt(v: &[u32]) -> u32 { let _s = "}"; let _c = '}'; *v.first().unwrap() }
}

#[test]
#[should_panic]
fn exempt_test_fn() { None::<u8>.unwrap(); }

#[cfg(test)]
mod inline_tests {
    use std::time::Instant;

    #[test]
    fn anything_goes() {
        let t = Instant::now();
        let m: Map = Map::new();
        assert!(m["k"] == 0 && t.elapsed().as_secs() < 60, "{}", "}");
        panic!("tests may panic");
    }
}
