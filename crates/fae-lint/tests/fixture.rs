//! Proves fae-lint fails when it should: the seeded-violation fixture
//! tree must produce exactly the pinned diagnostics, and the suppressed/
//! exempt fixture must come back clean. CI additionally runs the binary
//! over the same trees and asserts the exit codes (see ci.yml).

use std::path::{Path, PathBuf};

use fae_lint::{lint_tree, Diagnostic, FileClass};

const STRICT: FileClass =
    FileClass { deterministic: true, binary: false, net: false, metrics: false };
const NET: FileClass = FileClass { deterministic: false, binary: false, net: true, metrics: false };
const METRICS: FileClass =
    FileClass { deterministic: false, binary: false, net: false, metrics: true };
const EVERY_SCOPE: FileClass =
    FileClass { deterministic: true, binary: false, net: true, metrics: true };

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

#[test]
fn seeded_violations_are_all_caught() {
    let diags = lint_tree(&fixture("violations"), STRICT).expect("fixture tree readable");
    let got: Vec<(String, usize, String)> = diags
        .iter()
        .map(|d| {
            let file = d.file.file_name().expect("file name").to_string_lossy().into_owned();
            (file, d.line, d.rule.clone())
        })
        .collect();
    let want: &[(&str, usize, &str)] = &[
        // The flow-aware pass reports the *source line* of each flow
        // that escapes (10: Instant::now into a pub return; 15:
        // thread_rng into a pub return). `use` lines and the pure
        // construction/lookup of the HashMap in `tally` no longer fire
        // — returning a map is fine, iterating it would not be.
        ("determinism.rs", 10, "wall-clock"),
        ("determinism.rs", 15, "ambient-rng"),
        ("determinism.rs", 30, "timeline-phase"),
        ("float_fuse.rs", 5, "float-fuse"),
        ("float_fuse.rs", 11, "bad-pragma"),
        ("panics.rs", 5, "no-panic"),
        ("panics.rs", 10, "no-panic"),
        ("panics.rs", 15, "no-panic"),
        ("panics.rs", 20, "no-panic"),
        ("panics.rs", 25, "no-panic"),
        ("pragmas.rs", 5, "unused-pragma"),
        ("pragmas.rs", 10, "bad-pragma"),
        ("pragmas.rs", 15, "bad-pragma"),
        ("pragmas.rs", 16, "no-panic"),
    ];
    let want: Vec<(String, usize, String)> =
        want.iter().map(|(f, l, r)| (f.to_string(), *l, r.to_string())).collect();
    assert_eq!(got, want, "fixture diagnostics drifted");
}

#[test]
fn suppressed_and_exempt_code_is_clean() {
    let diags = lint_tree(&fixture("clean"), STRICT).expect("fixture tree readable");
    assert!(diags.is_empty(), "clean fixture reported: {diags:?}");
}

#[test]
fn every_diagnostic_renders_file_line_rule() {
    let diags = lint_tree(&fixture("violations"), STRICT).expect("fixture tree readable");
    assert!(!diags.is_empty());
    for d in &diags {
        let s = d.to_string();
        assert!(s.contains(&format!(":{}: [{}]", d.line, d.rule)), "bad rendering: {s}");
    }
}

#[test]
fn binary_classification_exempts_no_panic_only() {
    let bin = FileClass { deterministic: true, binary: true, net: false, metrics: false };
    let diags = lint_tree(&fixture("violations"), bin).expect("fixture tree readable");
    assert!(diags.iter().all(|d| d.rule != "no-panic"), "no-panic must not fire on binaries");
    assert!(
        diags.iter().any(|d| d.rule == "wall-clock"),
        "determinism rules must still fire on binaries"
    );
}

#[test]
fn net_fixture_catches_blocking_io() {
    let diags = lint_tree(&fixture("net"), NET).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[(usize, &str)] = &[
        (6, "net-deadline"),  // naked read_exact
        (10, "net-deadline"), // naked write_all
        (14, "net-deadline"), // read_to_end
        (18, "net-deadline"), // read_until
        (22, "net-deadline"), // bare TcpStream::connect
        (26, "net-deadline"), // set_read_timeout(None)
        (27, "net-deadline"), // set_write_timeout(None)
    ];
    let want: Vec<(usize, String)> = want.iter().map(|(l, r)| (*l, r.to_string())).collect();
    assert_eq!(got, want, "net fixture diagnostics drifted");
}

#[test]
fn net_fixture_is_silent_outside_the_net_scope() {
    // The same tree under a non-net classification must fire no
    // net-deadline diagnostics; the only residue is the now-pointless
    // pragma, which unused-pragma rightly calls out.
    let diags = lint_tree(&fixture("net"), STRICT).expect("fixture tree readable");
    assert!(diags.iter().all(|d| d.rule != "net-deadline"), "scope leak: {diags:?}");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    assert_eq!(got, vec![(37, "unused-pragma".to_string())], "unexpected residue");
}

#[test]
fn metrics_fixture_catches_loose_names() {
    let diags = lint_tree(&fixture("metrics"), METRICS).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[(usize, &str)] = &[
        (5, "metric-name"),  // uppercase
        (7, "metric-name"),  // spaces
        (9, "metric-name"),  // dashes
        (11, "metric-name"), // doubled separator
    ];
    let want: Vec<(usize, String)> = want.iter().map(|(l, r)| (*l, r.to_string())).collect();
    assert_eq!(got, want, "metrics fixture diagnostics drifted");
}

#[test]
fn metrics_fixture_is_silent_outside_the_metrics_scope() {
    // Under a non-metrics classification the only residue is the
    // now-pointless pragma, which unused-pragma rightly calls out.
    let diags = lint_tree(&fixture("metrics"), STRICT).expect("fixture tree readable");
    assert!(diags.iter().all(|d| d.rule != "metric-name"), "scope leak: {diags:?}");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    assert_eq!(got, vec![(17, "unused-pragma".to_string())], "unexpected residue");
}

#[test]
fn taint_fixture_pins() {
    let diags = lint_tree(&fixture("taint"), STRICT).expect("fixture tree readable");
    let got: Vec<(String, usize, String)> = diags
        .iter()
        .map(|d| {
            let file = d.file.file_name().expect("file name").to_string_lossy().into_owned();
            (file, d.line, d.rule.clone())
        })
        .collect();
    // clean.rs contributes nothing; every violations.rs finding lands
    // on the *source* line of the flow.
    let want: &[(&str, usize, &str)] = &[
        ("violations.rs", 9, "wall-clock"), // Instant::now into pub return
        ("violations.rs", 16, "hash-container"), // keys() collected, returned
        ("violations.rs", 22, "hash-container"), // ... via a renamed import
        ("violations.rs", 33, "ambient-rng"), // thread_rng into self.seed
        ("violations.rs", 38, "wall-clock"), // clock taints an if header
        ("violations.rs", 46, "wall-clock"), // source inside a private helper
        ("violations.rs", 55, "det-taint"), // pointer address escapes
    ];
    let want: Vec<(String, usize, String)> =
        want.iter().map(|(f, l, r)| (f.to_string(), *l, r.to_string())).collect();
    assert_eq!(got, want, "taint fixture diagnostics drifted");
}

#[test]
fn phase_fixture_pins() {
    let diags = lint_tree(&fixture("phases/bad"), STRICT).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[usize] = &[
        8,  // Drain missing from ALL (at the variant declaration)
        13, // ALL declares length 2, enum has 3
        16, // index maps Work outside 0..3
        35, // Timeline.seconds is [f64; 2]
    ];
    let want: Vec<(usize, String)> =
        want.iter().map(|l| (*l, "phase-balance".to_string())).collect();
    assert_eq!(got, want, "phase fixture diagnostics drifted");

    let clean = lint_tree(&fixture("phases/clean"), STRICT).expect("fixture tree readable");
    assert!(clean.is_empty(), "clean phase fixture reported: {clean:?}");
}

#[test]
fn lock_fixture_pins() {
    let diags = lint_tree(&fixture("locks/bad"), STRICT).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[usize] = &[
        13, // right acquired while holding left (cycle edge)
        19, // left acquired while holding right (cycle edge)
        25, // left re-acquired while held (self-deadlock)
    ];
    let want: Vec<(usize, String)> = want.iter().map(|l| (*l, "lock-order".to_string())).collect();
    assert_eq!(got, want, "lock fixture diagnostics drifted");

    let clean = lint_tree(&fixture("locks/clean"), STRICT).expect("fixture tree readable");
    assert!(clean.is_empty(), "clean lock fixture reported: {clean:?}");
}

#[test]
fn wire_fixture_pins() {
    // Pre-suppression pass output, so findings sharing a line stay
    // visible individually.
    let dir = fixture("wire/bad");
    let source = std::fs::read_to_string(dir.join("wire.rs")).expect("wire fixture readable");
    let design = std::fs::read_to_string(dir.join("design.md")).expect("design fixture readable");
    let mut got = fae_lint::wire_findings(&source, &design);
    got.sort();
    let want: &[(usize, &str)] = &[
        (6, "ranges `core` (0-4) and `aux` (4-6) overlap"),
        (6, "decode accepts undeclared tag 3"),
        (6, "tag 1 is shared by variants Data, Poll"),
        (8, "tag 1 encodes `Data` but decodes to `Poll`"),
        (10, "tag 7 (`Stats`) falls outside every declared wire-tags range"),
        (10, "never decoded"),
    ];
    assert_eq!(got.len(), want.len(), "wire fixture count drifted: {got:#?}");
    for ((gl, gm), (wl, wm)) in got.iter().zip(want) {
        assert_eq!(gl, wl, "wire finding moved: {gm}");
        assert!(gm.contains(wm), "wire finding drifted: got `{gm}`, want `{wm}`");
    }

    // The post-suppression entry point used by the CLI must fail on
    // the bad pair and accept the clean pair.
    let bad = lint_tree(&dir, NET).expect("bad wire fixture readable");
    assert!(!bad.is_empty());
    assert!(bad.iter().all(|d| d.rule == "wire-compat"));
    let clean = lint_tree(&fixture("wire/clean"), NET).expect("clean wire fixture readable");
    assert!(clean.is_empty(), "clean wire fixture reported: {clean:?}");
}

#[test]
fn scanner_fixture_pins() {
    // What only the scanner decides: where literals, comments, pragmas
    // and test-gated items begin and end. The `boundaries.rs` rows were
    // printed by the two-scanner build (scrubber + tokenizer) before the
    // token-tree port and must never change; the clean twin also holds
    // the two false hits that build reported (`[u8; 4]` in a gated fn's
    // signature, a wrapped `timeline.add(⏎ Phase::…)`).
    let diags = lint_tree(&fixture("scanner/bad"), EVERY_SCOPE).expect("fixture tree readable");
    let got: Vec<(String, usize, String)> = diags
        .iter()
        .map(|d| {
            let file = d.file.file_name().expect("file name").to_string_lossy().into_owned();
            (file, d.line, d.rule.clone())
        })
        .collect();
    let want: &[(&str, usize, &str)] = &[
        ("boundaries.rs", 8, "no-panic"),        // after r#"…"#
        ("boundaries.rs", 9, "no-panic"),        // after r##"…"##
        ("boundaries.rs", 14, "no-panic"),       // after a byte string
        ("boundaries.rs", 15, "no-panic"),       // after a nested block comment
        ("boundaries.rs", 19, "no-panic"),       // after '"'
        ("boundaries.rs", 24, "no-panic"),       // lifetimes beside char literals
        ("boundaries.rs", 29, "no-panic"),       // pragma text in a string is not a pragma
        ("boundaries.rs", 34, "no-panic"),       // ... nor in a block comment
        ("boundaries.rs", 38, "no-panic"),       // ... nor in a `///` doc comment
        ("boundaries.rs", 43, "no-panic"),       // two lines below a pragma
        ("boundaries.rs", 48, "no-panic"),       // multi-byte text earlier on the line
        ("boundaries.rs", 49, "metric-name"),    // multi-byte text inside the name
        ("boundaries.rs", 54, "timeline-phase"), // `,` and `)` inside a string argument
        ("boundaries.rs", 56, "no-panic"),       // m["k"], but not ["k", "j"]
        ("boundaries.rs", 60, "net-deadline"),   // after the same call quoted in a string
        ("boundaries.rs", 65, "float-fuse"),     // after the same call quoted in a string
        ("boundaries.rs", 71, "no-panic"),       // `#[cfg(test)] mod tests;` ends at the `;`
        ("boundaries.rs", 78, "no-panic"),       // `#[cfg(all(test, unix))] mod` ends at its `}`
        ("boundaries.rs", 84, "no-panic"),       // `#[test] #[should_panic] fn` ends at its `}`
        // Rows the two-scanner build got wrong (missed, all four):
        ("gates_and_wraps.rs", 7, "no-panic"), // `#[cfg(not(test))]` is not a test gate
        ("gates_and_wraps.rs", 12, "no-panic"), // nor is `#[cfg_attr(test, …)]`
        ("gates_and_wraps.rs", 16, "metric-name"), // name wrapped onto the next line
        ("gates_and_wraps.rs", 23, "no-panic"), // `x.unwrap ()`
    ];
    let want: Vec<(String, usize, String)> =
        want.iter().map(|(f, l, r)| (f.to_string(), *l, r.to_string())).collect();
    assert_eq!(got, want, "scanner fixture diagnostics drifted");

    let clean = lint_tree(&fixture("scanner/clean"), EVERY_SCOPE).expect("fixture tree readable");
    assert!(clean.is_empty(), "clean scanner fixture reported: {clean:?}");
}

/// Runs one `scripts/lint.sh` self-test invocation through the library:
/// `args` is the script's argument list with `$FIX/` dropped.
fn invoke(args: &str) -> Vec<Diagnostic> {
    let mut words = args.split_whitespace();
    let (flag, dir) = (words.next(), fixture(words.next().expect("a fixture tree")));
    let mut class = FileClass { deterministic: false, binary: true, net: false, metrics: false };
    for w in words {
        match w {
            "--det" => class.deterministic = true,
            "--lib" => class.binary = false,
            "--net" => class.net = true,
            "--metrics" => class.metrics = true,
            _ => panic!("unknown flag {w}"),
        }
    }
    assert_eq!(flag, Some("--tree"), "unknown invocation {args}");
    lint_tree(&dir, class).expect("fixture tree readable")
}

/// Every self-test invocation of `scripts/lint.sh`, in script order
/// (eight must-fail trees, then five clean twins): the diagnostic count
/// and an FNV-1a of the sorted `(file name, line, rule, message)` rows.
/// File names only, because the walked paths are absolute.
const LINT_SH: &[(&str, usize, u64)] = &[
    ("--tree violations --det --lib", 14, 0x03f379a3fff86846),
    ("--tree phases/bad --lib", 4, 0xddf6e7a93085efeb),
    ("--tree locks/bad --lib", 3, 0x2bc93fcbe9fbcbc3),
    ("--tree taint --det --lib", 7, 0xeabffcdc6eb03542),
    ("--tree wire/bad --lib --net", 3, 0x5945c3e21c0ad0cf),
    ("--tree net --lib --net", 7, 0x4dfdd09b1dd022c0),
    ("--tree metrics --lib --metrics", 4, 0x188f0b5237e759a5),
    ("--tree scanner/bad --det --lib --net --metrics", 23, 0xd302dcada50f7c55),
    ("--tree clean --det --lib", 0, 0xcbf29ce484222325),
    ("--tree phases/clean --lib", 0, 0xcbf29ce484222325),
    ("--tree locks/clean --lib", 0, 0xcbf29ce484222325),
    ("--tree wire/clean --lib --net", 0, 0xcbf29ce484222325),
    ("--tree scanner/clean --det --lib --net --metrics", 0, 0xcbf29ce484222325),
];

#[test]
fn every_lint_sh_invocation_is_pinned() {
    let actual: Vec<(&str, usize, u64)> = LINT_SH
        .iter()
        .map(|&(args, _, _)| {
            let mut rows: Vec<(String, usize, String, String)> = invoke(args)
                .into_iter()
                .map(|d| {
                    let file = d.file.file_name().expect("file name").to_string_lossy();
                    (file.into_owned(), d.line, d.rule, d.message)
                })
                .collect();
            rows.sort();
            let hash = rows
                .iter()
                .flat_map(|(f, l, r, m)| format!("{f}\t{l}\t{r}\t{m}\n").into_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            (args, rows.len(), hash)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(args, n, hash)| format!("    (\"{args}\", {n}, 0x{hash:016x}),\n"))
        .collect();
    assert!(actual == LINT_SH, "lint.sh fixture pins moved; actual table:\n{table}");
}

#[test]
fn lookup_only_hash_maps_need_no_pragma() {
    // The flow-aware `hash-container` rule fires on iteration order
    // escaping, not on mentions: the lookup-only maps PR 10 converted
    // (trainer cost caches, serve frequency table, overlap scheduler
    // state) must lint clean without a single suppression.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent);
    let root = root.expect("workspace root above crates/fae-lint");
    for rel in [
        "crates/fae-core/src/trainer/run.rs",
        "crates/fae-serve/src/cache.rs",
        "crates/fae-sysmodel/src/overlap.rs",
    ] {
        let source = std::fs::read_to_string(root.join(rel)).expect("converted file readable");
        assert!(source.contains("HashMap"), "{rel} no longer uses a HashMap; pick another witness");
        assert!(!source.contains("allow(hash-container"), "{rel} carries a hash-container pragma");
        let class = fae_lint::classify(Path::new(rel)).expect("converted file is linted");
        assert!(class.deterministic, "{rel} must be in the det scope for this to mean anything");
        let diags = fae_lint::lint_source(Path::new(rel), &source, class);
        assert!(diags.is_empty(), "{rel} should lint clean: {diags:?}");
    }
}

#[test]
fn workspace_is_clean() {
    // The tentpole's end state: the real workspace carries zero
    // violations. Walk up from this crate to the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent);
    let root = root.expect("workspace root above crates/fae-lint");
    let diags = fae_lint::lint_workspace(root).expect("workspace walkable");
    assert!(diags.is_empty(), "workspace violations:\n{diags:#?}");
}
