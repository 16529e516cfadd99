//! Proves fae-lint fails when it should: the seeded-violation fixture
//! tree must produce exactly the pinned diagnostics, and the exempt
//! fixture must come back clean. CI additionally runs the binary
//! over the same trees and asserts the exit codes (see ci.yml).

#![expect(clippy::expect_used, clippy::panic, reason = "a test helper fails its test by panicking")]

use std::path::{Path, PathBuf};

use fae_lint::{lint_tree, Diagnostic, FileClass};

const STRICT: FileClass = FileClass { deterministic: true, binary: false };

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

/// A diagnostic's file name: the walked fixture paths are absolute.
fn file_name(d: &Diagnostic) -> String {
    d.file.file_name().expect("file name").to_string_lossy().into_owned()
}

/// Lints fixture `tree` and holds its `(file name, line, rule)` triples
/// to `want`, in order.
fn assert_pins(tree: &str, class: FileClass, want: &[(&str, usize, &str)]) {
    let diags = lint_tree(&fixture(tree), class).expect("fixture tree readable");
    let got: Vec<(String, usize, &str)> =
        diags.iter().map(|d| (file_name(d), d.line, d.rule.as_str())).collect();
    let want: Vec<(String, usize, &str)> =
        want.iter().map(|&(f, l, r)| (f.to_string(), l, r)).collect();
    assert_eq!(got, want, "{tree} diagnostics drifted");
}

#[test]
fn seeded_violations_are_all_caught() {
    // The flow-aware pass reports the *source line* of each flow that
    // escapes (10: Instant::now into a pub return; 15: thread_rng into a
    // pub return). `use` lines and the pure construction/lookup of the
    // HashMap in `tally` do not fire — returning a map is fine,
    // iterating it would not be.
    let want = [
        ("determinism.rs", 10, "wall-clock"),
        ("determinism.rs", 15, "ambient-rng"),
        ("float_fuse.rs", 5, "float-fuse"),
        ("float_fuse.rs", 11, "float-fuse"),
        ("map_index.rs", 5, "map-index"),
    ];
    assert_pins("violations", STRICT, &want);
}

#[test]
fn exempt_code_is_clean() {
    assert_pins("clean", STRICT, &[]);
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
fn binary_classification_exempts_map_index_and_float_fuse_only() {
    let bin = FileClass { deterministic: true, binary: true };
    let want = [("determinism.rs", 10, "wall-clock"), ("determinism.rs", 15, "ambient-rng")];
    assert_pins("violations", bin, &want);
}

#[test]
fn taint_fixture_pins() {
    // clean.rs contributes nothing; every violations.rs finding lands
    // on the *source* line of the flow.
    let want = [
        ("violations.rs", 9, "wall-clock"), // Instant::now into pub return
        ("violations.rs", 16, "hash-container"), // keys() collected, returned
        ("violations.rs", 22, "hash-container"), // ... via a renamed import
        ("violations.rs", 33, "ambient-rng"), // thread_rng into self.seed
        ("violations.rs", 38, "wall-clock"), // clock taints an if header
        ("violations.rs", 46, "wall-clock"), // source inside a private helper
        ("violations.rs", 55, "det-taint"), // pointer address escapes
    ];
    assert_pins("taint", STRICT, &want);
}

#[test]
fn scanner_fixture_pins() {
    // What only the scanner decides: where literals, comments and
    // test-gated items begin and end. The `boundaries.rs` rows were
    // printed by the two-scanner build (scrubber + tokenizer) before the
    // token-tree port and must never move; each now fires through a
    // rule that stays. The clean twin also holds a false hit that build
    // reported (`[u8; 4]` in a gated fn's signature).
    let want = [
        ("boundaries.rs", 8, "map-index"),   // after r#"…"#
        ("boundaries.rs", 9, "map-index"),   // after r##"…"##
        ("boundaries.rs", 14, "map-index"),  // after a byte string
        ("boundaries.rs", 15, "map-index"),  // after a nested block comment
        ("boundaries.rs", 19, "map-index"),  // after '"'
        ("boundaries.rs", 24, "map-index"),  // lifetimes beside char literals
        ("boundaries.rs", 29, "map-index"),  // after `//` and `\"` inside a string
        ("boundaries.rs", 34, "map-index"),  // after `//` inside a block comment
        ("boundaries.rs", 38, "map-index"),  // after a `///` doc comment
        ("boundaries.rs", 43, "map-index"),  // after a trailing line comment
        ("boundaries.rs", 48, "map-index"),  // multi-byte text earlier on the line
        ("boundaries.rs", 49, "map-index"),  // multi-byte text inside the key
        ("boundaries.rs", 54, "map-index"),  // `,` and `)` inside a string argument
        ("boundaries.rs", 56, "map-index"),  // m["k"], but not ["k", "j"]
        ("boundaries.rs", 60, "map-index"),  // after the same index quoted in a string
        ("boundaries.rs", 65, "float-fuse"), // after the same call quoted in a string
        ("boundaries.rs", 71, "map-index"),  // `#[cfg(test)] mod tests;` ends at the `;`
        ("boundaries.rs", 78, "map-index"),  // `#[cfg(all(test, unix))] mod` ends at its `}`
        ("boundaries.rs", 84, "map-index"),  // `#[test] #[should_panic] fn` ends at its `}`
        // Rows the two-scanner build got wrong (missed, all four):
        ("gates_and_wraps.rs", 7, "map-index"), // `#[cfg(not(test))]` is not a test gate
        ("gates_and_wraps.rs", 12, "map-index"), // nor is `#[cfg_attr(test, …)]`
        ("gates_and_wraps.rs", 16, "float-fuse"), // width wrapped onto the next line
        ("gates_and_wraps.rs", 23, "float-fuse"), // `x.chunks_exact (8)`
    ];
    assert_pins("scanner/bad", STRICT, &want);
    assert_pins("scanner/clean", STRICT, &[]);
}

/// Runs one `scripts/lint.sh` self-test invocation through the library:
/// `args` is the script's argument list with `$FIX/` dropped.
fn invoke(args: &str) -> Vec<Diagnostic> {
    let mut words = args.split_whitespace();
    let (flag, dir) = (words.next(), fixture(words.next().expect("a fixture tree")));
    let mut class = FileClass { deterministic: false, binary: true };
    for w in words {
        match w {
            "--det" => class.deterministic = true,
            "--lib" => class.binary = false,
            _ => panic!("unknown flag {w}"),
        }
    }
    assert_eq!(flag, Some("--tree"), "unknown invocation {args}");
    lint_tree(&dir, class).expect("fixture tree readable")
}

/// Every self-test invocation of `scripts/lint.sh`, in script order
/// (three must-fail trees, then two clean twins): the diagnostic count
/// and an FNV-1a of the sorted `(file name, line, rule, message)` rows.
const LINT_SH: &[(&str, usize, u64)] = &[
    ("--tree violations --det --lib", 5, 0x76e940d525647e42),
    ("--tree taint --det --lib", 7, 0xecd8d11264385e30),
    ("--tree scanner/bad --det --lib", 23, 0x287b64a9f4ef368d),
    ("--tree clean --det --lib", 0, 0xcbf29ce484222325),
    ("--tree scanner/clean --det --lib", 0, 0xcbf29ce484222325),
];

#[test]
fn every_lint_sh_invocation_is_pinned() {
    let actual: Vec<(&str, usize, u64)> = LINT_SH
        .iter()
        .map(|&(args, _, _)| {
            let mut rows: Vec<(String, usize, String, String)> = invoke(args)
                .into_iter()
                .map(|d| (file_name(&d), d.line, d.rule, d.message))
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
fn lookup_only_hash_maps_lint_clean() {
    // The flow-aware `hash-container` rule fires on iteration order
    // escaping, not on mentions: the lookup-only maps PR 10 converted
    // (trainer cost caches, serve frequency table, overlap scheduler
    // state) must lint clean.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent);
    let root = root.expect("workspace root above crates/fae-lint");
    for rel in [
        "crates/fae-core/src/trainer/run.rs",
        "crates/fae-serve/src/cache.rs",
        "crates/fae-sysmodel/src/overlap.rs",
    ] {
        let source = std::fs::read_to_string(root.join(rel)).expect("converted file readable");
        assert!(source.contains("HashMap"), "{rel} no longer uses a HashMap; pick another witness");
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
