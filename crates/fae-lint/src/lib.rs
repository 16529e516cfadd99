//! `fae-lint` — the workspace invariant checker.
//!
//! Walks every first-party crate's `src/` tree and reports violations of
//! the project contracts that keep same-seed runs byte-identical and
//! library code panic-free:
//!
//! * **determinism** (`wall-clock`, `ambient-rng`, `hash-container`,
//!   `timeline-phase`) in the five determinism-critical crates
//!   (`fae-core`, `fae-embed`, `fae-models`, `fae-serve`, `fae-sysmodel`);
//! * **no-panic** (`no-panic`) in library code of every first-party
//!   crate (binary targets are exempt);
//! * **float-fuse** (`float-fuse`) in library code of every first-party
//!   crate: 8-lane f32 unroll sites (`chunks_exact(8)`) must pragma
//!   their bit-identity contract, and the pragma's reason must cite
//!   `DESIGN.md §14` (else it is a `bad-pragma`);
//! * **net-deadline** (`net-deadline`) in the networking crate
//!   (`fae-net`): blocking socket I/O must carry an explicit deadline;
//! * **metric-name** (`metric-name`) in every first-party crate except
//!   fae-lint itself: metric names at telemetry emission sites must be
//!   stable lowercase dotted literals, so the Prometheus exposition's
//!   `fae_*` mapping stays collision-free.
//!
//! Violations are suppressed site-by-site with an explicit pragma:
//!
//! ```text
//! // fae-lint: allow(no-panic, reason = "mutex poisoning is unreachable: no panics under lock")
//! ```
//!
//! A pragma covers its own line and the next line. Pragmas that do not
//! parse (`bad-pragma`) or suppress nothing (`unused-pragma`) are
//! themselves violations, so stale annotations cannot accumulate.
//!
//! `#[cfg(test)]` items and `#[test]` functions are exempt from every
//! rule — tests may time things, hash things and unwrap freely.
//!
//! One pipeline serves every rule: each file is tokenized once
//! (`tokens` — the only code that decides what is a comment or a
//! literal), brace-matched into a token tree with its items, pragmas
//! and test-gated ranges (`tree`, `pragma`), handed to the token-pattern
//! rules (`rules`), the determinism-taint analysis (`flow`) and the
//! cross-file passes (`passes`), and every finding they produce goes
//! through one `finalize` (test exemption, pragma window, dedupe,
//! pragma hygiene) on its way to a [`Diagnostic`].
//!
//! Run it with `cargo run -p fae-lint` from the workspace root; see
//! DESIGN.md §11 for the rule table and the documented gaps, §16 for
//! the analyzer's architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod flow;
mod passes;
mod pragma;
mod rules;
mod tokens;
mod tree;

pub use rules::{RuleInfo, Scope, RULES};

/// The determinism-critical crates: rules in [`Scope::Deterministic`]
/// apply only here.
pub const DET_CRATES: &[&str] =
    &["fae-core", "fae-embed", "fae-models", "fae-serve", "fae-sysmodel"];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path as walked (workspace-relative when walking a workspace).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`RULES`], or `bad-pragma`/`unused-pragma`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// I/O failure while walking or reading source files.
#[derive(Debug)]
pub struct WalkError {
    /// The path that failed.
    pub path: PathBuf,
    /// The underlying error.
    pub source: io::Error,
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for WalkError {}

/// How a single file should be linted.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Apply the [`Scope::Deterministic`] rules.
    pub deterministic: bool,
    /// The file belongs to a binary target (`src/bin/`, `src/main.rs`):
    /// the no-panic rule does not apply.
    pub binary: bool,
    /// Apply the [`Scope::Net`] rules (the fae-net crate: blocking
    /// socket I/O must carry a deadline).
    pub net: bool,
    /// Apply the [`Scope::Metrics`] rule (every first-party crate
    /// except fae-lint itself, whose matchers quote the trigger
    /// tokens): metric names at emission sites must be stable
    /// lowercase dotted literals.
    pub metrics: bool,
}

/// One rule hit before suppression — the only shape a finding has
/// between the rule or pass that produced it and [`finalize`].
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    /// Index of the file in the set being linted ([`Parsed::index`]).
    pub file: usize,
    /// 1-based line; a pragma on it or the line above suppresses.
    pub line: usize,
    /// Byte offset of the anchoring token (for test-region exemption).
    pub offset: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// One file, parsed once per lint run: everything the rules, the passes
/// and [`finalize`] borrow.
pub(crate) struct Parsed<'s> {
    /// Position in the file set; findings name their file by it.
    pub index: usize,
    /// Path used in diagnostics.
    pub rel: &'s Path,
    /// Which rule scopes apply.
    pub class: FileClass,
    /// Source, tokens and token tree.
    pub view: tree::TreeView<'s>,
    /// Functions, enums, struct fields and `use` aliases.
    pub items: tree::Items,
    /// Well-formed pragmas, in file order.
    pub pragmas: Vec<pragma::Pragma>,
    /// Malformed pragmas: `(line, what is wrong)`.
    pub pragma_errors: Vec<(usize, String)>,
    /// Byte ranges of `#[cfg(test)]`/`#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl<'s> Parsed<'s> {
    pub(crate) fn new(index: usize, rel: &'s Path, source: &'s str, class: FileClass) -> Self {
        let view = tree::TreeView::new(source);
        let items = tree::items(&view);
        let (pragmas, pragma_errors) = pragma::collect(&view);
        let test_ranges = tree::test_ranges(&view);
        Parsed { index, rel, class, view, items, pragmas, pragma_errors, test_ranges }
    }

    /// A finding in this file.
    pub(crate) fn finding(
        &self,
        rule: &'static str,
        line: usize,
        offset: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding { file: self.index, line, offset, rule, message: message.into() }
    }

    /// A finding anchored at token `tok`.
    pub(crate) fn finding_at(
        &self,
        rule: &'static str,
        tok: usize,
        message: impl Into<String>,
    ) -> Finding {
        self.finding(rule, self.view.line(tok), self.view.toks[tok].start, message)
    }

    fn in_test(&self, offset: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| offset >= s && offset < e)
    }
}

/// The per-file rules: the token-pattern matchers plus (for
/// determinism-scope files) the flow-aware determinism-taint analysis.
fn per_file_findings(p: &Parsed<'_>, out: &mut Vec<Finding>) {
    rules::scan(p, out);
    if p.class.deterministic {
        flow::det_taint(p, out);
    }
}

/// Turns one file's findings into diagnostics: drops those in test-only
/// code or under a pragma (its own line or the line above), reports
/// each `(line, rule)` once, and appends the pragma-hygiene diagnostics
/// (`bad-pragma`, `unused-pragma`). Every finding — token pattern,
/// taint flow or cross-file pass — goes through here and nowhere else.
fn finalize(p: &Parsed<'_>, findings: Vec<Finding>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut diag = |line: usize, rule: &str, message: String| {
        diags.push(Diagnostic { file: p.rel.to_path_buf(), line, rule: rule.to_string(), message });
    };

    for (line, message) in &p.pragma_errors {
        diag(*line, "bad-pragma", message.clone());
    }
    for pr in &p.pragmas {
        for r in &pr.rules {
            if !rules::is_known_rule(r) {
                diag(pr.line, "bad-pragma", format!("unknown rule `{r}` in pragma"));
            } else if r == "float-fuse" && !pr.reason.contains("DESIGN.md §14") {
                // The unroll carve-out is a documented numeric contract;
                // every suppression must point readers at its anchor.
                diag(
                    pr.line,
                    "bad-pragma",
                    "float-fuse pragma reason must cite the bit-identity contract anchor \
                     `DESIGN.md §14`"
                        .to_string(),
                );
            }
        }
    }

    let mut used_pragmas: BTreeSet<usize> = BTreeSet::new();
    let mut seen: BTreeSet<(usize, &str)> = BTreeSet::new();
    for f in findings {
        if p.in_test(f.offset) {
            continue;
        }
        let allowed = p.pragmas.iter().position(|pr| {
            (pr.line == f.line || pr.line + 1 == f.line) && pr.rules.iter().any(|r| r == f.rule)
        });
        if let Some(pi) = allowed {
            used_pragmas.insert(pi);
        } else if seen.insert((f.line, f.rule)) {
            diag(f.line, f.rule, f.message);
        }
    }

    for (pi, pr) in p.pragmas.iter().enumerate() {
        let well_formed = pr.rules.iter().all(|r| rules::is_known_rule(r));
        if well_formed && !used_pragmas.contains(&pi) && !p.in_test(pr.offset) {
            diag(
                pr.line,
                "unused-pragma",
                format!(
                    "pragma allows [{}] but suppresses nothing; remove it",
                    pr.rules.join(", ")
                ),
            );
        }
    }

    diags.sort();
    diags
}

/// Lints one file's source text. `label` is used in diagnostics.
pub fn lint_source(label: &Path, source: &str, class: FileClass) -> Vec<Diagnostic> {
    let p = Parsed::new(0, label, source, class);
    let mut findings = Vec::new();
    per_file_findings(&p, &mut findings);
    finalize(&p, findings)
}

/// Classifies a workspace-relative `.rs` path, or `None` when the file
/// is outside the linted set (tests/, benches/, examples/, vendor/,
/// the fixture tree, generated code under target/).
pub fn classify(rel: &Path) -> Option<FileClass> {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned());
    let first = comps.next()?;
    let crate_name = if first == "src" {
        "fae".to_string()
    } else if first == "crates" {
        let name = comps.next()?;
        let src = comps.next()?;
        if src != "src" {
            return None;
        }
        name
    } else {
        return None;
    };
    if crate_name == "fae-lint" && rel.components().any(|c| c.as_os_str() == "fixtures") {
        return None;
    }
    let binary = rel.components().any(|c| c.as_os_str() == "bin")
        || rel.file_name().is_some_and(|f| f == "main.rs");
    Some(FileClass {
        deterministic: DET_CRATES.contains(&crate_name.as_str()),
        binary,
        net: crate_name == "fae-net",
        metrics: crate_name != "fae-lint",
    })
}

fn read(path: &Path) -> Result<String, WalkError> {
    fs::read_to_string(path).map_err(|source| WalkError { path: path.to_path_buf(), source })
}

/// The entries of `dir`, sorted, so diagnostics come out in a stable
/// order on every platform.
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, WalkError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .and_then(|entries| entries.map(|e| e.map(|e| e.path())).collect())
        .map_err(|source| WalkError { path: dir.to_path_buf(), source })?;
    entries.sort();
    Ok(entries)
}

/// Recursively collects the `.rs` files under `dir`, in sorted order.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a set of already-read files: one parse per file, the per-file
/// rules, then the cross-file passes (phase-balance, lock-order, and —
/// when `design` text is supplied — wire-compat on the wire file), with
/// every finding funneled through [`finalize`].
fn lint_file_set(files: &[(PathBuf, String, FileClass)], design: Option<&str>) -> Vec<Diagnostic> {
    let parsed: Vec<Parsed<'_>> = files
        .iter()
        .enumerate()
        .map(|(index, (rel, source, class))| Parsed::new(index, rel, source, *class))
        .collect();

    let mut findings = Vec::new();
    for p in &parsed {
        per_file_findings(p, &mut findings);
    }
    passes::phase_balance::run(&parsed, &mut findings);
    passes::lock_order::run(&parsed, &mut findings);
    if let Some(design) = design {
        let is_wire =
            |p: &&Parsed<'_>| p.class.net && p.rel.file_name().is_some_and(|n| n == "wire.rs");
        if let Some(wire) = parsed.iter().find(is_wire) {
            passes::wire_compat::run(wire, design, &mut findings);
        }
    }

    let mut per_file: Vec<Vec<Finding>> = parsed.iter().map(|_| Vec::new()).collect();
    for f in findings {
        per_file[f.file].push(f);
    }
    let mut diags: Vec<Diagnostic> =
        parsed.iter().zip(per_file).flat_map(|(p, fs)| finalize(p, fs)).collect();
    diags.sort();
    diags
}

/// Lints a whole workspace rooted at `root`: the root package's `src/`
/// plus every `crates/*/src/`, per-file rules plus the cross-file
/// passes (wire-compat reads the tag ranges out of `root/DESIGN.md`).
/// Returns sorted diagnostics.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, WalkError> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for member in sorted_entries(&crates)? {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }

    let mut set = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let Some(class) = classify(&rel) else { continue };
        set.push((rel, read(&file)?, class));
    }
    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    Ok(lint_file_set(&set, design.as_deref()))
}

/// Lints every `.rs` file under `dir` with a fixed [`FileClass`] —
/// used for the seeded-violation fixture trees, where the files are not
/// workspace members. The cross-file passes (phase-balance, lock-order)
/// run over the tree too, so fixture trees can seed their violations;
/// wire-compat needs a DESIGN.md and is exercised via [`lint_wire`].
pub fn lint_tree(dir: &Path, class: FileClass) -> Result<Vec<Diagnostic>, WalkError> {
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    let mut set = Vec::new();
    for file in files {
        let source = read(&file)?;
        set.push((file, source, class));
    }
    Ok(lint_file_set(&set, None))
}

/// How a wire module is classified when linted on its own.
const WIRE_FILE: FileClass =
    FileClass { deterministic: false, binary: false, net: true, metrics: false };

/// Runs the wire-compat pass on a fixture directory holding `wire.rs`
/// (the message module) and `design.md` (the declared tag ranges).
/// Pragmas and test regions in `wire.rs` apply as usual.
pub fn lint_wire(dir: &Path) -> Result<Vec<Diagnostic>, WalkError> {
    let wire_path = dir.join("wire.rs");
    let source = read(&wire_path)?;
    let design = read(&dir.join("design.md"))?;
    let wire = Parsed::new(0, &wire_path, &source, WIRE_FILE);
    let mut findings = Vec::new();
    passes::wire_compat::run(&wire, &design, &mut findings);
    Ok(finalize(&wire, findings))
}

/// The wire-compat pass's raw findings for `wire_source` against
/// `design`, as `(line, message)` pairs before any suppression or
/// per-line dedupe — what the fixture pins check one by one.
pub fn wire_findings(wire_source: &str, design: &str) -> Vec<(usize, String)> {
    let wire = Parsed::new(0, Path::new("wire.rs"), wire_source, WIRE_FILE);
    let mut findings = Vec::new();
    passes::wire_compat::run(&wire, design, &mut findings);
    findings.into_iter().map(|f| (f.line, f.message)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileClass =
        FileClass { deterministic: true, binary: false, net: false, metrics: true };

    #[test]
    fn clean_source_is_clean() {
        let d =
            lint_source(Path::new("x.rs"), "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }", LIB);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pragma_suppresses_and_is_used() {
        let src = "// fae-lint: allow(no-panic, reason = \"len checked above\")\nlet x = v.first().unwrap();\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_pragma_fires() {
        let src = "// fae-lint: allow(no-panic, reason = \"nothing here\")\nlet x = 1;\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-pragma");
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n use std::time::Instant;\n fn t() { x.unwrap(); }\n}\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn binary_skips_no_panic_keeps_determinism() {
        let bin = FileClass { deterministic: true, binary: true, net: false, metrics: true };
        // The unwrap is exempt (binary target); the clock read flowing
        // into the public return is not.
        let src = "pub fn run() -> u64 {\n    args.next().unwrap();\n    let t = Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
        let d = lint_source(Path::new("bin.rs"), src, bin);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[0].line, 3, "reported at the clock read, not the return");
    }

    #[test]
    fn net_rule_applies_only_with_the_net_classification() {
        let net = FileClass { deterministic: false, binary: false, net: true, metrics: false };
        let src = "fn f(s: &mut TcpStream) { s.read_exact(&mut b).ok(); }\n";
        let d = lint_source(Path::new("x.rs"), src, net);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "net-deadline");
        assert!(lint_source(Path::new("x.rs"), src, LIB).is_empty(), "scope is fae-net only");
    }

    #[test]
    fn metric_name_rule_applies_only_with_the_metrics_classification() {
        let src = "pub fn f(t: &T) { t.counter_add(\"Bad Name\", 1); }\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "metric-name");
        let unmetered = FileClass { metrics: false, ..LIB };
        assert!(
            lint_source(Path::new("x.rs"), src, unmetered).is_empty(),
            "metric-name must stay inside its scope"
        );
    }

    #[test]
    fn float_fuse_pragma_must_cite_the_design_anchor() {
        // A citing pragma suppresses the unroll site cleanly.
        let good = "// fae-lint: allow(float-fuse, reason = \"elementwise; DESIGN.md §14\")\nlet mut d = dst.chunks_exact_mut(8);\n";
        assert!(lint_source(Path::new("x.rs"), good, LIB).is_empty());
        // A pragma without the citation is itself a violation (and the
        // site stays suppressed, so exactly one diagnostic comes out).
        let bad = "// fae-lint: allow(float-fuse, reason = \"it is fine\")\nlet mut d = dst.chunks_exact_mut(8);\n";
        let d = lint_source(Path::new("x.rs"), bad, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "bad-pragma");
        assert!(d[0].message.contains("DESIGN.md §14"));
        // A naked unroll site fires the rule itself.
        let naked = "let mut d = dst.chunks_exact_mut(8);\n";
        let d = lint_source(Path::new("x.rs"), naked, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "float-fuse");
        // Binary targets are exempt (Scope::AllLibs, like no-panic).
        let bin = FileClass { binary: true, ..LIB };
        assert!(lint_source(Path::new("bin.rs"), naked, bin).is_empty());
    }

    #[test]
    fn classify_paths() {
        assert!(classify(Path::new("crates/fae-core/src/trainer.rs")).is_some_and(|c| c
            .deterministic
            && !c.binary
            && !c.net
            && c.metrics));
        assert!(classify(Path::new("crates/fae-telemetry/src/lib.rs"))
            .is_some_and(|c| !c.deterministic && !c.binary && c.metrics));
        assert!(
            classify(Path::new("crates/fae-lint/src/rules.rs")).is_some_and(|c| !c.metrics),
            "fae-lint's own matchers quote the trigger tokens; exempt"
        );
        assert!(classify(Path::new("crates/fae-net/src/deadline.rs"))
            .is_some_and(|c| c.net && !c.deterministic && !c.binary));
        assert!(classify(Path::new("src/bin/fae.rs")).is_some_and(|c| c.binary));
        assert!(classify(Path::new("src/main.rs")).is_some_and(|c| c.binary));
        assert!(classify(Path::new("crates/fae-core/tests/t.rs")).is_none());
        assert!(classify(Path::new("crates/fae-lint/fixtures/violations/src/lib.rs")).is_none());
        assert!(classify(Path::new("vendor/rand/src/lib.rs")).is_none());
    }
}
