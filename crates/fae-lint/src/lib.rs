//! `fae-lint` — the workspace invariant checker.
//!
//! Walks every first-party crate's `src/` tree and reports what rustc
//! and clippy cannot see (the workspace's clippy lints cover panics,
//! blocking socket calls, locks other than the telemetry handle's and
//! `allow` without a reason; `Metric` makes a bad metric name a compile
//! error):
//!
//! * **determinism** (`wall-clock`, `ambient-rng`, `hash-container`,
//!   `det-taint`) — a nondeterministic value flowing into
//!   digest-affecting state — in the five determinism-critical crates
//!   (`fae-core`, `fae-embed`, `fae-models`, `fae-serve`,
//!   `fae-sysmodel`);
//! * **map-index** (`m["k"]`) and **float-fuse** (an 8-lane f32 unroll
//!   outside `fae-nn/src/lanes.rs`) in library code of every
//!   first-party crate (binary targets are exempt).
//!
//! There is no waiver: a finding is fixed, not annotated.
//! `#[cfg(test)]` items and `#[test]` functions are exempt from every
//! rule — tests may time things, hash things and index freely.
//!
//! One pipeline serves every rule, one file at a time: each file is
//! tokenized once (`tokens` — the only code that decides what is a
//! comment or a literal), brace-matched into a token tree with its items
//! and test-gated ranges (`tree`), handed to the token-pattern rules
//! (`rules`) and the determinism-taint analysis (`flow`), and every
//! finding they produce goes through one `finalize` (test exemption,
//! dedupe) on its way to a [`Diagnostic`].
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
mod rules;
mod tokens;
mod tree;

use tree::TreeView;

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
    /// Rule id (one of [`RULES`]).
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
    /// `map-index` and `float-fuse` do not apply.
    pub binary: bool,
}

/// One rule hit before test exemption and dedupe — the only shape a
/// finding has between the rule that produced it and [`finalize`].
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    /// 1-based line.
    pub line: usize,
    /// Byte offset of the anchoring token (for test-region exemption).
    pub offset: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// One file, parsed once per lint run: everything the rules, the taint
/// pass and [`finalize`] borrow.
pub(crate) struct Parsed<'a> {
    /// Path used in diagnostics.
    pub rel: &'a Path,
    /// Which rule scopes apply.
    pub class: FileClass,
    /// Source, tokens and token tree.
    pub view: &'a TreeView<'a>,
    /// Functions, struct fields and `use` aliases.
    pub items: tree::Items<'a>,
    /// Byte ranges of `#[cfg(test)]`/`#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl<'a> Parsed<'a> {
    pub(crate) fn new(rel: &'a Path, view: &'a TreeView<'a>, class: FileClass) -> Self {
        let items = tree::items(view);
        let test_ranges = tree::test_ranges(view);
        Parsed { rel, class, view, items, test_ranges }
    }

    /// A finding in this file.
    pub(crate) fn finding(
        &self,
        rule: &'static str,
        line: usize,
        offset: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding { line, offset, rule, message: message.into() }
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

/// Turns one file's findings into diagnostics: drops those in test-only
/// code and reports each `(line, rule)` once. Every finding — token
/// pattern or taint flow — goes through here and nowhere else.
fn finalize(p: &Parsed<'_>, findings: Vec<Finding>) -> Vec<Diagnostic> {
    let mut seen: BTreeSet<(usize, &str)> = BTreeSet::new();
    let mut diags: Vec<Diagnostic> = findings
        .into_iter()
        .filter(|f| !p.in_test(f.offset) && seen.insert((f.line, f.rule)))
        .map(|f| Diagnostic {
            file: p.rel.to_path_buf(),
            line: f.line,
            rule: f.rule.to_string(),
            message: f.message,
        })
        .collect();
    diags.sort();
    diags
}

/// Lints one file's source text: the token-pattern rules plus (for
/// determinism-scope files) the flow-aware determinism-taint analysis.
/// `label` is used in diagnostics.
pub fn lint_source(label: &Path, source: &str, class: FileClass) -> Vec<Diagnostic> {
    let view = TreeView::new(source);
    let p = Parsed::new(label, &view, class);
    let mut findings = Vec::new();
    rules::scan(&p, &mut findings);
    if class.deterministic {
        flow::det_taint(&p, &mut findings);
    }
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
    Some(FileClass { deterministic: DET_CRATES.contains(&crate_name.as_str()), binary })
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

/// Lints a whole workspace rooted at `root`: the root package's `src/`
/// plus every `crates/*/src/`. Returns sorted diagnostics.
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

    let mut diags = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let Some(class) = classify(rel) else { continue };
        diags.extend(lint_source(rel, &read(&file)?, class));
    }
    diags.sort();
    Ok(diags)
}

/// Lints every `.rs` file under `dir` with a fixed [`FileClass`] —
/// used for the seeded-violation fixture trees, where the files are not
/// workspace members.
pub fn lint_tree(dir: &Path, class: FileClass) -> Result<Vec<Diagnostic>, WalkError> {
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    let mut diags = Vec::new();
    for file in files {
        diags.extend(lint_source(&file, &read(&file)?, class));
    }
    diags.sort();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert!(classify(Path::new("crates/fae-core/src/trainer.rs"))
            .is_some_and(|c| c.deterministic && !c.binary));
        assert!(classify(Path::new("crates/fae-telemetry/src/lib.rs"))
            .is_some_and(|c| !c.deterministic && !c.binary));
        assert!(classify(Path::new("crates/fae-net/src/deadline.rs"))
            .is_some_and(|c| !c.deterministic && !c.binary));
        assert!(classify(Path::new("src/bin/fae.rs")).is_some_and(|c| c.binary));
        assert!(classify(Path::new("src/main.rs")).is_some_and(|c| c.binary));
        assert!(classify(Path::new("crates/fae-core/tests/t.rs")).is_none());
        assert!(classify(Path::new("crates/fae-lint/fixtures/violations/src/lib.rs")).is_none());
        assert!(classify(Path::new("vendor/rand/src/lib.rs")).is_none());
    }
}
