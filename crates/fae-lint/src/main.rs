//! CLI for the workspace invariant checker.
//!
//! ```text
//! fae-lint                      lint the workspace (root auto-detected)
//! fae-lint --root DIR           lint the workspace rooted at DIR
//! fae-lint --tree DIR [--det] [--lib] [--net] [--metrics]
//!                               lint a bare directory of .rs files with a
//!                               fixed classification (fixture testing);
//!                               the cross-file passes run too, wire-compat
//!                               against DIR/design.md when there is one
//! fae-lint --format json        machine-readable diagnostics (an array
//!                               of {file, line, rule, message} records)
//! fae-lint --list-rules         print the rule table
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.
//!
//! Text output ends with a per-crate summary table so CI logs show at a
//! glance which crate regressed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fae_lint::{lint_tree, lint_workspace, Diagnostic, FileClass, DET_CRATES, RULES};

fn usage() -> ExitCode {
    eprintln!(
        "usage: fae-lint [--root DIR] [--tree DIR [--det] [--lib] [--net] [--metrics]]\n\
         \u{20}               [--format text|json] [--list-rules]\n\
         see DESIGN.md §11 for the rule table and pragma syntax"
    );
    ExitCode::from(2)
}

/// Finds the workspace root: the nearest ancestor of `start` holding a
/// `Cargo.toml` with a `crates/` directory beside it.
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One `{file, line, rule, message}` record per diagnostic.
fn print_json(diags: &[Diagnostic]) {
    println!("[");
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 == diags.len() { "" } else { "," };
        println!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{comma}",
            json_escape(&d.file.display().to_string()),
            d.line,
            json_escape(&d.rule),
            json_escape(&d.message),
        );
    }
    println!("]");
}

/// The crate a workspace-relative diagnostic path belongs to.
fn crate_of(file: &Path) -> String {
    let mut comps = file.components().map(|c| c.as_os_str().to_string_lossy().into_owned());
    match comps.next().as_deref() {
        Some("crates") => comps.next().unwrap_or_else(|| "?".to_string()),
        Some("src") => "fae (root)".to_string(),
        _ => file.display().to_string(),
    }
}

/// Per-crate violation counts, one row per crate with findings.
fn print_summary(diags: &[Diagnostic]) {
    let mut per_crate: BTreeMap<String, BTreeMap<&str, usize>> = BTreeMap::new();
    for d in diags {
        *per_crate.entry(crate_of(&d.file)).or_default().entry(d.rule.as_str()).or_insert(0) += 1;
    }
    let width = per_crate.keys().map(|k| k.len()).max().unwrap_or(5).max(5);
    eprintln!();
    eprintln!("{:width$}  violations", "crate");
    for (krate, rules) in &per_crate {
        let total: usize = rules.values().sum();
        let breakdown: Vec<String> = rules.iter().map(|(rule, n)| format!("{rule} x{n}")).collect();
        eprintln!("{krate:width$}  {total:>4}  ({})", breakdown.join(", "));
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut tree: Option<PathBuf> = None;
    let mut class = FileClass { deterministic: false, binary: true, net: false, metrics: false };
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" | "--tree" | "--format" => {
                let Some(value) = args.next() else { return usage() };
                match (arg.as_str(), value.as_str()) {
                    ("--root", _) => root = Some(PathBuf::from(value)),
                    ("--tree", _) => tree = Some(PathBuf::from(value)),
                    (_, "json") => json = true,
                    (_, "text") => json = false,
                    _ => return usage(),
                }
            }
            "--det" => class.deterministic = true,
            "--lib" => class.binary = false,
            "--net" => class.net = true,
            "--metrics" => class.metrics = true,
            "--list-rules" => {
                println!("determinism-critical crates: {}", DET_CRATES.join(", "));
                for r in RULES {
                    println!("{:16} {:?}: {}", r.id, r.scope, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let workspace_run = tree.is_none();
    let result = if let Some(dir) = tree {
        lint_tree(&dir, class)
    } else {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let Some(root) = root.or_else(|| find_root(&cwd)) else {
            eprintln!("fae-lint: no workspace root found above {}", cwd.display());
            return ExitCode::from(2);
        };
        lint_workspace(&root)
    };
    let diags = match result {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("fae-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print_json(&diags);
    } else if diags.is_empty() {
        println!("fae-lint: clean");
    } else {
        for d in &diags {
            println!("{d}");
        }
        if workspace_run {
            print_summary(&diags);
        }
    }
    if diags.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("fae-lint: {} violation(s)", diags.len());
    ExitCode::FAILURE
}
