//! The lint rules: what is forbidden where, and the token-pattern
//! matchers for the two purely local rules.
//!
//! The matchers read the token stream ([`crate::tokens`]), so text in
//! comments and literals is invisible to them and line wrapping or
//! spacing inside a call cannot hide a site. They are still syntactic
//! approximations, not type-checked analyses — the trade-off is zero
//! dependencies and sub-second whole-workspace runs. Known gaps are
//! documented per rule and in DESIGN.md §11.

use std::path::Path;

use crate::tokens::TokKind;
use crate::{Finding, Parsed};

/// Where a rule applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Only the determinism-critical crates (fae-core, fae-embed,
    /// fae-models, fae-serve, fae-sysmodel).
    Deterministic,
    /// Library code of every first-party crate (binary targets exempt).
    AllLibs,
}

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable kebab-case id, used in diagnostics.
    pub id: &'static str,
    /// Where it applies.
    pub scope: Scope,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
}

/// Every enforced rule, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        scope: Scope::Deterministic,
        summary: "a host-clock read (Instant/SystemTime) flows into digest-affecting state",
    },
    RuleInfo {
        id: "ambient-rng",
        scope: Scope::Deterministic,
        summary: "ambient randomness (thread_rng/OsRng/...) flows into digest-affecting state",
    },
    RuleInfo {
        id: "hash-container",
        scope: Scope::Deterministic,
        summary: "HashMap/HashSet *iteration* flows into digest-affecting state (lookups are fine)",
    },
    RuleInfo {
        id: "det-taint",
        scope: Scope::Deterministic,
        summary: "another nondeterministic source (thread id, pointer address) flows into \
                  digest-affecting state",
    },
    RuleInfo {
        id: "map-index",
        scope: Scope::AllLibs,
        summary: "string-key indexing (m[\"k\"]) panics on a missing entry in library code",
    },
    RuleInfo {
        id: "float-fuse",
        scope: Scope::AllLibs,
        summary: "8-lane f32 unrolls (chunks_exact(8)) live only in fae-nn/src/lanes.rs, \
                  beside their DESIGN.md §14 bit-identity contract",
    },
];

/// The one file allowed to unroll f32 loops 8 lanes wide.
const LANES_FILE: &str = "fae-nn/src/lanes.rs";

/// Runs the token-pattern rules over `p`'s token stream: `map-index`
/// and `float-fuse`, in library code only.
pub(crate) fn scan(p: &Parsed<'_>, out: &mut Vec<Finding>) {
    let v = p.view;
    if p.class.binary {
        return;
    }
    let kernels = p.rel.ends_with(Path::new(LANES_FILE));
    for i in 0..v.toks.len() {
        // `.chunks_exact(8)` / `.chunks_exact_mut(8)`, anchored at the dot.
        if !kernels
            && v.is_punct(i, b'.')
            && v.toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && matches!(v.text(i + 1), "chunks_exact" | "chunks_exact_mut")
            && v.is_punct(i + 2, b'(')
            && v.toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Num)
            && v.text(i + 3) == "8"
            && v.is_punct(i + 4, b')')
        {
            out.push(p.finding_at(
                "float-fuse",
                i,
                format!(
                    "`.{}(8)` is an 8-lane f32 unroll; 8-lane kernels live in {LANES_FILE}, \
                     each stating its side of the DESIGN.md §14 bit-identity contract",
                    v.text(i + 1)
                ),
            ));
        }
        // `m["key"]`: a string literal hugging the bracket, the bracket
        // hugging an expression end — an array literal `["a", "b"]`
        // follows `=`, `(`, `&`, a space.
        if v.is_punct(i, b'[')
            && v.adjacent(i)
            && v.toks[i + 1].kind == TokKind::Str
            && i > 0
            && v.adjacent(i - 1)
            && (v.toks[i - 1].kind == TokKind::Ident || matches!(v.punct(i - 1), Some(b']' | b')')))
        {
            out.push(p.finding_at(
                "map-index",
                i,
                "string-key indexing panics on a missing entry; use `.get(...)`",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeView;
    use crate::FileClass;

    /// Hit and miss shapes that no fixture tree pins: how many findings
    /// of `rule` each fires in library code.
    #[test]
    fn shapes_outside_the_fixtures() {
        let cases: &[(&str, &str, usize)] = &[
            ("for (a, b) in x.chunks_exact(8).zip(y.chunks_exact(8)) {", "float-fuse", 2),
            ("let mut d = dst.chunks_exact(width);", "float-fuse", 0),
            ("let n = dst.len() / 8;", "float-fuse", 0),
            ("let v = cfg[\"k\"][\"j\"];", "map-index", 2),
            ("let v = vec![\"k\"];", "map-index", 0),
        ];
        let class = FileClass { deterministic: true, binary: false };
        for &(src, rule, n) in cases {
            let view = TreeView::new(src);
            let mut out = Vec::new();
            scan(&Parsed::new(Path::new("x.rs"), &view, class), &mut out);
            assert_eq!(out.iter().filter(|f| f.rule == rule).count(), n, "{rule} on {src:?}");
        }
    }

    #[test]
    fn float_fuse_fires_outside_lanes_rs_and_is_silent_in_it() {
        let src = "let mut d = dst.chunks_exact_mut(8);\n";
        let class = FileClass { deterministic: false, binary: false };
        let count = |path: &str| {
            let view = TreeView::new(src);
            let mut out = Vec::new();
            scan(&Parsed::new(Path::new(path), &view, class), &mut out);
            out.iter().filter(|f| f.rule == "float-fuse").count()
        };
        assert_eq!(count("crates/fae-nn/src/tensor.rs"), 1);
        assert_eq!(count("crates/fae-embed/src/lanes.rs"), 1, "only fae-nn's lanes.rs is exempt");
        assert_eq!(count("crates/fae-nn/src/lanes.rs"), 0);
    }
}
