//! Phase-balance: static accounting for the ±1e-6 journal invariant.
//!
//! The runtime invariant (fae-telemetry `merge::check_invariant`) only
//! sees charge sites that executed. This pass closes the gap statically:
//!
//! 1. the `Phase` enum, `Phase::ALL`, and `Phase::index` must agree —
//!    every variant in `ALL` exactly once, `index` a bijection onto
//!    `0..n`;
//! 2. every phase-indexed array (`seconds: [f64; N]` in `Timeline`,
//!    `PhaseSeconds(pub [f64; N])` in the journal) must have
//!    `N == variant count`, so a 9th phase cannot silently truncate.
//!
//! What a compiling workspace already guarantees is not checked: every
//! `match` over `Phase` is total (E0004) and every `Phase::X` names a
//! declared variant (E0599).
//!
//! Rule id: `phase-balance`. Findings land on the offending line and
//! respect pragmas/test regions like every other rule.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokens::TokKind;
use crate::tree::{variant_refs, ConstItem, Node};
use crate::{Finding, Parsed};

const RULE: &str = "phase-balance";

/// Runs the pass over the workspace file set.
pub(crate) fn run(files: &[Parsed<'_>], out: &mut Vec<Finding>) {
    // Locate the canonical Phase enum: the one in the file that also
    // declares `ALL`. Fixture trees without one skip the pass.
    let canonical = files.iter().find_map(|f| {
        let phase = f.items.enums.iter().find(|e| e.name == "Phase")?;
        let all = f.items.consts.iter().find(|c| f.view.is_ident(c.name, "ALL"))?;
        Some((f, all, &phase.variants))
    });
    let Some((pf, all, variants)) = canonical else { return };

    check_all_const(pf, all, variants, out);
    check_index(pf, variants, out);
    check_arrays(files, variants.len(), out);
}

/// `Phase::ALL` must list every variant exactly once, and its declared
/// length `[Phase; N]` must equal the variant count.
fn check_all_const(
    pf: &Parsed<'_>,
    all: &ConstItem<'_>,
    variants: &[(String, usize)],
    out: &mut Vec<Finding>,
) {
    let view = pf.view;
    // `ALL: [Phase; N] = [Phase::A, ...];` — the first `; N` inside a
    // group is the declared length.
    let declared_len = all.rest.iter().find_map(|n| match n {
        Node::Group { children, .. } => children.windows(2).find_map(|w| match w {
            [Node::Leaf(semi), Node::Leaf(num)]
                if view.is_punct(*semi, b';') && view.toks[*num].kind == TokKind::Num =>
            {
                view.text(*num).parse::<usize>().ok()
            }
            _ => None,
        }),
        Node::Leaf(_) => None,
    });
    if let Some(n) = declared_len.filter(|&n| n != variants.len()) {
        out.push(pf.finding_at(
            RULE,
            all.name,
            format!(
                "`Phase::ALL` declares length {n} but the enum has {} variants",
                variants.len()
            ),
        ));
    }
    let mut seen = BTreeMap::new();
    for (v, _) in variant_refs(view, all.rest, "Phase") {
        *seen.entry(v).or_insert(0usize) += 1;
    }
    for (name, line) in variants {
        match seen.get(name.as_str()).copied().unwrap_or(0) {
            0 => out.push(pf.finding(
                RULE,
                *line,
                0,
                format!("variant `{name}` is missing from `Phase::ALL` — its charges would escape the journal invariant"),
            )),
            1 => {}
            k => out.push(pf.finding_at(
                RULE,
                all.name,
                format!("variant `{name}` appears {k} times in `Phase::ALL`"),
            )),
        }
    }
    for name in seen.keys() {
        if !variants.iter().any(|(v, _)| v == name) {
            out.push(pf.finding_at(
                RULE,
                all.name,
                format!("`Phase::ALL` lists `{name}`, which is not a variant"),
            ));
        }
    }
}

/// `Phase::index` arm values must be a bijection onto `0..n`.
fn check_index(pf: &Parsed<'_>, variants: &[(String, usize)], out: &mut Vec<Finding>) {
    for f in pf.items.fns.iter().filter(|f| f.name == "index") {
        let Some(body) = f.body else { continue };
        let index_map: BTreeMap<&str, u64> = variant_refs(pf.view, body, "Phase")
            .into_iter()
            .filter_map(|(v, n)| Some((v, n?)))
            .collect();
        let mut used = BTreeSet::new();
        for (v, n) in &index_map {
            if *n >= variants.len() as u64 {
                out.push(pf.finding(
                    RULE,
                    f.line,
                    0,
                    format!("`Phase::index` maps `{v}` to {n}, outside 0..{}", variants.len()),
                ));
            }
            if !used.insert(*n) {
                out.push(pf.finding(
                    RULE,
                    f.line,
                    0,
                    format!("`Phase::index` maps two variants to slot {n}"),
                ));
            }
        }
    }
}

/// Phase-indexed arrays: `[f64; N]` fields of `Timeline` and
/// `PhaseSeconds` must have `N == variant count`.
fn check_arrays(files: &[Parsed<'_>], n_variants: usize, out: &mut Vec<Finding>) {
    for f in files {
        for field in &f.items.fields {
            if field.strukt != "Timeline" && field.strukt != "PhaseSeconds" {
                continue;
            }
            // Flattened type text looks like `[ f64 ; 8 ]`.
            let words: Vec<&str> = field.ty.split_whitespace().collect();
            let Some(fpos) = words.iter().position(|w| *w == "f64") else { continue };
            if words.get(fpos + 1) != Some(&";") {
                continue;
            }
            let Some(n) = words.get(fpos + 2).and_then(|w| w.parse::<usize>().ok()) else {
                continue;
            };
            if n != n_variants {
                out.push(f.finding(
                    RULE,
                    field.line,
                    0,
                    format!(
                        "`{}.{}` is `[f64; {n}]` but `Phase` has {n_variants} variants — \
                         a phase would be unaccounted",
                        field.strukt, field.field
                    ),
                ));
            }
        }
    }
}
