//! Phase-balance: static accounting for the ±1e-6 journal invariant.
//!
//! The runtime invariant (fae-telemetry `merge::check_invariant`) only
//! sees charge sites that executed. This pass closes the gap statically:
//!
//! 1. the `Phase` enum, `Phase::ALL`, and `Phase::index` must agree —
//!    every variant in `ALL` exactly once, `index` a bijection onto
//!    `0..n`, every `match` over `Phase` either wildcarded or total;
//! 2. every phase-indexed array (`seconds: [f64; N]` in `Timeline`,
//!    `PhaseSeconds(pub [f64; N])` in the journal) must have
//!    `N == variant count`, so a 9th phase cannot silently truncate;
//! 3. every `Timeline` charge site (`.add(Phase::X, ..)`) in the
//!    deterministic and net crates must name a declared variant.
//!
//! Rule id: `phase-balance`. Findings land on the offending line and
//! respect pragmas/test regions like every other rule.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokens::TokKind;
use crate::{Finding, Parsed};

const RULE: &str = "phase-balance";

/// Runs the pass over the workspace file set.
pub(crate) fn run(files: &[Parsed<'_>], out: &mut Vec<Finding>) {
    // Locate the canonical Phase enum: the one in the file that also
    // declares `ALL`. Fixture trees without one skip the pass.
    let canonical = files.iter().find_map(|f| {
        let phase = f.items.enums.iter().find(|e| e.name == "Phase")?;
        let declares_all = (0..f.view.toks.len()).any(|i| f.view.is_ident(i, "ALL"));
        declares_all.then_some((f, &phase.variants))
    });
    let Some((pf, variants)) = canonical else { return };
    let names: BTreeSet<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();

    check_all_const(pf, variants, out);
    check_matches(pf, variants, out);
    check_arrays(files, variants.len(), out);
    check_charge_sites(files, &names, out);
}

/// `Phase::ALL` must list every variant exactly once, and its declared
/// length `[Phase; N]` must equal the variant count.
fn check_all_const(pf: &Parsed<'_>, variants: &[(String, usize)], out: &mut Vec<Finding>) {
    let view = &pf.view;
    let toks = &view.toks;
    // `run` picked this file because it mentions `ALL`.
    let Some(all) = (0..toks.len()).find(|&i| view.is_ident(i, "ALL")) else { return };
    // `ALL: [Phase; N] = [Phase::A, ...];` — scan to the `;` ending the
    // item, collecting `Phase :: V` pairs and the first `[Phase ; N]`
    // length.
    let mut all_entries: Vec<String> = Vec::new();
    let mut declared_len: Option<usize> = None;
    let mut depth = 0i32;
    let mut j = all + 1;
    while j < toks.len() {
        match view.punct(j) {
            Some(b'[') | Some(b'(') | Some(b'{') => depth += 1,
            Some(b']') | Some(b')') | Some(b'}') => depth -= 1,
            Some(b';') if depth == 0 => break,
            Some(b';')
                if depth == 1
                    && declared_len.is_none()
                    && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Num) =>
            {
                declared_len = view.text(j + 1).parse::<usize>().ok();
            }
            _ => {}
        }
        if let Some(v) = view.variant_at(j, "Phase") {
            all_entries.push(v.to_string());
            j += 4;
            continue;
        }
        j += 1;
    }
    if let Some(n) = declared_len {
        if n != variants.len() {
            out.push(pf.finding_at(
                RULE,
                all,
                format!(
                    "`Phase::ALL` declares length {n} but the enum has {} variants",
                    variants.len()
                ),
            ));
        }
    }
    let mut seen = BTreeMap::new();
    for v in &all_entries {
        *seen.entry(v.clone()).or_insert(0usize) += 1;
    }
    for (name, line) in variants {
        match seen.get(name).copied().unwrap_or(0) {
            0 => out.push(pf.finding(
                RULE,
                *line,
                0,
                format!("variant `{name}` is missing from `Phase::ALL` — its charges would escape the journal invariant"),
            )),
            1 => {}
            k => out.push(pf.finding_at(
                RULE,
                all,
                format!("variant `{name}` appears {k} times in `Phase::ALL`"),
            )),
        }
    }
    for name in seen.keys() {
        if !variants.iter().any(|(v, _)| v == name) {
            out.push(pf.finding_at(
                RULE,
                all,
                format!("`Phase::ALL` lists `{name}`, which is not a variant"),
            ));
        }
    }
}

/// Every `match` in the Phase file with `Phase::V =>` arms must either
/// carry a wildcard or cover all variants; `index` arm values must be a
/// bijection onto `0..n`.
fn check_matches(pf: &Parsed<'_>, variants: &[(String, usize)], out: &mut Vec<Finding>) {
    let view = &pf.view;
    for f in &pf.items.fns {
        if f.body == (0, 0) {
            continue;
        }
        let (lo, hi) = f.body;
        let mut covered: BTreeSet<String> = BTreeSet::new();
        let mut wildcard = false;
        let mut index_map: BTreeMap<String, usize> = BTreeMap::new();
        let mut j = lo;
        while j < hi.min(view.toks.len()) {
            // Pattern position: `Phase :: V` followed (after optional
            // `{..}`/`(..)`) by `=>`.
            if let Some(vname) = view.variant_at(j, "Phase") {
                let k = view.skip_subpattern(j + 4);
                if view.fat_arrow_at(k) {
                    covered.insert(vname.to_string());
                    if f.name == "index" {
                        if let Some(t) = view.toks.get(k + 2) {
                            if t.kind == TokKind::Num {
                                if let Ok(n) = view.text(k + 2).parse::<usize>() {
                                    index_map.insert(vname.to_string(), n);
                                }
                            }
                        }
                    }
                    j = k + 2;
                    continue;
                }
            }
            if view.is_ident(j, "_") && view.fat_arrow_at(j + 1) {
                wildcard = true;
            }
            j += 1;
        }
        if !covered.is_empty() && !wildcard {
            for (name, _) in variants {
                if !covered.contains(name) {
                    out.push(pf.finding(
                        RULE,
                        f.line,
                        view.toks[f.body.0.min(view.toks.len() - 1)].start,
                        format!(
                            "match over `Phase` in `{}` does not cover variant `{name}`",
                            f.name
                        ),
                    ));
                }
            }
        }
        if f.name == "index" && !index_map.is_empty() {
            let mut used = BTreeSet::new();
            for (v, n) in &index_map {
                if *n >= variants.len() {
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

/// Every `.add(Phase::X, ..)` charge site in det/net files must name a
/// declared variant (`Phase::ALL` and other UPPER_CASE associated items
/// are not charges).
fn check_charge_sites(files: &[Parsed<'_>], names: &BTreeSet<&str>, out: &mut Vec<Finding>) {
    for f in files {
        if !(f.class.deterministic || f.class.net) {
            continue;
        }
        for i in 0..f.view.toks.len() {
            let Some(name) = f.view.variant_at(i, "Phase") else { continue };
            let is_assoc_const = name.chars().all(|c| c.is_ascii_uppercase() || c == '_');
            let is_method = name.chars().next().is_some_and(|c| c.is_ascii_lowercase());
            if is_assoc_const || is_method {
                continue;
            }
            if !names.contains(name) {
                out.push(f.finding_at(
                    RULE,
                    i,
                    format!("`Phase::{name}` is not a declared `Phase` variant"),
                ));
            }
        }
    }
}
