//! Wire-compat: static checks over `fae-net::wire` tag declarations.
//!
//! Parses the `Message` enum plus the `tag`/`name`/`encode_payload`/
//! `decode_payload` functions and cross-checks them:
//!
//! * every variant has exactly one tag, and tags are unique;
//! * `decode_payload` maps every declared tag back to the *same*
//!   variant (encode/decode bijection), and decodes no undeclared tag;
//! * `name` and `encode_payload` cover every variant (or-patterns and
//!   a wildcard arm count as coverage);
//! * every tag falls inside exactly one of the ranges DESIGN.md §12
//!   declares in `fae-lint: wire-tags <group> = <lo>-<hi>` lines, and
//!   the declared ranges are pairwise disjoint.
//!
//! Rule id: `wire-compat`.

use std::collections::BTreeMap;

use crate::tokens::TokKind;
use crate::tree::TreeView;
use crate::{Finding, Parsed};

/// A declared tag range from DESIGN.md §12.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TagRange {
    /// Group name (`core`, `telemetry`, ...).
    pub name: String,
    /// Inclusive low tag.
    pub lo: u64,
    /// Inclusive high tag.
    pub hi: u64,
}

/// Parses `fae-lint: wire-tags <name> = <lo>-<hi>` declarations out of
/// the design document.
fn parse_ranges(design: &str) -> Vec<TagRange> {
    let mut out = Vec::new();
    for line in design.lines() {
        let Some(rest) = line.trim().strip_prefix("fae-lint: wire-tags ") else { continue };
        let Some((name, span)) = rest.split_once('=') else { continue };
        let Some((lo, hi)) = span.split_once('-') else { continue };
        let (Ok(lo), Ok(hi)) = (lo.trim().parse::<u64>(), hi.trim().parse::<u64>()) else {
            continue;
        };
        out.push(TagRange { name: name.trim().to_string(), lo, hi });
    }
    out
}

/// Runs the pass against one wire source file and the design document.
pub(crate) fn run(wire: &Parsed<'_>, design: &str, out: &mut Vec<Finding>) {
    // Wire findings anchor on lines, not tokens: offset 0 keeps them
    // outside every test region.
    let mut diag =
        |line: usize, message: String| out.push(wire.finding("wire-compat", line, 0, message));
    let view = &wire.view;
    let Some(msg) = wire.items.enums.iter().find(|e| e.name == "Message") else {
        return;
    };
    let enum_line = msg.line;

    let mut tag_map: BTreeMap<String, u64> = BTreeMap::new();
    let mut name_covered: BTreeMap<String, bool> = BTreeMap::new();
    let mut encode_covered: BTreeMap<String, bool> = BTreeMap::new();
    let mut decode_map: BTreeMap<u64, String> = BTreeMap::new();
    let mut encode_wildcard = false;
    let mut name_wildcard = false;

    for f in &wire.items.fns {
        if f.body == (0, 0) {
            continue;
        }
        let (lo, hi) = f.body;
        match f.name.as_str() {
            "tag" => {
                for (v, n, _line) in variant_arms(view, lo, hi) {
                    if let Some(prev) = tag_map.insert(v.clone(), n) {
                        if prev != n {
                            diag(f.line, format!("variant `{v}` is tagged both {prev} and {n}"));
                        }
                    }
                }
            }
            "name" => {
                for v in pattern_variants(view, lo, hi) {
                    name_covered.insert(v, true);
                }
                name_wildcard = has_wildcard_arm(view, lo, hi);
            }
            "encode_payload" => {
                for v in pattern_variants(view, lo, hi) {
                    encode_covered.insert(v, true);
                }
                encode_wildcard = has_wildcard_arm(view, lo, hi);
            }
            "decode_payload" | "decode" => {
                for (n, v) in decode_arms(view, lo, hi) {
                    decode_map.entry(n).or_insert(v);
                }
            }
            _ => {}
        }
    }

    // 1. Every variant tagged, tags unique.
    let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (v, line) in &msg.variants {
        match tag_map.get(v) {
            Some(n) => by_tag.entry(*n).or_default().push(v),
            None => diag(*line, format!("variant `{v}` has no tag in `Message::tag`")),
        }
    }
    for (n, vs) in &by_tag {
        if vs.len() > 1 {
            diag(enum_line, format!("tag {n} is shared by variants {}", vs.join(", ")));
        }
    }

    // 2. decode is the inverse of tag.
    for (v, line) in &msg.variants {
        let Some(n) = tag_map.get(v) else { continue };
        match decode_map.get(n) {
            Some(dv) if dv == v => {}
            Some(dv) => diag(*line, format!("tag {n} encodes `{v}` but decodes to `{dv}`")),
            None => diag(
                *line,
                format!("tag {n} (`{v}`) is never decoded — frames would be rejected as corrupt"),
            ),
        }
    }
    for (n, dv) in &decode_map {
        if !tag_map.values().any(|t| t == n) {
            diag(enum_line, format!("decode accepts undeclared tag {n} (`{dv}`)"));
        }
    }

    // 3. name/encode exhaustiveness.
    for (v, line) in &msg.variants {
        if !name_wildcard && !name_covered.is_empty() && !name_covered.contains_key(v) {
            diag(*line, format!("variant `{v}` is missing from `name`"));
        }
        if !encode_wildcard && !encode_covered.is_empty() && !encode_covered.contains_key(v) {
            diag(*line, format!("variant `{v}` is missing from `encode_payload`"));
        }
    }

    // 4. DESIGN.md §12 tag ranges.
    let ranges = parse_ranges(design);
    if ranges.is_empty() {
        diag(
            enum_line,
            "the design document declares no `fae-lint: wire-tags` ranges to check tags against"
                .to_string(),
        );
    } else {
        for (i, a) in ranges.iter().enumerate() {
            if a.lo > a.hi {
                diag(
                    enum_line,
                    format!("declared range `{}` is empty ({}-{})", a.name, a.lo, a.hi),
                );
            }
            for b in ranges.iter().skip(i + 1) {
                if a.lo <= b.hi && b.lo <= a.hi {
                    diag(
                        enum_line,
                        format!(
                            "declared tag ranges `{}` ({}-{}) and `{}` ({}-{}) overlap",
                            a.name, a.lo, a.hi, b.name, b.lo, b.hi
                        ),
                    );
                }
            }
        }
        for (v, line) in &msg.variants {
            let Some(n) = tag_map.get(v) else { continue };
            let homes: Vec<&TagRange> =
                ranges.iter().filter(|r| *n >= r.lo && *n <= r.hi).collect();
            if homes.is_empty() {
                diag(
                    *line,
                    format!(
                        "tag {n} (`{v}`) falls outside every declared wire-tags range — \
                         declare it in the design document first"
                    ),
                );
            }
        }
    }
}

/// `Message::V .. => NUM` arms (the `tag` fn shape).
fn variant_arms(view: &TreeView<'_>, lo: usize, hi: usize) -> Vec<(String, u64, usize)> {
    let mut out = Vec::new();
    let mut j = lo;
    let hi = hi.min(view.toks.len());
    while j < hi {
        if let Some(v) = view.variant_at(j, "Message") {
            let k = view.skip_subpattern(j + 4);
            if view.fat_arrow_at(k) {
                if let Some(t) = view.toks.get(k + 2) {
                    if t.kind == TokKind::Num {
                        if let Ok(n) = view.text(k + 2).parse::<u64>() {
                            out.push((v.to_string(), n, view.line(j)));
                        }
                    }
                }
            }
            j = k;
            continue;
        }
        j += 1;
    }
    out
}

/// Variants appearing in pattern position: followed by `=>` or by an
/// or-pattern `|` that eventually reaches `=>`.
fn pattern_variants(view: &TreeView<'_>, lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = lo;
    let hi = hi.min(view.toks.len());
    while j < hi {
        if let Some(v) = view.variant_at(j, "Message") {
            let k = view.skip_subpattern(j + 4);
            let is_or = view.is_punct(k, b'|') && !view.is_punct(k + 1, b'|');
            if view.fat_arrow_at(k) || is_or {
                out.push(v.to_string());
            }
            j = k;
            continue;
        }
        j += 1;
    }
    out
}

/// `NUM => .. Message::V ..` arms (the `decode_payload` shape).
fn decode_arms(view: &TreeView<'_>, lo: usize, hi: usize) -> Vec<(u64, String)> {
    let mut out = Vec::new();
    let mut current: Option<u64> = None;
    let mut j = lo;
    let hi = hi.min(view.toks.len());
    while j < hi {
        if view.toks[j].kind == TokKind::Num && view.fat_arrow_at(j + 1) {
            if let Ok(n) = view.text(j).parse::<u64>() {
                current = Some(n);
            }
            j += 3;
            continue;
        }
        if let Some(v) = view.variant_at(j, "Message") {
            if let Some(n) = current.take() {
                out.push((n, v.to_string()));
            }
            j += 4;
            continue;
        }
        j += 1;
    }
    out
}

/// A lone lowercase binding or `_` in front of `=>` (the catch-all arm).
fn has_wildcard_arm(view: &TreeView<'_>, lo: usize, hi: usize) -> bool {
    let hi = hi.min(view.toks.len());
    for j in lo..hi {
        if view.toks[j].kind == TokKind::Ident && view.fat_arrow_at(j + 1) {
            let w = view.text(j);
            let lowercase = w == "_" || w.chars().next().is_some_and(|c| c.is_ascii_lowercase());
            // Not the struct-pattern field binding `{ ack } =>` — those
            // are preceded by `{` or `,` inside a subpattern; a true
            // wildcard arm is preceded by `,`/`{` at arm level too, so
            // distinguish by what came before: a `}`/`)` means the arm
            // had a pattern already.
            let prev_ok = j == lo
                || matches!(view.punct(j - 1), Some(b',') | Some(b'{'))
                    && !prev_is_subpattern(view, lo, j);
            if lowercase && prev_ok {
                return true;
            }
        }
    }
    false
}

/// True when the ident at `j` sits inside a `Message::V { .. }`
/// sub-pattern rather than at arm level: scan back for an unmatched `{`
/// that is preceded by an ident (a struct pattern/literal).
fn prev_is_subpattern(view: &TreeView<'_>, lo: usize, j: usize) -> bool {
    let mut depth = 0i32;
    let mut k = j;
    while k > lo {
        k -= 1;
        match view.punct(k) {
            Some(b'}') => depth += 1,
            Some(b'{') => {
                if depth == 0 {
                    // Opening brace: struct pattern if an ident hugs it.
                    return k > 0 && view.toks[k - 1].kind == TokKind::Ident;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    false
}
