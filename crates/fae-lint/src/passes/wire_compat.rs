//! Wire-compat: static checks over `fae-net::wire` tag declarations.
//!
//! Parses the `Message` enum plus the `tag`/`decode_payload` functions
//! and cross-checks them:
//!
//! * every variant has exactly one tag, and tags are unique;
//! * `decode_payload` maps every declared tag back to the *same*
//!   variant (encode/decode bijection), and decodes no undeclared tag;
//! * every tag falls inside exactly one of the ranges DESIGN.md §12
//!   declares in `fae-lint: wire-tags <group> = <lo>-<hi>` lines, and
//!   the declared ranges are pairwise disjoint.
//!
//! That `name`/`encode_payload` cover every variant is rustc's E0004
//! and is not checked here.
//!
//! Rule id: `wire-compat`.

use std::collections::BTreeMap;

use crate::tree::variant_refs;
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
    let Some(msg) = wire.items.enums.iter().find(|e| e.name == "Message") else {
        return;
    };
    let enum_line = msg.line;

    // `Message::V => N` arms of `tag`, `N => Message::V` of the decoder.
    let mut tag_map: BTreeMap<&str, u64> = BTreeMap::new();
    let mut decode_map: BTreeMap<u64, &str> = BTreeMap::new();
    for f in &wire.items.fns {
        let Some(body) = f.body else { continue };
        let arms = variant_refs(wire.view, body, "Message").into_iter();
        let arms = arms.filter_map(|(v, n)| Some((v, n?)));
        match f.name.as_str() {
            "tag" => {
                for (v, n) in arms {
                    if let Some(prev) = tag_map.insert(v, n).filter(|&prev| prev != n) {
                        diag(f.line, format!("variant `{v}` is tagged both {prev} and {n}"));
                    }
                }
            }
            "decode_payload" | "decode" => {
                for (v, n) in arms {
                    decode_map.entry(n).or_insert(v);
                }
            }
            _ => {}
        }
    }

    // 1. Every variant tagged, tags unique.
    let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (v, line) in &msg.variants {
        match tag_map.get(v.as_str()) {
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
        let Some(n) = tag_map.get(v.as_str()) else { continue };
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

    // 3. DESIGN.md §12 tag ranges.
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
            let Some(n) = tag_map.get(v.as_str()) else { continue };
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
