//! Suppression pragmas: `// fae-lint: allow(<rules>, reason = "...")`.
//!
//! Recognised in plain `//` comments only — the tokenizer hands those
//! over on [`TreeView::comments`], so pragma text quoted in a string or
//! a block comment never gets here, and doc comments (`///`, `//!`),
//! which may legitimately *describe* the syntax, are skipped.

use crate::tokens::is_ident_byte;
use crate::tree::TreeView;

/// A parsed pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Byte offset of the comment (for test-region exemption).
    pub offset: usize,
    /// Rule ids the pragma suppresses.
    pub rules: Vec<String>,
    /// The mandatory human-readable justification.
    pub reason: String,
}

/// Every comment in `view` that claims to be a pragma: well-formed ones
/// parsed, malformed ones as `(line, what is wrong)`.
pub fn collect(view: &TreeView<'_>) -> (Vec<Pragma>, Vec<(usize, String)>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for c in &view.comments {
        let text = c.text(view.source);
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        match parse(text) {
            Some(Ok((rules, reason))) => {
                pragmas.push(Pragma { line: c.line, offset: c.start, rules, reason })
            }
            Some(Err(message)) => errors.push((c.line, message.to_string())),
            None => {}
        }
    }
    (pragmas, errors)
}

/// Parses a line comment's text into `(rules, reason)`.
///
/// Returns `None` for ordinary comments and `Some(Err(_))` when the
/// comment says `fae-lint:` but the rest does not match
/// `allow(<rule>[, <rule>...], reason = "...")`.
fn parse(comment: &str) -> Option<Result<(Vec<String>, String), &'static str>> {
    let idx = comment.find("fae-lint:")?;
    let rest = comment[idx + "fae-lint:".len()..].trim();
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Some(Err("expected `allow(<rule>[, <rule>...], reason = \"...\")`"));
    };
    let Some(inner) = inner.trim_end().strip_suffix(')') else {
        return Some(Err("missing closing `)`"));
    };
    // The reason clause is last and its text may contain commas, so split
    // on the `reason` keyword rather than naively on `,`.
    let Some(reason_at) = inner.find("reason") else {
        return Some(Err("missing `reason = \"...\"` clause"));
    };
    let rule_part = inner[..reason_at].trim().trim_end_matches(',').trim();
    let reason_part = inner[reason_at + "reason".len()..].trim();
    let Some(reason_part) = reason_part.strip_prefix('=') else {
        return Some(Err("expected `=` after `reason`"));
    };
    let reason = reason_part.trim().strip_prefix('"').and_then(|r| r.strip_suffix('"'));
    let Some(reason) = reason else {
        return Some(Err("reason must be a quoted string"));
    };
    if reason.trim().is_empty() {
        return Some(Err("reason must not be empty"));
    }
    if rule_part.is_empty() {
        return Some(Err("at least one rule id is required"));
    }
    let rules: Vec<String> = rule_part.split(',').map(|r| r.trim().to_string()).collect();
    if rules.iter().any(|r| r.is_empty() || !r.bytes().all(|b| is_ident_byte(b) || b == b'-')) {
        return Some(Err("rule ids must be kebab-case identifiers"));
    }
    Some(Ok((rules, reason.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_multi_rule() {
        let src = "// fae-lint: allow(wall-clock, ambient-rng, reason = \"bench only\")\n";
        let (pragmas, _) = collect(&TreeView::new(src));
        assert_eq!(pragmas[0].rules, vec!["wall-clock", "ambient-rng"]);
    }
}
