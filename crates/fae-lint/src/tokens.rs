//! The tokenizer: the one place that decides where comments, string,
//! raw-string and char literals, and lifetimes begin and end.
//!
//! Every rule and pass works on the [`Tok`] stream this produces (or on
//! the tree built over it), so a trigger spelled inside a literal or a
//! comment is invisible to all of them by construction. Line comments
//! come out on a side channel ([`Lexed::comments`]) because pragmas
//! live there; block comments are dropped.
//!
//! Deliberately *not* a full lexer: multi-byte operators (`::`, `=>`,
//! `->`, `..`) come out as adjacent single-byte [`TokKind::Punct`]
//! tokens, which the tree/flow layers reassemble by adjacency where it
//! matters. That keeps the scanner small enough to audit by eye.

/// What a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `self`, ...).
    Ident,
    /// Numeric literal (integers, floats, prefixed forms).
    Num,
    /// String literal, including the quotes (`"..."`, `b"..."` body).
    Str,
    /// Raw string literal, including `r`/hashes/quotes.
    RawStr,
    /// Char literal, including the quotes.
    Char,
    /// Lifetime (`'a`) — the tick plus the identifier.
    Lifetime,
    /// Any other single byte of punctuation.
    Punct,
    /// A `//` comment up to (not including) its newline. Only ever in
    /// [`Lexed::comments`], never in the code stream.
    LineComment,
}

/// One token: kind plus its byte span and 1-based line number.
#[derive(Clone, Copy, Debug)]
pub struct Tok {
    /// What it is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// The token's text within `source`.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        source.get(self.start..self.end).unwrap_or("")
    }
}

/// True for a byte that can continue an identifier.
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// What [`tokenize`] yields: the code tokens, and the line comments it
/// skipped while producing them.
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// `//` comments (doc comments included) in source order.
    pub comments: Vec<Tok>,
}

/// If `rest` begins a raw-string opener (`#*"`), returns the hash count.
fn raw_string_hashes(rest: &[u8]) -> Option<usize> {
    let mut n = 0;
    while n < rest.len() && rest[n] == b'#' {
        n += 1;
    }
    if rest.get(n) == Some(&b'"') {
        Some(n)
    } else {
        None
    }
}

/// Tokenizes `source`, skipping whitespace and block comments.
///
/// Line comments run to the newline, block comments nest, ordinary
/// strings honour `\` escapes, raw strings honour their hash count, and
/// a `'` opens a char literal (bounded at 12 bytes, so an unterminated
/// one cannot swallow the file) when an escape, a non-identifier byte
/// or a closing tick two bytes on says so, a lifetime otherwise.
/// Unterminated literals and comments end at EOF; nothing here panics.
pub fn tokenize(source: &str) -> Lexed {
    let src = source.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < src.len() {
        let b = src[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let prev_ident = i > 0 && is_ident_byte(src[i - 1]);
        if b == b'/' && i + 1 < src.len() && src[i + 1] == b'/' {
            let start = i;
            while i < src.len() && src[i] != b'\n' {
                i += 1;
            }
            comments.push(Tok { kind: TokKind::LineComment, start, end: i, line });
            continue;
        }
        if b == b'/' && i + 1 < src.len() && src[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < src.len() {
                if src[i] == b'/' && i + 1 < src.len() && src[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && i + 1 < src.len() && src[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if src[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        if b == b'"' {
            let start = i;
            let start_line = line;
            i += 1;
            while i < src.len() {
                if src[i] == b'\\' && i + 1 < src.len() {
                    if src[i] == b'\n' || src[i + 1] == b'\n' {
                        line += 1;
                    }
                    i += 2;
                } else if src[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    if src[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            toks.push(Tok { kind: TokKind::Str, start, end: i, line: start_line });
            continue;
        }
        if b == b'r' && !prev_ident {
            if let Some(hashes) = raw_string_hashes(&src[i + 1..]) {
                let start = i;
                let start_line = line;
                i += 1 + hashes + 1; // r, hashes, opening quote
                while i < src.len() {
                    if src[i] == b'"' && src[i + 1..].iter().take(hashes).all(|&c| c == b'#') {
                        i += 1 + hashes.min(src.len() - i - 1);
                        break;
                    }
                    if src[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                toks.push(Tok { kind: TokKind::RawStr, start, end: i, line: start_line });
                continue;
            }
        }
        if b == b'\'' {
            let next = src.get(i + 1).copied().unwrap_or(0);
            let after = src.get(i + 2).copied().unwrap_or(0);
            if next == b'\\' || (!is_ident_byte(next) && next != b'\'') || after == b'\'' {
                let start = i;
                let start_line = line;
                i += 1;
                let mut n = 0;
                while i < src.len() && n < 12 {
                    if src[i] == b'\\' && i + 1 < src.len() {
                        i += 2;
                        n += 2;
                    } else if src[i] == b'\'' {
                        i += 1;
                        break;
                    } else {
                        if src[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                        n += 1;
                    }
                }
                toks.push(Tok { kind: TokKind::Char, start, end: i, line: start_line });
            } else {
                // Lifetime: tick plus identifier run.
                let start = i;
                i += 1;
                while i < src.len() && is_ident_byte(src[i]) {
                    i += 1;
                }
                toks.push(Tok { kind: TokKind::Lifetime, start, end: i, line });
            }
            continue;
        }
        if is_ident_start(b) {
            let start = i;
            while i < src.len() && is_ident_byte(src[i]) {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Ident, start, end: i, line });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < src.len() && (is_ident_byte(src[i]) || src[i] == b'.') {
                // `0..n` is a range, not a float: stop before `..`.
                if src[i] == b'.'
                    && (src.get(i + 1) == Some(&b'.')
                        || !src.get(i + 1).copied().unwrap_or(b' ').is_ascii_digit())
                {
                    break;
                }
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Num, start, end: i, line });
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct, start: i, end: i + 1, line });
        i += 1;
    }
    Lexed { toks, comments }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn floats_and_ranges() {
        let src = "a(1.5, 0..8, x.0)";
        let t = tokenize(src).toks;
        let nums: Vec<_> =
            t.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text(src)).collect();
        assert_eq!(nums, vec!["1.5", "0", "8", "0"]);
    }

    #[test]
    fn raw_ident_prefix_is_not_a_raw_string() {
        // `prev_ident` guard: `for r in ..` must not treat `r` + later
        // quote as a raw-string opener.
        let src = "for r in v { g(r, \"s\") }";
        let t = tokenize(src).toks;
        assert!(t.iter().any(|t| t.kind == TokKind::Str && t.text(src) == "\"s\""));
    }

    #[test]
    fn unterminated_literals_and_comments_end_at_eof() {
        for src in ["let s = \"never closed", "r##\"never closed\"#", "/* never /* closed */", "'"]
        {
            let lexed = tokenize(src);
            assert!(lexed.toks.iter().all(|t| t.end <= src.len()), "{src}");
        }
    }

    /// Source fragments chosen to stress every scanner rule: nested block
    /// comments, escapes inside strings, raw-string hash counts, byte
    /// strings, char-vs-lifetime ticks, multi-byte text, and comment
    /// markers nested inside literals (and vice versa). `true` marks a
    /// fragment whose words are hidden from code (comment, literal or
    /// lifetime).
    const FRAGMENTS: &[(&str, bool)] = &[
        ("fn f() { g(); }", false),
        ("let x = 1;", false),
        ("0x1f ", false),
        ("1.5e3 ", false),
        ("ident_2 ", false),
        ("// line comment\n", true),
        ("/// doc comment\n", true),
        ("//! inner doc\n", true),
        ("// fae-lint: allow(no-panic, reason = \"test\")\n", true),
        ("// ünï ✓ cödé\n", true),
        ("/* block */", true),
        ("/* nested /* deeper */ still out */", true),
        ("/* unterminated-newline \n */", true),
        ("\"plain string\"", true),
        ("\"has // not a comment\"", true),
        ("\"has /* not a comment\"", true),
        ("\"escaped \\\" quote\"", true),
        ("\"trailing backslash \\\\\"", true),
        ("\"héllo — wörld ✓\"", true),
        ("b\"byte string\"", true),
        ("r\"raw string\"", true),
        ("r#\"raw with \" inside\"#", true),
        ("r##\"raw with \"# inside\"##", true),
        ("'a'", true),
        ("'\\n'", true),
        ("'\\''", true),
        ("'x' ", true),
        ("'✓'", true),
        ("'static ", true),
        ("'a, 'b>", true),
        ("<'a>", true),
        ("\n", false),
        ("\n\n", false),
        ("  \t ", false),
        // Trailing space: an identifier byte hugging `r#"` would make the
        // `r` part of that identifier, not a raw-string opener.
        ("x.y::z ", false),
        ("=> -> ..", false),
    ];

    /// Words of two or more bytes in `text` (one-letter words are out:
    /// the `b` of `b"…"` is a real identifier).
    fn words(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| w.len() > 1)
    }

    /// Picks one fragment (the vendored proptest shim has no `prop_oneof`,
    /// so this indexes the table instead).
    fn fragment() -> impl Strategy<Value = &'static str> {
        (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tokens_are_well_formed_and_hidden_words_stay_hidden(
            frags in prop::collection::vec(fragment(), 0..40)
        ) {
            let source: String = frags.concat();
            let lexed = tokenize(&source);
            let code_words: Vec<&str> =
                FRAGMENTS.iter().filter(|(_, hidden)| !hidden).flat_map(|(f, _)| words(f)).collect();

            let mut prev_end = 0usize;
            for t in &lexed.toks {
                // In bounds, ordered, non-overlapping, on char boundaries.
                prop_assert!(t.start < t.end && t.end <= source.len());
                prop_assert!(t.start >= prev_end, "token at byte {} overlaps its predecessor", t.start);
                prop_assert!(source.is_char_boundary(t.start) && source.is_char_boundary(t.end));
                prev_end = t.end;

                let line = 1 + source.as_bytes()[..t.start].iter().filter(|&&b| b == b'\n').count();
                prop_assert_eq!(t.line, line, "token at byte {} line mismatch", t.start);

                // A word that only ever appears inside comment, literal
                // or lifetime fragments must never surface as code.
                if t.kind == TokKind::Ident {
                    let w = t.text(&source);
                    let hidden_only = w.len() > 1
                        && !code_words.contains(&w)
                        && FRAGMENTS.iter().any(|(f, hidden)| *hidden && words(f).any(|x| x == w));
                    prop_assert!(!hidden_only, "hidden word `{}` came out as an identifier", w);
                }
            }
            for c in &lexed.comments {
                prop_assert!(c.end <= source.len() && source[c.start..c.end].starts_with("//"));
                let line = 1 + source.as_bytes()[..c.start].iter().filter(|&&b| b == b'\n').count();
                prop_assert_eq!(c.line, line);
            }
        }
    }
}
