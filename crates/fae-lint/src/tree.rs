//! Brace-matched token trees, item extraction and test-gated ranges.
//!
//! Sits between the flat token stream ([`crate::tokens`]) and the rules:
//! groups `()`/`[]`/`{}` into nested nodes, then walks the tree pulling
//! out the items the taint pass reasons about — functions (with their
//! body groups), struct fields (with flattened type text) and `use`
//! aliases — and the byte ranges of `#[cfg(test)]`/`#[test]` items.
//! This is *use-resolution light*: `use std::collections::HashMap as
//! FastMap` makes `FastMap` resolve to the full path, so renamed imports
//! cannot dodge the determinism rules.
//!
//! [`stmts`] splits a block into the classified statements the taint
//! pass walks.
//!
//! Not a parser: generics are skipped by angle-depth counting, patterns
//! are treated as token runs, and macro bodies are walked like ordinary
//! code. DESIGN.md §16 lists the resulting soundness caveats.

use crate::tokens::{tokenize, Tok, TokKind};

/// One node of the token tree.
#[derive(Debug)]
pub enum Node {
    /// A leaf: index into the token slice.
    Leaf(usize),
    /// A delimited group. `open`/`close` index the delimiter tokens
    /// (close may equal open for an unterminated group at EOF).
    Group {
        /// Opening delimiter byte: `(`, `[` or `{`.
        delim: u8,
        /// Token index of the opening delimiter.
        open: usize,
        /// Token index of the closing delimiter (or the last token).
        close: usize,
        /// Nodes between the delimiters.
        children: Vec<Node>,
    },
}

fn closer_for(open: u8) -> u8 {
    match open {
        b'(' => b')',
        b'[' => b']',
        _ => b'}',
    }
}

/// One file's source, tokens and token tree, with the accessors every
/// rule and pass shares.
pub struct TreeView<'s> {
    /// The raw source text.
    pub source: &'s str,
    /// The code token stream.
    pub toks: Vec<Tok>,
    /// The token tree over `toks`.
    pub nodes: Vec<Node>,
}

impl<'s> TreeView<'s> {
    /// Tokenizes and tree-builds `source`.
    pub fn new(source: &'s str) -> Self {
        let mut view = TreeView { source, toks: tokenize(source), nodes: Vec::new() };
        view.nodes = build_until(&view, &mut 0, None);
        view
    }

    /// Text of token `i`.
    pub fn text(&self, i: usize) -> &'s str {
        self.toks[i].text(self.source)
    }

    /// 1-based line of token `i`.
    pub fn line(&self, i: usize) -> usize {
        self.toks[i].line
    }

    /// True when token `i` is the identifier `word`.
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.toks[i].kind == TokKind::Ident && self.text(i) == word
    }

    /// The byte of token `i` when it is punctuation; `None` for any
    /// other kind and for an index past the end.
    pub fn punct(&self, i: usize) -> Option<u8> {
        let t = self.toks.get(i)?;
        if t.kind == TokKind::Punct {
            self.source.as_bytes().get(t.start).copied()
        } else {
            None
        }
    }

    /// True when token `i` is the punctuation byte `b`.
    pub fn is_punct(&self, i: usize, b: u8) -> bool {
        self.punct(i) == Some(b)
    }

    /// True when `n` is the lone punctuation token `b` (a `,` or `;`
    /// separating siblings), not a group.
    pub fn is_leaf_punct(&self, n: &Node, b: u8) -> bool {
        matches!(n, Node::Leaf(k) if self.is_punct(*k, b))
    }

    /// True when tokens `i` and `i + 1` touch (no whitespace or comment
    /// between them) — how `::`, `=>`, `m["k"]` are told from lookalikes.
    pub fn adjacent(&self, i: usize) -> bool {
        self.toks.get(i + 1).is_some_and(|next| next.start == self.toks[i].end)
    }

    /// True when the `>` at token `k` ends a `->` or `=>`.
    fn arrow_end(&self, k: usize) -> bool {
        k > 0 && self.adjacent(k - 1) && matches!(self.punct(k - 1), Some(b'-' | b'='))
    }
}

/// Builds sibling nodes from token `*pos` up to (not consuming) the
/// closing delimiter `until`, or EOF. An unterminated group closes at
/// the last token; a stray closer becomes a leaf.
fn build_until(view: &TreeView<'_>, pos: &mut usize, until: Option<u8>) -> Vec<Node> {
    let mut out = Vec::new();
    while *pos < view.toks.len() {
        if let Some(b) = view.punct(*pos) {
            if Some(b) == until {
                return out;
            }
            if b == b'(' || b == b'[' || b == b'{' {
                let open = *pos;
                *pos += 1;
                let children = build_until(view, pos, Some(closer_for(b)));
                let close = (*pos).min(view.toks.len().saturating_sub(1));
                out.push(Node::Group { delim: b, open, close, children });
                if *pos < view.toks.len() {
                    *pos += 1;
                }
                continue;
            }
        }
        out.push(Node::Leaf(*pos));
        *pos += 1;
    }
    out
}

/// Appends every token index under `nodes`, delimiters included, in
/// source order.
fn flat_into(nodes: &[Node], out: &mut Vec<usize>) {
    for n in nodes {
        match n {
            Node::Leaf(i) => out.push(*i),
            Node::Group { open, close, children, .. } => {
                out.push(*open);
                flat_into(children, out);
                out.push(*close);
            }
        }
    }
}

/// All token indices under `nodes`, delimiters included, in order.
pub fn flatten(nodes: &[Node]) -> Vec<usize> {
    let mut out = Vec::new();
    flat_into(nodes, &mut out);
    out
}

/// What a statement is, read off its first token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// `let PAT [: TY] [= EXPR] [else {…}]`.
    Let,
    /// `if`/`while`/`for`/`match`/`loop`/`else`/`unsafe`: a header and
    /// its blocks.
    Control,
    /// `return [EXPR]`.
    Return,
    /// `PLACE = EXPR`, compound assignments included.
    Assign,
    /// Any other expression, a block's tail included.
    Expr,
}

/// One statement of a block, as [`stmts`] split it.
pub struct Stmt<'a> {
    /// What it is.
    pub kind: StmtKind,
    /// The leading identifier (`let`, `for`, a path root), or `""`.
    pub head: &'a str,
    /// Every token outside `blocks`, delimiters included, in source
    /// order: all of it, or a control statement's header.
    pub toks: Vec<usize>,
    /// A control statement's `{…}` bodies, in order.
    pub blocks: Vec<&'a [Node]>,
    /// Position in `toks` of the top-level `=` of a `let` or assignment
    /// (`==`, `<=`, `=>` and friends are told apart by adjacency).
    eq: Option<usize>,
    /// The identifiers it binds or writes: a `let` pattern's (a type
    /// annotation excluded), a `for`/`if let`/`while let` pattern's, or
    /// an assignment place's path (`self.a = ..` → `self`, `a`).
    pub binds: Vec<String>,
    /// The block's last statement, with no `;` or `}` ending it.
    pub tail: bool,
}

impl Stmt<'_> {
    /// The tokens left of the top-level `=` (all of them without one).
    pub fn lhs(&self) -> &[usize] {
        &self.toks[..self.eq.unwrap_or(self.toks.len())]
    }

    /// The tokens right of the top-level `=` (none without one).
    pub fn rhs(&self) -> &[usize] {
        self.eq.map_or(&[], |e| &self.toks[e + 1..])
    }
}

/// Splits a block's nodes into statements: at `;`, at a `,` outside
/// angle brackets (match arms; the commas of `HashMap<u32, u32>` do not
/// split), and after a `{…}` group that no `else` follows.
pub fn stmts<'a>(view: &TreeView<'a>, nodes: &'a [Node]) -> Vec<Stmt<'a>> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut angle = 0i32;
    for (i, n) in nodes.iter().enumerate() {
        let end = match n {
            Node::Leaf(k) => {
                let k = *k;
                match view.punct(k) {
                    Some(b'<') => {
                        let shift = (view.is_punct(k + 1, b'<') && view.adjacent(k))
                            || (k > 0 && view.is_punct(k - 1, b'<') && view.adjacent(k - 1));
                        angle += i32::from(!shift);
                        None
                    }
                    Some(b'>') => {
                        angle -= i32::from(angle > 0 && !view.arrow_end(k));
                        None
                    }
                    Some(b';') => Some(i),
                    Some(b',') if angle <= 0 => Some(i),
                    _ => None,
                }
            }
            Node::Group { delim: b'{', .. } => {
                let else_follows =
                    matches!(nodes.get(i + 1), Some(Node::Leaf(k)) if view.is_ident(*k, "else"));
                (!else_follows).then_some(i + 1)
            }
            Node::Group { .. } => None,
        };
        if let Some(end) = end {
            if end > start {
                out.push(stmt(view, &nodes[start..end], false));
            }
            start = i + 1;
            angle = 0;
        }
    }
    if start < nodes.len() {
        out.push(stmt(view, &nodes[start..], true));
    }
    out
}

fn stmt<'a>(view: &TreeView<'a>, nodes: &'a [Node], tail: bool) -> Stmt<'a> {
    let head = match nodes.first() {
        Some(Node::Leaf(k)) if view.toks[*k].kind == TokKind::Ident => view.text(*k),
        _ => "",
    };
    let control = matches!(head, "if" | "while" | "for" | "match" | "loop" | "else" | "unsafe");
    let mut toks = Vec::new();
    let mut blocks = Vec::new();
    for n in nodes {
        match n {
            Node::Group { delim: b'{', children, .. } if control => {
                blocks.push(children.as_slice())
            }
            n => flat_into(std::slice::from_ref(n), &mut toks),
        }
    }
    let (kind, eq) = match head {
        _ if control => (StmtKind::Control, None),
        "return" => (StmtKind::Return, None),
        "let" => (StmtKind::Let, assign_eq(view, &toks)),
        _ => match assign_eq(view, &toks) {
            Some(eq) => (StmtKind::Assign, Some(eq)),
            None => (StmtKind::Expr, None),
        },
    };
    let binds = match kind {
        StmtKind::Let | StmtKind::Assign => place_idents(view, &toks[..eq.unwrap_or(toks.len())]),
        StmtKind::Control => control_binds(view, &toks, head),
        _ => Vec::new(),
    };
    Stmt { kind, head, toks, blocks, eq, binds, tail }
}

/// Position of the top-level assignment `=` in `toks` (outside every
/// group), when something follows it.
fn assign_eq(view: &TreeView<'_>, toks: &[usize]) -> Option<usize> {
    let mut depth = 0i32;
    for (i, &k) in toks.iter().enumerate() {
        match view.punct(k) {
            Some(b'(' | b'[' | b'{') => depth += 1,
            Some(b')' | b']' | b'}') => depth -= 1,
            Some(b'=') if depth == 0 => {
                let joins_next = view.adjacent(k) && matches!(view.punct(k + 1), Some(b'=' | b'>'));
                let joins_prev = k > 0
                    && view.adjacent(k - 1)
                    && matches!(view.punct(k - 1), Some(b'=' | b'!' | b'<' | b'>'));
                if !joins_next && !joins_prev {
                    return (i + 1 < toks.len()).then_some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The identifiers an assignment place or `let` pattern names; a type
/// annotation (after the first lone `:` outside groups) is not one.
fn place_idents(view: &TreeView<'_>, lhs: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for &k in lhs {
        match view.punct(k) {
            Some(b'(' | b'[' | b'{') => depth += 1,
            Some(b')' | b']' | b'}') => depth -= 1,
            Some(b':') if depth == 0 => {
                let path = (view.adjacent(k) && view.is_punct(k + 1, b':'))
                    || (k > 0 && view.adjacent(k - 1) && view.is_punct(k - 1, b':'));
                if !path {
                    break;
                }
            }
            _ => {}
        }
        if view.toks[k].kind == TokKind::Ident
            && !matches!(view.text(k), "let" | "mut" | "ref" | "box")
        {
            out.push(view.text(k).to_string());
        }
    }
    out
}

/// The lowercase identifiers a control header's pattern binds:
/// `for PAT in ..`, `if let PAT = ..`, `while let PAT = ..`.
fn control_binds(view: &TreeView<'_>, header: &[usize], head: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut active = false;
    for &k in header {
        if view.toks[k].kind == TokKind::Ident {
            let w = view.text(k);
            if (head == "for" && w == "for") || w == "let" {
                active = true;
                continue;
            }
            if w == "in" {
                break;
            }
            if active && w.starts_with(|c: char| c.is_lowercase() || c == '_') {
                out.push(w.to_string());
            }
        }
        if view.is_punct(k, b'=') && head != "for" {
            break;
        }
    }
    out
}

/// Half-open byte ranges of test-only items: an attribute whose
/// predicate gates on `test` ([`gates_on_test`]), any further attributes,
/// and the item up to its own `{…}` body or terminating `;`. Delimiters
/// come from the tree, so a `;` inside `[u8; 4]` or a `}` inside a
/// string cannot end the item early.
pub fn test_ranges(view: &TreeView<'_>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    collect_test_ranges(view, &view.nodes, &mut out);
    out
}

fn collect_test_ranges(view: &TreeView<'_>, nodes: &[Node], out: &mut Vec<(usize, usize)>) {
    // `#` leaf followed by a `[…]` group: the attribute's children.
    let attr_at = |i: usize| match (nodes.get(i), nodes.get(i + 1)) {
        (Some(Node::Leaf(k)), Some(Node::Group { delim: b'[', children, .. }))
            if view.is_punct(*k, b'#') =>
        {
            Some((*k, children.as_slice()))
        }
        _ => None,
    };
    let mut i = 0usize;
    while i < nodes.len() {
        if let Some((hash, _)) = attr_at(i).filter(|(_, attr)| gates_on_test(view, attr)) {
            let mut j = i + 2;
            while attr_at(j).is_some() {
                j += 2;
            }
            let item_end = nodes.iter().enumerate().skip(j).find_map(|(at, n)| match n {
                Node::Group { delim: b'{', close, .. } => Some((at, *close)),
                Node::Leaf(k) if view.is_punct(*k, b';') => Some((at, *k)),
                _ => None,
            });
            // No body and no `;` (a gated field, a truncated file):
            // nothing to exempt.
            if let Some((at, end)) = item_end {
                out.push((view.toks[hash].start, view.toks[end].end));
                i = at + 1;
                continue;
            }
        }
        if let Node::Group { children, .. } = &nodes[i] {
            collect_test_ranges(view, children, out);
        }
        i += 1;
    }
}

/// Does a cfg predicate (or the whole attribute body) compile its item
/// only under `test`? True for `test`, `cfg(test)`, `all(…)`/`any(…)`
/// with a gating operand (`any` is the documented loose case); false
/// for `not(test)`, `cfg_attr(test, …)` and anything else.
fn gates_on_test(view: &TreeView<'_>, pred: &[Node]) -> bool {
    match pred {
        [Node::Leaf(k)] => view.is_ident(*k, "test"),
        [Node::Leaf(k), Node::Group { delim: b'(', children, .. }] => {
            let operator = view.text(*k);
            if view.toks[*k].kind != TokKind::Ident || !matches!(operator, "cfg" | "all" | "any") {
                return false;
            }
            children
                .split(|n| view.is_leaf_punct(n, b','))
                .any(|operand| gates_on_test(view, operand))
        }
        _ => false,
    }
}

/// A function found in the tree.
pub struct FnItem<'a> {
    /// Function name.
    pub name: String,
    /// True when any ancestor item or the fn itself is `pub`.
    pub is_pub: bool,
    /// Parameter names (pattern identifiers, `self` included).
    pub params: Vec<String>,
    /// The body's nodes, between the braces; `None` for a signature.
    pub body: Option<&'a [Node]>,
}

/// A struct field with a flattened type string (tokens joined by one
/// space), e.g. `HashMap < u32 , u64 >`.
pub struct FieldItem {
    /// Field name (tuple fields are `0`, `1`, ...).
    pub field: String,
    /// Flattened type text.
    pub ty: String,
}

/// A `use` alias: local name → full path (`::`-joined).
pub struct UseItem {
    /// The name visible in this file.
    pub name: String,
    /// The full path it resolves to.
    pub path: String,
}

/// Everything the taint pass needs from one file.
pub struct Items<'a> {
    /// Functions, including those nested in `impl`/`mod` blocks.
    pub fns: Vec<FnItem<'a>>,
    /// Struct fields.
    pub fields: Vec<FieldItem>,
    /// Use aliases.
    pub uses: Vec<UseItem>,
}

/// Extracts items from a [`TreeView`].
pub fn items<'a>(view: &'a TreeView<'_>) -> Items<'a> {
    let mut out = Items { fns: Vec::new(), fields: Vec::new(), uses: Vec::new() };
    scan_items(view, &view.nodes, false, &mut out);
    out
}

fn scan_items<'a>(view: &TreeView<'_>, nodes: &'a [Node], outer_pub: bool, out: &mut Items<'a>) {
    let mut idx = 0usize;
    let mut last_pub = false;
    while idx < nodes.len() {
        // Groups (`pub(crate)`, attributes) leave a pending `pub` as is.
        let Node::Leaf(i) = nodes[idx] else {
            idx += 1;
            continue;
        };
        let is_pub = outer_pub || last_pub;
        last_pub = view.is_ident(i, "pub");
        let word = if view.toks[i].kind == TokKind::Ident { view.text(i) } else { "" };
        match word {
            "use" => scan_use(view, nodes, &mut idx, out),
            "fn" => scan_fn(view, nodes, &mut idx, is_pub, out),
            "struct" => scan_struct(view, nodes, &mut idx, out),
            "impl" | "mod" | "trait" => {
                // Recurse into the block (or stop at `mod name;`).
                let end = nodes[idx..].iter().position(|n| {
                    view.is_leaf_punct(n, b';') || matches!(n, Node::Group { delim: b'{', .. })
                });
                let end = end.map_or(nodes.len(), |e| idx + e);
                if let Some(Node::Group { delim: b'{', children, .. }) = nodes.get(end) {
                    scan_items(view, children, is_pub, out);
                }
                idx = end + 1;
            }
            _ => idx += 1,
        }
    }
}

fn scan_use(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items<'_>) {
    // Collect tokens up to `;`, handling `use a::b::{C, D as E};` one
    // level deep (the only shapes in this workspace).
    let mut prefix: Vec<String> = Vec::new();
    let mut j = *idx + 1;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.is_punct(*i, b';') {
                    break;
                }
                if view.toks[*i].kind == TokKind::Ident {
                    prefix.push(view.text(*i).to_string());
                }
                j += 1;
            }
            Node::Group { children, .. } => {
                // Brace group: each comma-separated entry extends prefix.
                let leaves = flatten(children);
                let mut entry: Vec<String> = Vec::new();
                let mut alias: Option<String> = None;
                let mut in_alias = false;
                let push_entry =
                    |entry: &mut Vec<String>, alias: &mut Option<String>, out: &mut Items<'_>| {
                        if let Some(last) = entry.last() {
                            let name = alias.clone().unwrap_or_else(|| last.clone());
                            let mut path = prefix.clone();
                            path.extend(entry.iter().cloned());
                            out.uses.push(UseItem { name, path: path.join("::") });
                        }
                        entry.clear();
                        *alias = None;
                    };
                for &k in &leaves {
                    if view.is_punct(k, b',') {
                        in_alias = false;
                        push_entry(&mut entry, &mut alias, out);
                    } else if view.is_ident(k, "as") {
                        in_alias = true;
                    } else if view.toks[k].kind == TokKind::Ident {
                        if in_alias {
                            alias = Some(view.text(k).to_string());
                        } else {
                            entry.push(view.text(k).to_string());
                        }
                    }
                }
                push_entry(&mut entry, &mut alias, out);
                prefix.clear(); // consumed by the group entries
                j += 1;
            }
        }
    }
    // Plain `use a::b::C;` or `use a::b::C as D;`
    if !prefix.is_empty() {
        let (name, path) = if let Some(pos) = prefix.iter().position(|s| s == "as") {
            let alias = prefix.get(pos + 1).cloned().unwrap_or_default();
            (alias, prefix[..pos].to_vec())
        } else {
            (prefix.last().cloned().unwrap_or_default(), prefix.clone())
        };
        if !name.is_empty() {
            out.uses.push(UseItem { name, path: path.join("::") });
        }
    }
    *idx = j + 1;
}

fn scan_fn<'a>(
    view: &TreeView<'_>,
    nodes: &'a [Node],
    idx: &mut usize,
    is_pub: bool,
    out: &mut Items<'a>,
) {
    let (mut j, name) = item_name(view, nodes, *idx);
    // Params: first paren group at angle-depth 0 (skips generics, even
    // ones containing `Fn(..)` bounds).
    let mut angle = 0i32;
    let mut params: Vec<String> = Vec::new();
    let mut body = None;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.is_punct(*i, b'<') {
                    angle += 1;
                } else if view.is_punct(*i, b'>') && angle > 0 && !view.arrow_end(*i) {
                    angle -= 1;
                } else if view.is_punct(*i, b';') {
                    // Trait method signature without a body.
                    *idx = j + 1;
                    out.fns.push(FnItem { name, is_pub, params, body });
                    return;
                }
                j += 1;
            }
            Node::Group { delim, children, .. } => {
                if *delim == b'(' && angle == 0 && params.is_empty() && body.is_none() {
                    params = param_names(view, children);
                    j += 1;
                } else if *delim == b'{' {
                    body = Some(children.as_slice());
                    // Nested fns/closures inside the body: recurse.
                    scan_items(view, children, false, out);
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
        }
    }
    out.fns.push(FnItem { name, is_pub, params, body });
    *idx = j;
}

/// Pattern identifiers of a parameter list: the ident before each `:`
/// at depth 0, plus `self` if present.
fn param_names(view: &TreeView<'_>, children: &[Node]) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for n in children {
        match n {
            Node::Leaf(i) => {
                if view.is_ident(*i, "self") {
                    out.push("self".to_string());
                    current = None;
                } else if view.is_punct(*i, b':') {
                    if let Some(name) = current.take() {
                        out.push(name);
                    }
                } else if view.is_punct(*i, b',') {
                    current = None;
                } else if view.toks[*i].kind == TokKind::Ident {
                    let w = view.text(*i);
                    if w != "mut" && w != "ref" {
                        current = Some(w.to_string());
                    }
                }
            }
            Node::Group { .. } => {}
        }
    }
    out
}

/// The name of the item whose keyword is node `idx` — its first
/// identifier after it: the node index past the name and its text.
fn item_name(view: &TreeView<'_>, nodes: &[Node], idx: usize) -> (usize, String) {
    let name = (idx + 1..nodes.len()).find_map(|j| match nodes[j] {
        Node::Leaf(k) if view.toks[k].kind == TokKind::Ident => Some((j, k)),
        _ => None,
    });
    name.map_or((nodes.len(), String::new()), |(j, k)| (j + 1, view.text(k).to_string()))
}

fn scan_struct(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items<'_>) {
    let mut j = *idx + 1;
    while j < nodes.len() {
        match &nodes[j] {
            // A unit struct, or a tuple struct's `;`.
            Node::Leaf(i) if view.is_punct(*i, b';') => break,
            Node::Group { delim: b'{', children, .. } => {
                scan_fields_braced(view, children, out);
                break;
            }
            Node::Group { delim: b'(', children, .. } => scan_fields_tuple(view, children, out),
            _ => {}
        }
        j += 1;
    }
    *idx = j + 1;
}

/// Braced fields: `name: <type tokens>` runs between commas; the name
/// is the first identifier other than `pub` (attributes and the
/// `(crate)` of `pub(crate)` are groups).
fn scan_fields_braced(view: &TreeView<'_>, children: &[Node], out: &mut Items<'_>) {
    for run in children.split(|n| view.is_leaf_punct(n, b',')) {
        let name = run.iter().find_map(|n| match *n {
            Node::Leaf(k) if view.toks[k].kind == TokKind::Ident && !view.is_ident(k, "pub") => {
                Some(k)
            }
            _ => None,
        });
        let colon = run.iter().position(|n| view.is_leaf_punct(n, b':'));
        if let (Some(name), Some(colon)) = (name, colon) {
            out.fields.push(FieldItem {
                field: view.text(name).to_string(),
                ty: type_text(view, &flatten(&run[colon + 1..])),
            });
        }
    }
}

fn scan_fields_tuple(view: &TreeView<'_>, children: &[Node], out: &mut Items<'_>) {
    let fields = children
        .split(|n| view.is_leaf_punct(n, b','))
        .map(|run| flatten(run).into_iter().filter(|&k| !view.is_ident(k, "pub")).collect())
        .filter(|toks: &Vec<usize>| !toks.is_empty());
    for (nth, toks) in fields.enumerate() {
        out.fields.push(FieldItem { field: nth.to_string(), ty: type_text(view, &toks) });
    }
}

/// Token texts joined by one space: `[ f64 ; 8 ]`.
fn type_text(view: &TreeView<'_>, toks: &[usize]) -> String {
    toks.iter().map(|&k| view.text(k)).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is the first occurrence of `needle` inside a test-only range?
    fn gated(src: &str, needle: &str) -> bool {
        let at = src.find(needle).expect("needle present");
        test_ranges(&TreeView::new(src)).iter().any(|&(s, e)| at >= s && at < e)
    }

    #[test]
    fn any_gates_but_a_lookalike_option_does_not() {
        assert!(gated("#[cfg(any(test, feature = \"x\"))]\nmod m { bad() }", "bad"));
        // `testing` contains `test` as a substring but is a different option.
        assert!(!gated("#[cfg(feature = x)]\nmod m { fine() }", "fine"));
        assert!(!gated("#[cfg(testing)]\nmod m { fine() }", "fine"));
    }

    #[test]
    fn groups_nest() {
        let view = TreeView::new("fn f(a: u32) { g(a, [1, 2]); }");
        assert!(!view.nodes.is_empty());
        let it = items(&view);
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "f");
        assert_eq!(it.fns[0].params, vec!["a"]);
    }

    #[test]
    fn impl_methods_and_pub() {
        let src = "pub struct S { x: u32 }\nimpl S { pub fn m(&self, k: u8) -> u8 { k } }";
        let view = TreeView::new(src);
        let it = items(&view);
        let m = it.fns.iter().find(|f| f.name == "m").expect("m found");
        assert!(m.is_pub);
        assert_eq!(m.params, vec!["self", "k"]);
        assert_eq!(it.fields.len(), 1);
        assert_eq!(it.fields[0].field, "x");
        assert_eq!(it.fields[0].ty, "u32");
    }

    #[test]
    fn grouped_use_aliases_resolve() {
        let view = TreeView::new("use std::sync::{Mutex, RwLock as RwL};\n");
        let it = items(&view);
        let find = |n: &str| it.uses.iter().find(|u| u.name == n).map(|u| u.path.clone());
        assert_eq!(find("Mutex").as_deref(), Some("std::sync::Mutex"));
        assert_eq!(find("RwL").as_deref(), Some("std::sync::RwLock"));
    }

    #[test]
    fn generic_fn_bounds_do_not_eat_params() {
        let src = "fn apply<F: Fn(u32) -> bool>(pred: F, x: u32) -> bool { pred(x) }";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.fns[0].params, vec!["pred", "x"]);
    }

    #[test]
    fn tuple_struct_fields() {
        let src = "pub struct PhaseSeconds(pub [f64; 8]);";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.fields.len(), 1);
        assert_eq!(it.fields[0].field, "0");
        assert!(it.fields[0].ty.contains("f64"));
        assert!(it.fields[0].ty.contains('8'));
    }
}
