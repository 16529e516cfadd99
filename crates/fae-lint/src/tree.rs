//! Brace-matched token trees, item extraction and test-gated ranges.
//!
//! Sits between the flat token stream ([`crate::tokens`]) and every rule
//! and pass: groups `()`/`[]`/`{}` into nested nodes, then walks the tree
//! pulling out the items the passes reason about — functions (with
//! their body groups), enums (with variant names and lines), struct
//! fields (with flattened type text) and `use` aliases — and the byte
//! ranges of `#[cfg(test)]`/`#[test]` items. This is *use-resolution
//! light*: `use std::collections::HashMap as FastMap` makes `FastMap`
//! resolve to the full path, so renamed imports cannot dodge the
//! determinism rules.
//!
//! Not a parser: generics are skipped by angle-depth counting, patterns
//! are treated as token runs, and macro bodies are walked like ordinary
//! code. DESIGN.md §16 lists the resulting soundness caveats.

use crate::tokens::{tokenize, Lexed, Tok, TokKind};

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
    /// The `//` comments the tokenizer skipped (pragmas live here).
    pub comments: Vec<Tok>,
    /// The token tree over `toks`.
    pub nodes: Vec<Node>,
}

impl<'s> TreeView<'s> {
    /// Tokenizes and tree-builds `source`.
    pub fn new(source: &'s str) -> Self {
        let Lexed { toks, comments } = tokenize(source);
        let mut view = TreeView { source, toks, comments, nodes: Vec::new() };
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

    /// True when tokens `k`, `k + 1` spell `=>`.
    pub fn fat_arrow_at(&self, k: usize) -> bool {
        self.is_punct(k, b'=') && self.is_punct(k + 1, b'>') && self.adjacent(k)
    }

    /// The variant name when tokens `j..j + 4` spell `<enum_name>::Variant`.
    pub fn variant_at(&self, j: usize, enum_name: &str) -> Option<&'s str> {
        let is_path = j < self.toks.len()
            && self.is_ident(j, enum_name)
            && self.is_punct(j + 1, b':')
            && self.is_punct(j + 2, b':');
        (is_path && self.toks.get(j + 3)?.kind == TokKind::Ident).then(|| self.text(j + 3))
    }

    /// The token index past a `{..}`/`(..)` sub-pattern opening at `k`
    /// (as after `Message::V`), or `k` itself when none opens there.
    pub fn skip_subpattern(&self, mut k: usize) -> usize {
        let mut depth = 0i32;
        while k < self.toks.len() {
            match self.punct(k) {
                Some(b'{') | Some(b'(') => depth += 1,
                Some(b'}') | Some(b')') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ if depth > 0 => {}
                _ => break,
            }
            k += 1;
        }
        k
    }

    /// True when tokens `i` and `i + 1` touch (no whitespace or comment
    /// between them) — how `::`, `=>`, `m["k"]` are told from lookalikes.
    pub fn adjacent(&self, i: usize) -> bool {
        self.toks.get(i + 1).is_some_and(|next| next.start == self.toks[i].end)
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

/// The children of the group whose opening token index is `open`.
pub fn find_group(nodes: &[Node], open: usize) -> Option<&[Node]> {
    for n in nodes {
        if let Node::Group { open: o, close, children, .. } = n {
            if *o == open {
                return Some(children);
            }
            if *o < open && open < *close {
                return find_group(children, open);
            }
        }
    }
    None
}

/// Appends every token index under `nodes`, delimiters included, in
/// source order.
pub fn flat_into(nodes: &[Node], out: &mut Vec<usize>) {
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
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// True when any ancestor item or the fn itself is `pub`.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter names (pattern identifiers, `self` included).
    pub params: Vec<String>,
    /// Indices into the flat token stream covering the body group's
    /// interior (between, not including, the braces).
    pub body: (usize, usize),
}

/// An enum found in the tree.
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names with their 1-based lines.
    pub variants: Vec<(String, usize)>,
}

/// A struct field with a flattened type string (tokens joined by one
/// space), e.g. `Vec < RwLock < Tensor > >`.
pub struct FieldItem {
    /// Owning struct name.
    pub strukt: String,
    /// Field name (tuple fields are `0`, `1`, ...).
    pub field: String,
    /// Flattened type text.
    pub ty: String,
    /// 1-based line of the field name.
    pub line: usize,
}

/// A `use` alias: local name → full path (`::`-joined).
pub struct UseItem {
    /// The name visible in this file.
    pub name: String,
    /// The full path it resolves to.
    pub path: String,
}

/// Everything the passes need from one file.
pub struct Items {
    /// Functions, including those nested in `impl`/`mod` blocks.
    pub fns: Vec<FnItem>,
    /// Enums.
    pub enums: Vec<EnumItem>,
    /// Struct fields.
    pub fields: Vec<FieldItem>,
    /// Use aliases.
    pub uses: Vec<UseItem>,
}

/// Extracts items from a [`TreeView`].
pub fn items(view: &TreeView<'_>) -> Items {
    let mut out =
        Items { fns: Vec::new(), enums: Vec::new(), fields: Vec::new(), uses: Vec::new() };
    scan_items(view, &view.nodes, false, &mut out);
    out
}

fn scan_items(view: &TreeView<'_>, nodes: &[Node], outer_pub: bool, out: &mut Items) {
    let n = nodes.len();
    let mut idx = 0usize;
    let mut last_pub = false;
    while idx < n {
        let node = &nodes[idx];
        let leaf = match node {
            Node::Leaf(i) => Some(*i),
            Node::Group { .. } => None,
        };
        let Some(i) = leaf else {
            idx += 1;
            continue;
        };
        if view.is_ident(i, "pub") {
            last_pub = true;
            idx += 1;
            continue;
        }
        if view.is_ident(i, "use") {
            scan_use(view, nodes, &mut idx, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "fn") {
            scan_fn(view, nodes, &mut idx, outer_pub || last_pub, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "enum") {
            scan_enum(view, nodes, &mut idx, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "struct") {
            scan_struct(view, nodes, &mut idx, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "impl") || view.is_ident(i, "mod") || view.is_ident(i, "trait") {
            // Recurse into the block (or stop at `mod name;`).
            let mut j = idx + 1;
            while j < n {
                match &nodes[j] {
                    Node::Leaf(k) if view.is_punct(*k, b';') => break,
                    Node::Group { delim: b'{', children, .. } => {
                        scan_items(view, children, outer_pub || last_pub, out);
                        break;
                    }
                    _ => j += 1,
                }
            }
            idx = j + 1;
            last_pub = false;
            continue;
        }
        last_pub = false;
        idx += 1;
    }
}

fn scan_use(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items) {
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
                    |entry: &mut Vec<String>, alias: &mut Option<String>, out: &mut Items| {
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

fn scan_fn(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, is_pub: bool, out: &mut Items) {
    let fn_tok = match &nodes[*idx] {
        Node::Leaf(i) => *i,
        Node::Group { .. } => {
            *idx += 1;
            return;
        }
    };
    let mut j = *idx + 1;
    let mut name = String::new();
    // Name is the next ident.
    while j < nodes.len() {
        if let Node::Leaf(i) = &nodes[j] {
            if view.toks[*i].kind == TokKind::Ident {
                name = view.text(*i).to_string();
                j += 1;
                break;
            }
        }
        j += 1;
    }
    // Params: first paren group at angle-depth 0 (skips generics, even
    // ones containing `Fn(..)` bounds).
    let mut angle = 0i32;
    let mut params: Vec<String> = Vec::new();
    let mut body: Option<(usize, usize)> = None;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.is_punct(*i, b'<') {
                    angle += 1;
                } else if view.is_punct(*i, b'>') && angle > 0 {
                    // `->` must not close an angle: check the previous
                    // byte is not `-` or `=`.
                    let at = view.toks[*i].start;
                    let prev = if at == 0 { b' ' } else { view.source.as_bytes()[at - 1] };
                    if prev != b'-' && prev != b'=' {
                        angle -= 1;
                    }
                } else if view.is_punct(*i, b';') {
                    // Trait method signature without a body.
                    *idx = j + 1;
                    out.fns.push(FnItem {
                        name,
                        is_pub,
                        line: view.line(fn_tok),
                        params,
                        body: (0, 0),
                    });
                    return;
                }
                j += 1;
            }
            Node::Group { delim, open, close, children } => {
                if *delim == b'(' && angle == 0 && params.is_empty() && body.is_none() {
                    params = param_names(view, children);
                    j += 1;
                } else if *delim == b'{' {
                    body = Some((*open + 1, *close));
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
    out.fns.push(FnItem {
        name,
        is_pub,
        line: view.line(fn_tok),
        params,
        body: body.unwrap_or((0, 0)),
    });
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

fn scan_enum(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items) {
    let mut j = *idx + 1;
    let mut name = String::new();
    let mut line = 0usize;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.toks[*i].kind == TokKind::Ident && name.is_empty() {
                    name = view.text(*i).to_string();
                    line = view.line(*i);
                }
                if view.is_punct(*i, b';') {
                    break;
                }
                j += 1;
            }
            Node::Group { delim, children, .. } => {
                if *delim == b'{' {
                    let mut variants = Vec::new();
                    // A variant is an ident at depth 0 that is either
                    // followed by `,` / `(` / `{` / `=` or ends the list.
                    let mut expecting = true;
                    for c in children {
                        match c {
                            Node::Leaf(k) => {
                                if view.is_punct(*k, b',') {
                                    expecting = true;
                                } else if view.is_punct(*k, b'#') {
                                    // attribute start; the bracket group
                                    // is skipped as a Group below
                                } else if view.toks[*k].kind == TokKind::Ident && expecting {
                                    variants.push((view.text(*k).to_string(), view.line(*k)));
                                    expecting = false;
                                }
                            }
                            Node::Group { .. } => {}
                        }
                    }
                    out.enums.push(EnumItem { name, line, variants });
                    break;
                }
                j += 1;
            }
        }
    }
    *idx = j + 1;
}

fn scan_struct(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items) {
    let mut j = *idx + 1;
    let mut name = String::new();
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.toks[*i].kind == TokKind::Ident && name.is_empty() {
                    name = view.text(*i).to_string();
                }
                if view.is_punct(*i, b';') {
                    break; // unit struct or tuple struct already handled
                }
                j += 1;
            }
            Node::Group { delim, children, .. } => {
                if *delim == b'{' {
                    scan_fields_braced(view, children, &name, out);
                    break;
                }
                if *delim == b'(' {
                    scan_fields_tuple(view, children, &name, out);
                    j += 1;
                    continue;
                }
                j += 1;
            }
        }
    }
    *idx = j + 1;
}

fn scan_fields_braced(view: &TreeView<'_>, children: &[Node], strukt: &str, out: &mut Items) {
    // field: `name : <type tokens> ,`
    let mut i = 0usize;
    let n = children.len();
    while i < n {
        // Skip attributes and `pub`.
        let mut field: Option<(String, usize)> = None;
        while i < n {
            match &children[i] {
                Node::Leaf(k) => {
                    i += 1;
                    if view.toks[*k].kind == TokKind::Ident && !view.is_ident(*k, "pub") {
                        field = Some((view.text(*k).to_string(), view.line(*k)));
                        break;
                    }
                }
                // An attribute's `[…]` or the `(crate)` of `pub(crate)`.
                Node::Group { .. } => i += 1,
            }
        }
        let Some((fname, fline)) = field else { break };
        // The field runs to the next sibling `,`; its type is whatever
        // follows the first `:`.
        let end =
            children[i..].iter().position(|n| view.is_leaf_punct(n, b',')).map_or(n, |p| i + p);
        let run = &children[i..end];
        i = end + 1;
        if let Some(colon) = run.iter().position(|n| view.is_leaf_punct(n, b':')) {
            out.fields.push(FieldItem {
                strukt: strukt.to_string(),
                field: fname,
                ty: type_text(view, &flatten(&run[colon + 1..])),
                line: fline,
            });
        }
    }
}

/// Tuple fields: comma-separated type runs, named `0`, `1`, ...
fn scan_fields_tuple(view: &TreeView<'_>, children: &[Node], strukt: &str, out: &mut Items) {
    let fields = children
        .split(|n| view.is_leaf_punct(n, b','))
        .map(|run| flatten(run).into_iter().filter(|&k| !view.is_ident(k, "pub")).collect())
        .filter(|toks: &Vec<usize>| !toks.is_empty());
    for (nth, toks) in fields.enumerate() {
        out.fields.push(FieldItem {
            strukt: strukt.to_string(),
            field: nth.to_string(),
            ty: type_text(view, &toks),
            line: view.line(toks[0]),
        });
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
    fn cfg_test_module_is_a_range() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap() }\n}\nfn c() {}";
        assert!(gated(src, "unwrap"));
        assert!(!gated(src, "fn a"));
        assert!(!gated(src, "fn c"));
    }

    #[test]
    fn test_fn_with_extra_attrs() {
        let src = "#[test]\n#[should_panic]\nfn t() { boom() }\nfn live() {}";
        assert!(gated(src, "boom"));
        assert!(!gated(src, "live"));
    }

    #[test]
    fn cfg_all_and_any_test_count() {
        assert!(gated("#[cfg(all(test, unix))]\nmod m { bad() }", "bad"));
        assert!(gated("#[cfg(any(test, feature = \"x\"))]\nmod m { bad() }", "bad"));
    }

    #[test]
    fn other_cfgs_do_not_count() {
        // `testing` contains `test` as a substring but is a different option.
        assert!(!gated("#[cfg(feature = x)]\nmod m { fine() }", "fine"));
        assert!(!gated("#[cfg(testing)]\nmod m { fine() }", "fine"));
        // Compiled exactly when *not* testing, and compiled always.
        assert!(!gated("#[cfg(not(test))]\nfn f() { live() }", "live"));
        assert!(!gated("#[cfg_attr(test, derive(Debug))]\nstruct S { live: u8 }", "live"));
    }

    #[test]
    fn item_ends_at_its_own_body_not_at_a_nested_semicolon() {
        let src = "#[cfg(test)]\nfn h(buf: [u8; 4]) -> u8 { inside() }\nfn after() {}";
        assert!(gated(src, "inside"));
        assert!(!gated(src, "after"));
        let src = "#[cfg(test)]\nmod tests;\nfn after() {}";
        assert!(gated(src, "tests"));
        assert!(!gated(src, "after"));
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
        assert_eq!(it.fields[0].strukt, "S");
        assert_eq!(it.fields[0].field, "x");
        assert_eq!(it.fields[0].ty, "u32");
    }

    #[test]
    fn use_aliases_resolve() {
        let src =
            "use std::collections::HashMap as FastMap;\nuse std::sync::{Mutex, RwLock as RwL};\n";
        let view = TreeView::new(src);
        let it = items(&view);
        let find = |n: &str| it.uses.iter().find(|u| u.name == n).map(|u| u.path.clone());
        assert_eq!(find("FastMap").as_deref(), Some("std::collections::HashMap"));
        assert_eq!(find("Mutex").as_deref(), Some("std::sync::Mutex"));
        assert_eq!(find("RwL").as_deref(), Some("std::sync::RwLock"));
    }

    #[test]
    fn enums_and_variants() {
        let src = "pub enum Phase { A, B(u32), C { x: u8 } }";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.enums.len(), 1);
        let names: Vec<_> = it.enums[0].variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
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
