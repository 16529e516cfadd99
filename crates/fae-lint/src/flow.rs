//! Per-function flow summaries and the determinism-taint engine.
//!
//! Tracks values produced by nondeterministic *sources* — wall clock,
//! ambient RNG, `HashMap`/`HashSet` iteration order, thread ids, raw
//! addresses — through local assignments, control-flow headers and
//! same-file calls, and reports only when the taint reaches a *sink*
//! that can affect digest-relevant state: a `pub fn` return value, a
//! write through `self`, or a mutation of a parameter. A wall-clock
//! read whose value never escapes the function is fine; a rule that
//! fires on every mention could not make that distinction.
//!
//! Taint is *cleansed* for the hash-iteration kind when the iteration
//! is order-insensitive in the same statement (`collect` into a
//! `BTreeMap`/`BTreeSet`, `.count()`, `.len()`, `.min()`, `.max()`,
//! `.all()`, `.any()`, `.is_empty()`) or when the assigned binding is
//! `.sort*`ed anywhere in the function. Soundness caveats of this
//! non-type-checked analysis are documented in DESIGN.md §16.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokens::TokKind;
use crate::tree::{find_group, flatten, FnItem, Items, Node, TreeView};
use crate::{Finding, Parsed};

/// The kinds of nondeterminism a source can introduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Reading the wall clock (`Instant::now`, `SystemTime::now`).
    WallClock,
    /// Ambient randomness (`thread_rng`, `OsRng`, `from_entropy`).
    AmbientRng,
    /// Iterating a `HashMap`/`HashSet` in its arbitrary order.
    HashIter,
    /// Thread identity (`thread::current`).
    ThreadId,
    /// Raw addresses (`.as_ptr()`, `addr_of!`).
    Address,
}

impl SourceKind {
    /// The rule id a taint of this kind reports under.
    pub fn rule(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock",
            SourceKind::AmbientRng => "ambient-rng",
            SourceKind::HashIter => "hash-container",
            SourceKind::ThreadId | SourceKind::Address => "det-taint",
        }
    }

    fn describe(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock read",
            SourceKind::AmbientRng => "ambient RNG",
            SourceKind::HashIter => "hash-order iteration",
            SourceKind::ThreadId => "thread id",
            SourceKind::Address => "raw address",
        }
    }
}

/// Where a taint was born.
#[derive(Clone, Debug)]
pub struct SourceEvent {
    /// What kind of nondeterminism.
    pub kind: SourceKind,
    /// 1-based line of the source expression.
    pub line: usize,
    /// Byte offset of the source token (for test-region exemption).
    pub offset: usize,
    /// The source expression text, for the message.
    pub what: String,
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Order-insensitive consumers: iterating a hash container into one of
/// these cannot leak the iteration order.
const CLEANSE_METHODS: &[&str] = &["count", "len", "min", "max", "all", "any", "is_empty"];

fn is_hash_name(name: &str) -> bool {
    name.contains("HashMap") || name.contains("HashSet")
}

struct Ctx<'a> {
    view: &'a TreeView<'a>,
    /// Local name → resolved full path (from `use` items).
    resolve: BTreeMap<&'a str, &'a str>,
    /// Struct fields (per owner) whose type mentions a hash container.
    hash_fields: BTreeSet<(String, String)>,
    /// Function name → the source event its return value carries.
    returns_taint: BTreeMap<String, SourceEvent>,
}

impl<'a> Ctx<'a> {
    fn resolved<'b>(&'b self, name: &'b str) -> &'b str {
        self.resolve.get(name).copied().unwrap_or(name)
    }
}

struct FnState {
    /// Tainted binding → originating event.
    taint: BTreeMap<String, SourceEvent>,
    /// Hash-typed local bindings.
    hash_vars: BTreeSet<String>,
    /// Bindings that get `.sort*`ed somewhere in this fn.
    sorted_vars: BTreeSet<String>,
    /// Parameter names (including `self`).
    params: BTreeSet<String>,
    /// The event the fn's return value carries, if any.
    returns: Option<SourceEvent>,
    /// Sinks reached, keyed by the source's (line, rule): the source
    /// event and the first sink it flowed into.
    sinks: BTreeMap<(usize, &'static str), (SourceEvent, String)>,
}

impl FnState {
    fn sink(&mut self, event: &SourceEvent, sink: &str) {
        let key = (event.line, event.kind.rule());
        self.sinks.entry(key).or_insert_with(|| (event.clone(), sink.to_string()));
    }
}

/// Runs the determinism-taint analysis over one determinism-scope file,
/// pushing one finding per escaping source, anchored at the source (a
/// pragma there suppresses the flow).
pub(crate) fn det_taint(p: &Parsed<'_>, out: &mut Vec<Finding>) {
    let items = &p.items;
    let mut resolve = BTreeMap::new();
    for u in &items.uses {
        resolve.insert(u.name.as_str(), u.path.as_str());
    }
    let mut hash_fields = BTreeSet::new();
    for f in &items.fields {
        let hash_typed =
            f.ty.split_whitespace()
                .any(|w| is_hash_name(w) || is_hash_name(resolve.get(w).copied().unwrap_or("")));
        if hash_typed {
            hash_fields.insert((f.strukt.clone(), f.field.clone()));
        }
    }
    let mut ctx = Ctx { view: &p.view, resolve, hash_fields, returns_taint: BTreeMap::new() };

    // Fixpoint over same-file call summaries: a helper whose return is
    // tainted makes its callers tainted too. Bounded by fn count.
    for _ in 0..items.fns.len().max(1) {
        let mut changed = false;
        for f in &items.fns {
            let st = analyze_fn(&ctx, items, f);
            if let Some(ev) = st.returns {
                if !ctx.returns_taint.contains_key(&f.name) {
                    ctx.returns_taint.insert(f.name.clone(), ev);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut sinks = BTreeMap::new();
    for f in &items.fns {
        for (k, s) in analyze_fn(&ctx, items, f).sinks {
            sinks.entry(k).or_insert(s);
        }
    }
    for (event, sink) in sinks.into_values() {
        out.push(p.finding(
            event.kind.rule(),
            event.line,
            event.offset,
            format!(
                "{} `{}` flows into {sink}; route it through the seeded/deterministic \
                 path or pragma the flow at its source",
                event.kind.describe(),
                event.what
            ),
        ));
    }
}

fn analyze_fn(ctx: &Ctx<'_>, items: &Items, f: &FnItem) -> FnState {
    let mut st = FnState {
        taint: BTreeMap::new(),
        hash_vars: BTreeSet::new(),
        sorted_vars: BTreeSet::new(),
        params: f.params.iter().cloned().collect(),
        returns: None,
        sinks: BTreeMap::new(),
    };
    if f.body == (0, 0) || f.body.0 == 0 {
        return st;
    }
    let Some(body) = find_group(&ctx.view.nodes, f.body.0 - 1) else {
        return st;
    };
    // Pre-scan: bindings that get sorted anywhere in the fn cleanse
    // hash-iteration taint (fn-wide, order-insensitive approximation).
    let flat = flatten(body);
    for w in flat.windows(3) {
        if ctx.view.is_punct(w[1], b'.')
            && ctx.view.toks[w[0]].kind == TokKind::Ident
            && ctx.view.toks[w[2]].kind == TokKind::Ident
            && ctx.view.text(w[2]).starts_with("sort")
        {
            st.sorted_vars.insert(ctx.view.text(w[0]).to_string());
        }
    }
    // Two rounds so a taint introduced late in the body reaches uses
    // earlier in a loop.
    for _ in 0..2 {
        walk_block(ctx, items, f, body, None, true, &mut st);
    }
    st
}

/// Splits `nodes` into statements at depth-0 `;`/`,` and after brace
/// groups not followed by `else`, then processes each.
fn walk_block(
    ctx: &Ctx<'_>,
    items: &Items,
    f: &FnItem,
    nodes: &[Node],
    control: Option<&SourceEvent>,
    is_fn_body: bool,
    st: &mut FnState,
) {
    let view = ctx.view;
    let mut start = 0usize;
    let mut i = 0usize;
    // Angle-bracket depth, so the commas of `let m: HashMap<u32, u32>`
    // do not split the statement (a `,` separator only matters for
    // match arms, which sit at angle depth 0). `<<`/`->`/`=>` are
    // excluded by adjacency.
    let mut angle = 0i32;
    while i < nodes.len() {
        match &nodes[i] {
            Node::Leaf(k) => {
                let b = view.punct(*k).unwrap_or(0);
                if b == b'<' {
                    let next_shift = matches!(
                        nodes.get(i + 1),
                        Some(Node::Leaf(j)) if view.is_punct(*j, b'<')
                            && view.toks[*j].start == view.toks[*k].end
                    );
                    let prev_shift = i > 0
                        && matches!(
                            nodes.get(i - 1),
                            Some(Node::Leaf(j)) if view.is_punct(*j, b'<')
                                && view.toks[*j].end == view.toks[*k].start
                        );
                    if !next_shift && !prev_shift {
                        angle += 1;
                    }
                } else if b == b'>' {
                    let at = view.toks[*k].start;
                    let prev = if at == 0 { b' ' } else { view.source.as_bytes()[at - 1] };
                    if prev != b'-' && prev != b'=' && angle > 0 {
                        angle -= 1;
                    }
                }
                if b == b';' || (b == b',' && angle <= 0) {
                    if i > start {
                        process_stmt(ctx, items, f, &nodes[start..i], control, false, st);
                    }
                    start = i + 1;
                    angle = 0;
                }
                i += 1;
            }
            Node::Group { delim, .. } => {
                if *delim == b'{' {
                    // End the statement after the block unless an
                    // `else` continues it.
                    let next_is_else = matches!(
                        nodes.get(i + 1),
                        Some(Node::Leaf(k)) if ctx.view.is_ident(*k, "else")
                    );
                    if !next_is_else {
                        process_stmt(ctx, items, f, &nodes[start..=i], control, false, st);
                        start = i + 1;
                        angle = 0;
                        i += 1;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if start < nodes.len() {
        // Trailing segment without `;`: the tail expression.
        process_stmt(ctx, items, f, &nodes[start..], control, is_fn_body, st);
    }
}

fn process_stmt(
    ctx: &Ctx<'_>,
    items: &Items,
    f: &FnItem,
    stmt: &[Node],
    control: Option<&SourceEvent>,
    is_tail: bool,
    st: &mut FnState,
) {
    if stmt.is_empty() {
        return;
    }
    let view = ctx.view;
    let head = match stmt.first() {
        Some(Node::Leaf(k)) => Some(*k),
        _ => None,
    };

    // Control statements: evaluate the header, recurse into blocks with
    // the header's taint as implicit control taint.
    if let Some(h) = head {
        let word = if view.toks[h].kind == TokKind::Ident { view.text(h) } else { "" };
        if matches!(word, "if" | "while" | "for" | "match" | "loop" | "else" | "unsafe") {
            let header_len =
                stmt.iter().take_while(|n| !matches!(n, Node::Group { delim: b'{', .. })).count();
            let header_nodes = flatten(&stmt[..header_len]);
            let header_taint = eval_taint(ctx, st, &header_nodes, word == "for");
            // `for PAT in iter` / `if let PAT = expr`: bind pattern
            // idents from the header's taint.
            if let Some(ev) = &header_taint {
                let binds = pattern_binds(ctx, &header_nodes, word);
                for b in binds {
                    if !(ev.kind == SourceKind::HashIter && st.sorted_vars.contains(&b)) {
                        st.taint.insert(b, ev.clone());
                    }
                }
            }
            let inner_control = header_taint.as_ref().or(control);
            for n in stmt {
                if let Node::Group { delim: b'{', children, .. } = n {
                    walk_block(ctx, items, f, children, inner_control, false, st);
                }
            }
            // A tainted tail `if`/`match` expression taints the return.
            if is_tail {
                if let Some(ev) = header_taint.or_else(|| control.cloned()) {
                    note_return(f, &ev, st);
                }
            }
            return;
        }
        if word == "return" {
            let rest = flatten(&stmt[1..]);
            if !rest.is_empty() {
                let ev = eval_taint(ctx, st, &rest, false).or_else(|| control.cloned());
                if let Some(ev) = ev {
                    note_return(f, &ev, st);
                }
            }
            return;
        }
        if word == "let" {
            let toks = flatten(stmt);
            let (lhs, rhs) = split_assign(ctx, &toks);
            let binds = lhs_idents(ctx, &lhs);
            let annotated_hash = lhs.iter().any(|&k| {
                view.toks[k].kind == TokKind::Ident && is_hash_name(ctx.resolved(view.text(k)))
            });
            let ctor_hash = rhs.iter().any(|&k| {
                view.toks[k].kind == TokKind::Ident && is_hash_name(ctx.resolved(view.text(k)))
            });
            if annotated_hash || ctor_hash {
                for b in &binds {
                    st.hash_vars.insert(b.clone());
                }
            }
            let ev = eval_taint(ctx, st, &rhs, false).or_else(|| control.cloned());
            match ev {
                Some(ev) => {
                    if !statement_cleanses(ctx, &toks, &ev) {
                        for b in binds {
                            if !(ev.kind == SourceKind::HashIter && st.sorted_vars.contains(&b)) {
                                st.taint.insert(b, ev.clone());
                            }
                        }
                    }
                }
                None => {
                    // Reassignment to an untainted value clears taint.
                    for b in binds {
                        st.taint.remove(&b);
                    }
                }
            }
            return;
        }
    }

    let toks = flatten(stmt);
    let (lhs, rhs) = split_assign(ctx, &toks);
    if !rhs.is_empty() && lhs != toks {
        // Assignment (plain or compound).
        let ev = eval_taint(ctx, st, &rhs, false).or_else(|| control.cloned());
        let binds = lhs_idents(ctx, &lhs);
        let self_write = binds.first().map(String::as_str) == Some("self");
        let param_write = binds.first().is_some_and(|b| st.params.contains(b) && b != "self");
        if let Some(ev) = ev {
            if !statement_cleanses(ctx, &toks, &ev) {
                if self_write {
                    st.sink(
                        &ev,
                        &format!(
                            "state write `self.{}`",
                            binds.get(1).cloned().unwrap_or_default()
                        ),
                    );
                } else if param_write {
                    st.sink(&ev, &format!("mutation of parameter `{}`", binds[0]));
                } else {
                    for b in binds {
                        if !(ev.kind == SourceKind::HashIter && st.sorted_vars.contains(&b)) {
                            st.taint.insert(b, ev.clone());
                        }
                    }
                }
            }
        } else if !self_write && !param_write {
            for b in binds {
                st.taint.remove(&b);
            }
        }
        return;
    }

    // Expression statement or tail expression.
    let ev = eval_taint(ctx, st, &toks, false).or_else(|| control.cloned());
    if let Some(ev) = ev {
        if statement_cleanses(ctx, &toks, &ev) {
            return;
        }
        if is_tail {
            note_return(f, &ev, st);
            return;
        }
        // A call through `self` or a parameter with tainted arguments
        // mutates digest-relevant state.
        let root = toks.first().and_then(|&k| {
            if ctx.view.toks[k].kind == TokKind::Ident {
                Some(ctx.view.text(k).to_string())
            } else {
                None
            }
        });
        let has_call = stmt.iter().any(contains_paren_group);
        if let Some(root) = root {
            if has_call && (root == "self" || st.params.contains(&root)) {
                let target = if root == "self" {
                    let field = toks
                        .get(2)
                        .filter(|&&k| ctx.view.toks[k].kind == TokKind::Ident)
                        .map(|&k| ctx.view.text(k))
                        .unwrap_or("");
                    format!("state write `self.{field}`")
                } else {
                    format!("mutation of parameter `{root}`")
                };
                st.sink(&ev, &target);
            }
        }
    }
}

fn contains_paren_group(n: &Node) -> bool {
    match n {
        Node::Leaf(_) => false,
        Node::Group { delim, children, .. } => {
            *delim == b'(' || children.iter().any(contains_paren_group)
        }
    }
}

fn note_return(f: &FnItem, ev: &SourceEvent, st: &mut FnState) {
    if st.returns.is_none() {
        st.returns = Some(ev.clone());
    }
    if f.is_pub {
        st.sink(ev, &format!("the return value of pub fn `{}`", f.name));
    }
}

/// Splits flattened statement tokens at the top-level assignment `=`.
/// Returns `(lhs, rhs)`; when there is no assignment, lhs is the whole
/// statement and rhs is empty. "Top-level" means paren/brace/bracket
/// depth 0 within the statement.
fn split_assign(ctx: &Ctx<'_>, toks: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let view = ctx.view;
    let mut depth = 0i32;
    for (i, &k) in toks.iter().enumerate() {
        let b = view.punct(k).unwrap_or(0);
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = i.checked_sub(1).and_then(|j| view.punct(toks[j])).unwrap_or(0);
                let next = toks.get(i + 1).and_then(|&j| view.punct(j)).unwrap_or(0);
                // Adjacency matters: `==`, `!=`, `<=`, `>=`, `=>` are
                // comparisons/arrows, not assignments.
                let prev_adj = i > 0 && view.toks[toks[i - 1]].end == view.toks[k].start;
                let next_adj =
                    toks.get(i + 1).is_some_and(|&j| view.toks[j].start == view.toks[k].end);
                if (next == b'=' || next == b'>') && next_adj {
                    continue;
                }
                if matches!(prev, b'=' | b'!' | b'<' | b'>') && prev_adj {
                    continue;
                }
                // Compound assignment (`+=` etc.): the lhs is also read,
                // but for taint purposes it is still the write target.
                return (toks[..i].to_vec(), toks[i + 1..].to_vec());
            }
            _ => {}
        }
    }
    (toks.to_vec(), Vec::new())
}

/// The identifiers written by an assignment lhs (pattern idents for
/// `let`, path roots for field writes). Everything after the first
/// single `:` at paren depth 0 is a type annotation and is ignored.
fn lhs_idents(ctx: &Ctx<'_>, lhs: &[usize]) -> Vec<String> {
    let view = ctx.view;
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, &k) in lhs.iter().enumerate() {
        let b = view.punct(k).unwrap_or(0);
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b':' if depth == 0 => {
                let next_adj = lhs.get(i + 1).is_some_and(|&j| {
                    view.is_punct(j, b':') && view.toks[j].start == view.toks[k].end
                });
                let prev_adj = i > 0
                    && view.is_punct(lhs[i - 1], b':')
                    && view.toks[lhs[i - 1]].end == view.toks[k].start;
                if !next_adj && !prev_adj {
                    break;
                }
            }
            _ => {}
        }
        if view.toks[k].kind == TokKind::Ident {
            let w = view.text(k);
            if !matches!(w, "let" | "mut" | "ref" | "box") {
                out.push(w.to_string());
            }
        }
    }
    out
}

/// Pattern identifiers bound by a control header (`for PAT in ..`,
/// `if let PAT = ..`, `while let PAT = ..`).
fn pattern_binds(ctx: &Ctx<'_>, header: &[usize], word: &str) -> Vec<String> {
    let view = ctx.view;
    let mut out = Vec::new();
    let mut active = false;
    for &k in header {
        if view.toks[k].kind == TokKind::Ident {
            let w = view.text(k);
            if (word == "for" && w == "for") || w == "let" {
                active = true;
                continue;
            }
            if w == "in" {
                break;
            }
            if active && w.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
                out.push(w.to_string());
            }
        }
        if view.is_punct(k, b'=') && word != "for" {
            break;
        }
    }
    out
}

/// Does this statement consume the taint in an order-insensitive way?
/// Only hash-iteration taint is cleansable; clock/RNG/id taints stay.
fn statement_cleanses(ctx: &Ctx<'_>, toks: &[usize], ev: &SourceEvent) -> bool {
    if ev.kind != SourceKind::HashIter {
        return false;
    }
    let view = ctx.view;
    for (i, &k) in toks.iter().enumerate() {
        if view.toks[k].kind != TokKind::Ident {
            continue;
        }
        let w = view.text(k);
        let r = ctx.resolved(w);
        if r.contains("BTreeMap") || r.contains("BTreeSet") {
            return true;
        }
        if CLEANSE_METHODS.contains(&w) {
            // Must be a call: `.count()`, not a binding named `count`.
            let prev_dot = i > 0 && view.is_punct(toks[i - 1], b'.');
            let next_paren = toks.get(i + 1).is_some_and(|&j| view.is_punct(j, b'('));
            if prev_dot && next_paren {
                return true;
            }
        }
    }
    false
}

/// Scans `toks` for the leftmost taint: a direct source, a tainted
/// binding, a hash-container iteration, or a call to a same-file fn
/// whose summary says its return is tainted. `iter_context` marks a
/// `for` header, where a bare hash binding is itself an iteration.
fn eval_taint(
    ctx: &Ctx<'_>,
    st: &FnState,
    toks: &[usize],
    iter_context: bool,
) -> Option<SourceEvent> {
    let view = ctx.view;
    let event = |kind: SourceKind, k: usize, what: String| SourceEvent {
        kind,
        line: view.line(k),
        offset: view.toks[k].start,
        what,
    };
    let ident = |k: usize| view.toks[k].kind == TokKind::Ident;
    for (i, &k) in toks.iter().enumerate() {
        if !ident(k) {
            continue;
        }
        let w = view.text(k);
        let r = ctx.resolved(w);
        let next_colons = toks.get(i + 1).is_some_and(|&j| view.is_punct(j, b':'))
            && toks.get(i + 2).is_some_and(|&j| view.is_punct(j, b':'));
        let after_path = toks.get(i + 3).filter(|&&j| ident(j)).map(|&j| view.text(j));

        // Wall clock: `Instant::now`, `SystemTime::now`.
        if (r.ends_with("Instant") || r.ends_with("SystemTime"))
            && next_colons
            && after_path == Some("now")
        {
            return Some(event(SourceKind::WallClock, k, format!("{w}::now()")));
        }
        // Ambient RNG.
        if matches!(w, "thread_rng" | "from_entropy")
            || r.ends_with("OsRng")
            || r.ends_with("thread_rng")
        {
            return Some(event(SourceKind::AmbientRng, k, w.to_string()));
        }
        // Thread identity: `thread::current`.
        if (w == "thread" || r.ends_with("::thread"))
            && next_colons
            && after_path == Some("current")
        {
            return Some(event(SourceKind::ThreadId, k, "thread::current()".to_string()));
        }
        // Raw addresses.
        if matches!(w, "as_ptr" | "as_mut_ptr") && i > 0 && view.is_punct(toks[i - 1], b'.') {
            return Some(event(SourceKind::Address, k, format!(".{w}()")));
        }
        if matches!(w, "addr_of" | "addr_of_mut") {
            return Some(event(SourceKind::Address, k, format!("{w}!")));
        }

        // Hash iteration: `m.iter()` on a hash binding or `self.f.iter()`
        // on a hash field — or the bare binding in a `for .. in` header.
        let is_hash_root = st.hash_vars.contains(w)
            || (w == "self"
                && toks.get(i + 2).is_some_and(|&j| {
                    ident(j) && ctx.hash_fields.iter().any(|(_, field)| field == view.text(j))
                }));
        if is_hash_root {
            let label = if w == "self" {
                format!("self.{}", toks.get(i + 2).map(|&j| view.text(j)).unwrap_or(""))
            } else {
                w.to_string()
            };
            let after = if w == "self" { i + 3 } else { i + 1 };
            let method = toks
                .get(after)
                .filter(|&&j| view.is_punct(j, b'.'))
                .and_then(|_| toks.get(after + 1))
                .filter(|&&j| ident(j))
                .map(|&j| view.text(j));
            if let Some(m) = method {
                if ITER_METHODS.contains(&m) {
                    return Some(event(SourceKind::HashIter, k, format!("{label}.{m}()")));
                }
            } else if iter_context {
                // `for x in map` / `for x in &map`.
                let preceded_by_in = toks[..i]
                    .iter()
                    .rev()
                    .find(|&&j| ident(j))
                    .is_some_and(|&j| view.text(j) == "in");
                if preceded_by_in {
                    return Some(event(SourceKind::HashIter, k, format!("iterate {label}")));
                }
            }
        }

        // Tainted binding used here.
        if let Some(ev) = st.taint.get(w) {
            // As a *read*; skip when it is the path after `.` of another
            // ident (a field named like a tainted local is distinct).
            let prev_dot = i > 0 && view.is_punct(toks[i - 1], b'.');
            if !prev_dot {
                return Some(ev.clone());
            }
        }

        // Call into a same-file fn whose return carries taint.
        if let Some(ev) = ctx.returns_taint.get(w) {
            let next_paren = toks.get(i + 1).is_some_and(|&j| view.is_punct(j, b'('));
            if next_paren {
                return Some(ev.clone());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::FileClass;

    fn run(src: &str) -> Vec<Finding> {
        let class = FileClass { deterministic: true, binary: false, net: false, metrics: false };
        let mut out = Vec::new();
        det_taint(&Parsed::new(0, Path::new("x.rs"), src, class), &mut out);
        out
    }

    #[test]
    fn unused_clock_read_is_fine() {
        let d = run("pub fn f() -> u32 { let _t = Instant::now(); 3 }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn clock_into_pub_return_fires_at_the_source() {
        let src = "pub fn f() -> u64 {\n    let t = Instant::now();\n    let e = t.elapsed();\n    e.as_nanos() as u64\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn hash_iteration_collected_into_btree_is_cleansed() {
        let src = "pub fn f(n: u32) -> usize {\n    let m = HashMap::new();\n    let s: BTreeSet<u32> = m.keys().copied().collect();\n    s.len()\n}\n";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hash_iteration_into_vec_returned_fires() {
        let src = "pub fn f() -> Vec<u32> {\n    let m = HashMap::new();\n    let v: Vec<u32> = m.keys().copied().collect();\n    v\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "hash-container");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn sorted_vec_from_hash_iteration_is_cleansed() {
        let src = "pub fn f() -> Vec<u32> {\n    let m = HashMap::new;\n    let m = HashMap::new();\n    let mut v: Vec<u32> = m.keys().copied().collect();\n    v.sort_unstable();\n    v\n}\n";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn control_taint_through_an_if_header() {
        let src = "pub struct S { hits: u64 }\nimpl S {\n    pub fn poke(&mut self) {\n        let t = Instant::now();\n        if t.elapsed().as_secs() > 1 {\n            self.hits = self.hits + 1;\n        }\n    }\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn interprocedural_summary_carries_the_source() {
        let src = "fn stamp() -> u64 { let t = SystemTime::now(); t.as_nanos() as u64 }\npub fn f() -> u64 { stamp() }\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[0].line, 1, "reported at the source, not the call site");
    }

    #[test]
    fn thread_id_and_address_report_det_taint() {
        let src = "pub fn f(buf: &[u8]) -> usize {\n    let p = buf.as_ptr() as usize;\n    p\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "det-taint");
        let src2 = "pub fn g() -> u64 { let id = thread::current().id(); hash(id) }\nfn hash(x: ThreadId) -> u64 { 0 }\n";
        let d2 = run(src2);
        assert_eq!(d2.len(), 1, "{d2:?}");
        assert_eq!(d2[0].rule, "det-taint");
    }

    #[test]
    fn renamed_import_cannot_dodge_the_rule() {
        let src = "use std::collections::HashMap as FastMap;\npub fn f() -> Vec<u32> {\n    let m: FastMap<u32, u32> = FastMap::new();\n    let v: Vec<u32> = m.keys().copied().collect();\n    v\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "hash-container");
    }

    #[test]
    fn pure_lookup_hash_map_is_fine() {
        // The whole point of the flow-aware rule: lookups never observe
        // iteration order, so no pragma is needed.
        let src = "pub fn f(keys: &[u32]) -> u64 {\n    let mut m = HashMap::new();\n    let mut acc = 0u64;\n    for k in keys {\n        m.insert(*k, 1u64);\n    }\n    for k in keys {\n        acc += *m.get(k).unwrap_or(&0);\n    }\n    acc\n}\n";
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn rng_into_self_state_fires() {
        let src = "pub struct S { seed: u64 }\nimpl S {\n    pub fn reseed(&mut self) {\n        let r = thread_rng();\n        self.seed = r.gen();\n    }\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "ambient-rng");
    }

    #[test]
    fn for_loop_over_hash_map_accumulating_fires() {
        let src = "pub fn f() -> f64 {\n    let m = HashMap::new();\n    let mut acc = 0.0;\n    for (k, v) in &m {\n        acc = acc * 0.5 + v;\n    }\n    acc\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "hash-container");
    }
}
