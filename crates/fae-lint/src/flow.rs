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
use crate::tree::{flatten, stmts, FnItem, Node, Stmt, StmtKind, TreeView};
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
    /// Struct fields whose type mentions a hash container.
    hash_fields: BTreeSet<&'a str>,
    /// Function name → the source event its return value carries.
    returns_taint: BTreeMap<String, SourceEvent>,
}

impl<'a> Ctx<'a> {
    fn resolved<'b>(&'b self, name: &'b str) -> &'b str {
        self.resolve.get(name).copied().unwrap_or(name)
    }
}

#[derive(Default)]
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

    /// Taints `binds` with `ev` — except a sorted binding's hash order.
    fn taint_binds(&mut self, binds: &[String], ev: &SourceEvent) {
        for b in binds {
            if !(ev.kind == SourceKind::HashIter && self.sorted_vars.contains(b)) {
                self.taint.insert(b.clone(), ev.clone());
            }
        }
    }
}

/// Runs the determinism-taint analysis over one determinism-scope file,
/// pushing one finding per escaping source, anchored at the source (a
/// pragma there suppresses the flow).
pub(crate) fn det_taint(p: &Parsed<'_>, out: &mut Vec<Finding>) {
    let items = &p.items;
    let resolve: BTreeMap<&str, &str> =
        items.uses.iter().map(|u| (u.name.as_str(), u.path.as_str())).collect();
    let hash_typed = |ty: &str| {
        ty.split_whitespace()
            .any(|w| is_hash_name(w) || resolve.get(w).is_some_and(|r| is_hash_name(r)))
    };
    let hash_fields =
        items.fields.iter().filter(|f| hash_typed(&f.ty)).map(|f| f.field.as_str()).collect();
    let mut ctx = Ctx { view: p.view, resolve, hash_fields, returns_taint: BTreeMap::new() };

    // Fixpoint over same-file call summaries: a helper whose return is
    // tainted makes its callers tainted too. Bounded by fn count.
    for _ in 0..items.fns.len().max(1) {
        let mut changed = false;
        for f in &items.fns {
            let st = analyze_fn(&ctx, f);
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
        for (k, s) in analyze_fn(&ctx, f).sinks {
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

fn analyze_fn(ctx: &Ctx<'_>, f: &FnItem<'_>) -> FnState {
    let mut st = FnState { params: f.params.iter().cloned().collect(), ..FnState::default() };
    let Some(body) = f.body else { return st };
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
        taint_block(ctx, f, body, None, true, &mut st);
    }
    st
}

/// Processes each statement of a block; only the fn body's own tail
/// is the return value.
fn taint_block(
    ctx: &Ctx<'_>,
    f: &FnItem<'_>,
    nodes: &[Node],
    control: Option<&SourceEvent>,
    is_fn_body: bool,
    st: &mut FnState,
) {
    for s in stmts(ctx.view, nodes) {
        taint_stmt(ctx, f, &s, control, is_fn_body && s.tail, st);
    }
}

fn taint_stmt(
    ctx: &Ctx<'_>,
    f: &FnItem<'_>,
    s: &Stmt<'_>,
    control: Option<&SourceEvent>,
    is_tail: bool,
    st: &mut FnState,
) {
    let view = ctx.view;
    let toks = &s.toks;
    let eval = |st: &FnState, toks: &[usize]| {
        eval_taint(ctx, st, toks, false).or_else(|| control.cloned())
    };
    match s.kind {
        // Evaluate the header, recurse into the blocks with the header's
        // taint as implicit control taint.
        StmtKind::Control => {
            let header_taint = eval_taint(ctx, st, toks, s.head == "for");
            // `for PAT in iter` / `if let PAT = expr`: the pattern's
            // idents carry the header's taint.
            if let Some(ev) = &header_taint {
                st.taint_binds(&s.binds, ev);
            }
            let inner_control = header_taint.as_ref().or(control);
            for b in &s.blocks {
                taint_block(ctx, f, b, inner_control, false, st);
            }
            // A tainted tail `if`/`match` expression taints the return.
            if is_tail {
                if let Some(ev) = header_taint.or_else(|| control.cloned()) {
                    note_return(f, &ev, st);
                }
            }
        }
        StmtKind::Return => {
            if toks.len() > 1 {
                if let Some(ev) = eval(st, &toks[1..]) {
                    note_return(f, &ev, st);
                }
            }
        }
        StmtKind::Let => {
            let hash_named = |toks: &[usize]| {
                toks.iter().any(|&k| {
                    view.toks[k].kind == TokKind::Ident && is_hash_name(ctx.resolved(view.text(k)))
                })
            };
            if hash_named(s.lhs()) || hash_named(s.rhs()) {
                st.hash_vars.extend(s.binds.iter().cloned());
            }
            match eval(st, s.rhs()) {
                Some(ev) if !statement_cleanses(ctx, toks, &ev) => st.taint_binds(&s.binds, &ev),
                Some(_) => {}
                // Reassignment to an untainted value clears taint.
                None => st.taint.retain(|b, _| !s.binds.contains(b)),
            }
        }
        StmtKind::Assign => {
            // Plain or compound: either way the place is the write target.
            let self_write = s.binds.first().map(String::as_str) == Some("self");
            let param_write = s.binds.first().is_some_and(|b| st.params.contains(b) && b != "self");
            match eval(st, s.rhs()) {
                Some(ev) if statement_cleanses(ctx, toks, &ev) => {}
                Some(ev) if self_write => {
                    let field = s.binds.get(1).map_or("", String::as_str);
                    st.sink(&ev, &format!("state write `self.{field}`"));
                }
                Some(ev) if param_write => {
                    st.sink(&ev, &format!("mutation of parameter `{}`", s.binds[0]));
                }
                Some(ev) => st.taint_binds(&s.binds, &ev),
                None if !self_write && !param_write => st.taint.retain(|b, _| !s.binds.contains(b)),
                None => {}
            }
        }
        // Expression statement or tail expression.
        StmtKind::Drop | StmtKind::Expr => {
            let Some(ev) = eval(st, toks) else { return };
            if statement_cleanses(ctx, toks, &ev) {
                return;
            }
            if is_tail {
                note_return(f, &ev, st);
                return;
            }
            // A call through `self` or a parameter with tainted arguments
            // mutates digest-relevant state.
            let has_call = toks.iter().any(|&k| view.is_punct(k, b'('));
            if has_call && (s.head == "self" || st.params.contains(s.head)) {
                let target = if s.head == "self" {
                    let field = toks
                        .get(2)
                        .filter(|&&k| view.toks[k].kind == TokKind::Ident)
                        .map_or("", |&k| view.text(k));
                    format!("state write `self.{field}`")
                } else {
                    format!("mutation of parameter `{}`", s.head)
                };
                st.sink(&ev, &target);
            }
        }
    }
}

fn note_return(f: &FnItem<'_>, ev: &SourceEvent, st: &mut FnState) {
    if st.returns.is_none() {
        st.returns = Some(ev.clone());
    }
    if f.is_pub {
        st.sink(ev, &format!("the return value of pub fn `{}`", f.name));
    }
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
                && toks
                    .get(i + 2)
                    .is_some_and(|&j| ident(j) && ctx.hash_fields.contains(view.text(j))));
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
        let view = TreeView::new(src);
        det_taint(&Parsed::new(0, Path::new("x.rs"), &view, class), &mut out);
        out
    }

    #[test]
    fn thread_id_reports_det_taint() {
        let src = "pub fn g() -> u64 { let id = thread::current().id(); hash(id) }\nfn hash(x: ThreadId) -> u64 { 0 }\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "det-taint");
    }

    #[test]
    fn for_loop_over_hash_map_accumulating_fires() {
        let src = "pub fn f() -> f64 {\n    let m = HashMap::new();\n    let mut acc = 0.0;\n    for (k, v) in &m {\n        acc = acc * 0.5 + v;\n    }\n    acc\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "hash-container");
    }
}
