//! Lock-order: acquisition-graph analysis across the workspace.
//!
//! Lock *classes* are struct fields typed `Mutex<..>`/`RwLock<..>`
//! (collections of locks, `Vec<RwLock<..>>`, are one class). For every
//! function, the pass tracks which guards are held at each statement —
//! plain `let g = ..lock()` guards live to the end of their enclosing
//! block (or an explicit `drop(g)`); guards consumed inside a
//! `match`/`if let` live only for that statement — and records an edge
//! A→B whenever B is acquired while A is held.
//!
//! Findings:
//! * acquiring the *same* class while held is reported unless both
//!   sides are `read()` (read guards of one class, e.g. every lock
//!   of a `Vec<RwLock<..>>`, can't deadlock with each other);
//! * a cycle in the cross-class graph (A→B somewhere, B→A elsewhere)
//!   is reported at every edge on the cycle.
//!
//! Interprocedural holds (fn A calls fn B while holding a lock B also
//! takes) are out of reach — DESIGN.md §16 lists this caveat.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokens::TokKind;
use crate::tree::{stmts, Node, Stmt, StmtKind};
use crate::{Finding, Parsed};

const RULE: &str = "lock-order";

#[derive(Clone, Debug)]
struct Acq {
    class: String,
    is_read: bool,
    binding: Option<String>,
    /// Token index of the `read`/`write`/`lock` call.
    tok: usize,
}

/// `to` acquired (at token `tok` of file `file`) while `from` was held.
#[derive(Clone, Debug)]
struct Edge {
    from: String,
    to: String,
    file: usize,
    tok: usize,
}

/// Runs the pass over the workspace file set.
pub(crate) fn run(files: &[Parsed<'_>], out: &mut Vec<Finding>) {
    // Lock classes: field name → "Struct.field". Collected workspace-
    // wide so a file using a lock declared in a sibling module resolves.
    let mut classes: BTreeMap<String, String> = BTreeMap::new();
    for f in files {
        for field in &f.items.fields {
            let locky =
                field.ty.split_whitespace().any(|w| w.contains("Mutex") || w.contains("RwLock"));
            if locky {
                classes
                    .entry(field.field.clone())
                    .or_insert_with(|| format!("{}.{}", field.strukt, field.field));
            }
        }
    }
    if classes.is_empty() {
        return;
    }

    let mut edges: Vec<Edge> = Vec::new();
    for f in files {
        for body in f.items.fns.iter().filter_map(|func| func.body) {
            let mut held: Vec<Acq> = Vec::new();
            let mut aliases: BTreeMap<String, String> = BTreeMap::new();
            walk(f, &classes, body, &mut held, &mut aliases, &mut edges, out);
        }
    }

    // Cycle detection over the cross-class digraph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().insert(e.to.as_str());
        }
    }
    let cyclic = cyclic_nodes(&adj);
    for e in &edges {
        if e.from != e.to && cyclic.contains(e.from.as_str()) && cyclic.contains(e.to.as_str()) {
            out.push(files[e.file].finding_at(
                RULE,
                e.tok,
                format!(
                    "acquiring `{}` while holding `{}` participates in a lock-order cycle; \
                     pick one global order and stick to it",
                    e.to, e.from
                ),
            ));
        }
    }
}

/// Nodes on at least one directed cycle (strongly-connected components
/// of size > 1, or with a self loop).
fn cyclic_nodes<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> BTreeSet<&'a str> {
    // Small graphs: for each node, DFS to see if it can reach itself.
    let mut out = BTreeSet::new();
    for &start in adj.keys() {
        let mut stack: Vec<&str> = adj[start].iter().copied().collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                out.insert(start);
                break;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
    }
    out
}

/// Walks one block: guards acquired by its `let`s are released (and
/// its `for` aliases forgotten) at its end.
fn walk(
    f: &Parsed<'_>,
    classes: &BTreeMap<String, String>,
    nodes: &[Node],
    held: &mut Vec<Acq>,
    aliases: &mut BTreeMap<String, String>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Finding>,
) {
    let entry_held = held.len();
    let entry_aliases = aliases.clone();
    for s in stmts(f.view, nodes) {
        process(f, classes, &s, held, aliases, edges, out);
    }
    held.truncate(entry_held);
    *aliases = entry_aliases;
}

fn process(
    f: &Parsed<'_>,
    classes: &BTreeMap<String, String>,
    s: &Stmt<'_>,
    held: &mut Vec<Acq>,
    aliases: &mut BTreeMap<String, String>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Finding>,
) {
    let view = f.view;
    let header = &s.toks;
    let ident = |k: usize| (view.toks[k].kind == TokKind::Ident).then(|| view.text(k));

    // `drop(g)` releases a held guard.
    if s.kind == StmtKind::Drop {
        if let Some(name) = header.get(2).and_then(|&arg| ident(arg)) {
            held.retain(|a| a.binding.as_deref() != Some(name));
        }
        return;
    }

    // `for pat in ..lock-collection..` aliases the loop variable(s).
    let mut local_aliases: Vec<(String, String)> = Vec::new();
    if s.head == "for" {
        if let Some(class) = header.iter().find_map(|&k| classes.get(ident(k)?)) {
            local_aliases = s.binds.iter().map(|b| (b.clone(), class.clone())).collect();
        }
    }

    // Acquisitions in the header/expression, left to right.
    let statement_scoped =
        s.kind != StmtKind::Let || header.iter().any(|&k| view.is_ident(k, "match"));
    let binding = if s.kind == StmtKind::Let { s.binds.first().cloned() } else { None };
    let mut acquired_here: Vec<Acq> = Vec::new();
    for (pos, &k) in header.iter().enumerate() {
        let Some(m @ ("read" | "write" | "lock")) = ident(k) else { continue };
        let prev_dot = pos > 0 && view.is_punct(header[pos - 1], b'.');
        let next_paren = header.get(pos + 1).is_some_and(|&j| view.is_punct(j, b'('));
        if !prev_dot || !next_paren {
            continue;
        }
        // Class: nearest known lock field (or alias) to the left.
        let class = header[..pos].iter().rev().find_map(|&j| {
            let w = ident(j)?;
            classes
                .get(w)
                .or_else(|| aliases.get(w))
                .cloned()
                .or_else(|| local_aliases.iter().find(|(n, _)| n == w).map(|(_, c)| c.clone()))
        });
        let Some(class) = class else { continue };
        let acq = Acq { class, is_read: m == "read", binding: binding.clone(), tok: k };
        for prior in held.iter().chain(acquired_here.iter()) {
            if prior.class == acq.class {
                if !(prior.is_read && acq.is_read) {
                    out.push(f.finding_at(
                        RULE,
                        acq.tok,
                        format!(
                            "`{}` is re-acquired (non-read) while already held — \
                             self-deadlock on the same lock class",
                            acq.class
                        ),
                    ));
                }
            } else {
                edges.push(Edge {
                    from: prior.class.clone(),
                    to: acq.class.clone(),
                    file: f.index,
                    tok: acq.tok,
                });
            }
        }
        acquired_here.push(acq);
    }

    let held_before = held.len();
    held.extend(acquired_here);
    for (n, c) in &local_aliases {
        aliases.insert(n.clone(), c.clone());
    }
    for b in &s.blocks {
        walk(f, classes, b, held, aliases, edges, out);
    }
    for (n, _) in &local_aliases {
        aliases.remove(n);
    }
    if statement_scoped {
        // Temporary/consumed guards do not outlive the statement.
        held.truncate(held_before);
    }
}
