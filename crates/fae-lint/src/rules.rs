//! The lint rules: what is forbidden where, and the token-pattern
//! matchers for the purely local rules.
//!
//! The matchers read the token stream ([`crate::tokens`]), so text in
//! comments and literals is invisible to them and line wrapping or
//! spacing inside a call cannot hide a site. They are still syntactic
//! approximations, not type-checked analyses — the trade-off is zero
//! dependencies and sub-second whole-workspace runs. Known gaps are
//! documented per rule and in DESIGN.md §11.

use crate::tokens::TokKind;
use crate::tree::{find_group, flatten};
use crate::{Finding, Parsed};

/// Where a rule applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Only the determinism-critical crates (fae-core, fae-embed,
    /// fae-models, fae-serve, fae-sysmodel).
    Deterministic,
    /// Library code of every first-party crate (binary targets exempt:
    /// a panic there aborts one CLI invocation, not a library contract).
    AllLibs,
    /// Only the networking crate (fae-net): socket I/O must never block
    /// without a deadline.
    Net,
    /// Every first-party crate except fae-lint itself (whose matchers
    /// quote the trigger tokens): telemetry emission sites must name
    /// their metric with a stable lowercase dotted literal, so the
    /// Prometheus exposition's `fae_*` name mapping stays collision-free.
    Metrics,
}

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable kebab-case id, used in pragmas and diagnostics.
    pub id: &'static str,
    /// Where it applies.
    pub scope: Scope,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
}

/// Every enforced rule, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        scope: Scope::Deterministic,
        summary: "a host-clock read (Instant/SystemTime) flows into digest-affecting state",
    },
    RuleInfo {
        id: "ambient-rng",
        scope: Scope::Deterministic,
        summary: "ambient randomness (thread_rng/OsRng/...) flows into digest-affecting state",
    },
    RuleInfo {
        id: "hash-container",
        scope: Scope::Deterministic,
        summary: "HashMap/HashSet *iteration* flows into digest-affecting state (lookups are fine)",
    },
    RuleInfo {
        id: "det-taint",
        scope: Scope::Deterministic,
        summary: "another nondeterministic source (thread id, pointer address) flows into \
                  digest-affecting state",
    },
    RuleInfo {
        id: "phase-balance",
        scope: Scope::Deterministic,
        summary: "Phase enum / Phase::ALL / index() / phase arrays / charge sites must agree, \
                  so the journal's phase-sum invariant holds statically",
    },
    RuleInfo {
        id: "lock-order",
        scope: Scope::AllLibs,
        summary: "lock acquisitions must follow one global order; cycles and same-class \
                  re-acquisition are deadlocks-in-waiting",
    },
    RuleInfo {
        id: "wire-compat",
        scope: Scope::Net,
        summary: "fae-net wire tags must be unique, encode/decode-consistent, and inside the \
                  ranges DESIGN.md §12 declares",
    },
    RuleInfo {
        id: "no-panic",
        scope: Scope::AllLibs,
        summary: "unwrap/expect/panic!/string-key indexing forbidden in library code",
    },
    RuleInfo {
        id: "timeline-phase",
        scope: Scope::Deterministic,
        summary: "Timeline charges must name a Phase constant (or a `phase` binding)",
    },
    RuleInfo {
        id: "net-deadline",
        scope: Scope::Net,
        summary: "blocking socket I/O (read_exact/write_all/connect/...) must carry a deadline",
    },
    RuleInfo {
        id: "metric-name",
        scope: Scope::Metrics,
        summary: "metric names at emission sites must be lowercase dotted literals ([a-z0-9._])",
    },
    RuleInfo {
        id: "float-fuse",
        scope: Scope::AllLibs,
        summary: "8-lane f32 unrolls (chunks_exact(8)) must pragma their bit-identity \
                  contract, citing DESIGN.md §14",
    },
];

/// True if `id` names a suppressible rule (pragma target).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Runs the token-pattern rules in scope for `p` over its token stream:
/// `no-panic` and `float-fuse` in library code, `net-deadline` in the
/// net scope, `metric-name` in the metrics scope, `timeline-phase` in
/// the determinism scope.
pub(crate) fn scan(p: &Parsed<'_>, out: &mut Vec<Finding>) {
    let v = &p.view;
    let class = p.class;
    let lib = !class.binary;
    let ident = |i: usize| v.toks.get(i).filter(|t| t.kind == TokKind::Ident).map(|_| v.text(i));
    for i in 0..v.toks.len() {
        // `.name(` — a method call anchored at its dot.
        if v.is_punct(i, b'.') && v.is_punct(i + 2, b'(') {
            let Some(name) = ident(i + 1) else { continue };
            match name {
                "unwrap" if lib && v.is_punct(i + 3, b')') => {
                    out.push(no_panic(p, i, "`.unwrap()` panics on the error path"))
                }
                "expect" if lib => {
                    out.push(no_panic(p, i, "`.expect(...)` panics on the error path"))
                }
                "chunks_exact" | "chunks_exact_mut"
                    if lib
                        && v.toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Num)
                        && v.text(i + 3) == "8"
                        && v.is_punct(i + 4, b')') =>
                {
                    out.push(float_fuse(p, i, name))
                }
                "read_exact" | "read_to_end" | "read_until" | "write_all" if class.net => {
                    out.push(net_deadline(p, i, name))
                }
                "counter_add" | "gauge_set" | "observe" if class.metrics => {
                    out.extend(metric_name(p, i))
                }
                "add" if class.deterministic => out.extend(timeline_phase(p, i)),
                _ => {}
            }
            continue;
        }
        // `m["key"]`: a string literal hugging the bracket, the bracket
        // hugging an expression end — an array literal `["a", "b"]`
        // follows `=`, `(`, `&`, a space.
        if lib
            && v.is_punct(i, b'[')
            && v.adjacent(i)
            && v.toks[i + 1].kind == TokKind::Str
            && i > 0
            && v.adjacent(i - 1)
            && (v.toks[i - 1].kind == TokKind::Ident || matches!(v.punct(i - 1), Some(b']' | b')')))
        {
            out.push(p.finding_at(
                "no-panic",
                i,
                "string-key indexing panics on a missing entry; use `.get(...)`",
            ));
            continue;
        }
        let Some(word) = ident(i) else { continue };
        match word {
            "panic" | "unreachable" | "todo" | "unimplemented"
                if lib
                    && v.is_punct(i + 1, b'!')
                    && matches!(v.punct(i + 2), Some(b'(' | b'[' | b'{')) =>
            {
                out.push(no_panic(p, i, &format!("`{word}!` in library code")))
            }
            "connect" if class.net && v.is_punct(i + 1, b'(') => out.push(net_deadline(p, i, word)),
            "set_read_timeout" | "set_write_timeout"
                if class.net
                    && v.is_punct(i + 1, b'(')
                    && ident(i + 2) == Some("None")
                    && v.is_punct(i + 3, b')') =>
            {
                out.push(p.finding_at(
                    "net-deadline",
                    i,
                    format!(
                        "`{word}(None)` removes the socket deadline, making every later call \
                         unbounded; deadlines are load-bearing in fae-net"
                    ),
                ))
            }
            _ => {}
        }
    }
}

fn no_panic(p: &Parsed<'_>, tok: usize, what: &str) -> Finding {
    p.finding_at("no-panic", tok, format!("{what}; return a typed error (or pragma with a proof)"))
}

/// The net-deadline rule: blocking socket calls, and explicit deadline
/// removal, are flagged. One hung peer must never be able to stall the
/// coordinator or a worker forever, so every read/write/connect goes
/// through the deadline helpers (`fae_net::deadline`), which set a
/// timeout first and pragma their own blessed call sites.
///
/// Gaps, documented: `connect` is matched only as that exact name
/// (`TcpStream::connect_timeout` has the deadline built in and does not
/// match), and file I/O in non-net crates never sees this rule (scope is
/// the fae-net crate alone — `read_exact` on a `File` is fine elsewhere).
fn net_deadline(p: &Parsed<'_>, tok: usize, call: &str) -> Finding {
    let what = match call {
        "read_exact" => "`read_exact` blocks until the peer sends",
        "read_to_end" => "`read_to_end` blocks until the peer closes",
        "read_until" => "`read_until` blocks until the delimiter arrives",
        "write_all" => "`write_all` blocks while the send buffer is full",
        _ => "`connect` blocks for the OS default (minutes)",
    };
    p.finding_at(
        "net-deadline",
        tok,
        format!(
            "{what} — unbounded without a prior deadline; use the fae_net::deadline helpers \
             (or set a timeout and pragma the site)"
        ),
    )
}

/// The metric-name rule at the `.counter_add(` / `.gauge_set(` /
/// `.observe(` call whose dot is token `dot`: the name is the string
/// literal that opens the argument list, wherever rustfmt put it.
///
/// The contract: a name passed to these calls becomes a Prometheus
/// series `fae_<name>` with every non-alphanumeric byte mapped to `_`.
/// Names outside `[a-z0-9._]` (or with leading / trailing / doubled
/// separators) can collide after that mapping or churn the exposition
/// schema, so they are rejected at the source.
///
/// Gap, documented: a *dynamic* first argument (a variable, as in the
/// telemetry crate's own forwarding layer) is not checked — the rule
/// audits the literal emission sites, which is where names are minted.
fn metric_name(p: &Parsed<'_>, dot: usize) -> Option<Finding> {
    let v = &p.view;
    let arg = dot + 3;
    if v.toks.get(arg)?.kind != TokKind::Str {
        return None;
    }
    let literal = v.text(arg);
    let name = literal.strip_prefix('"').unwrap_or(literal);
    let name = name.strip_suffix('"').unwrap_or(name);
    let charset_ok = name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_');
    let shape_ok = name.as_bytes().first().is_some_and(|b| b.is_ascii_lowercase())
        && !name.ends_with(['.', '_'])
        && !name.contains("..");
    if charset_ok && shape_ok {
        return None;
    }
    Some(p.finding_at(
        "metric-name",
        dot,
        format!(
            "metric name \"{name}\" is not a stable lowercase dotted identifier \
             ([a-z0-9._], starting with a letter); the Prometheus exposition maps \
             non-alphanumerics to `_`, so loose names collide or churn the schema"
        ),
    ))
}

/// The float-fuse rule: every fixed-width 8-lane f32 unroll site
/// (`.chunks_exact(8)` / `.chunks_exact_mut(8)`, the shape all
/// `fae_nn::lanes` kernels share) must carry a pragma stating which
/// side of the bit-identity contract it is on — elementwise (no f32
/// reassociation) or reduction (reorders addition, the documented
/// carve-out). The pragma's reason must cite the contract anchor
/// `DESIGN.md §14`; that citation is validated with the other pragma
/// hygiene (`finalize`), and a float-fuse pragma without it is a
/// `bad-pragma`.
///
/// Gap, documented: only the literal width-8 call fires. Other widths
/// (`chunks_exact(4)`) or a variable width are not this workspace's
/// unroll idiom and stay out of scope.
fn float_fuse(p: &Parsed<'_>, dot: usize, call: &str) -> Finding {
    p.finding_at(
        "float-fuse",
        dot,
        format!(
            "`.{call}(8)` is an 8-lane f32 unroll; pragma the site with its bit-identity \
             contract (elementwise vs reduction carve-out), citing DESIGN.md §14"
        ),
    )
}

/// The accounting rule at the `.add(` call whose dot is token `dot`: a
/// charge on a receiver whose last path segment contains "timeline"
/// must name its phase in the first argument — a `Phase::X` constant or
/// a binding whose name contains `phase`. Charges through receivers
/// with other names are not checked; this is the documented gap.
fn timeline_phase(p: &Parsed<'_>, dot: usize) -> Option<Finding> {
    let v = &p.view;
    let segment = dot.checked_sub(1)?;
    if v.toks[segment].kind != TokKind::Ident
        || !v.text(segment).to_ascii_lowercase().contains("timeline")
    {
        return None;
    }
    // First argument: the paren group's children up to its first comma.
    let args = find_group(&v.nodes, dot + 2)?;
    let first = flatten(args.split(|n| v.is_leaf_punct(n, b',')).next().unwrap_or_default());
    let named = first.iter().any(|&k| {
        v.toks[k].kind == TokKind::Ident && v.text(k).to_ascii_lowercase().contains("phase")
    });
    if named {
        return None;
    }
    let span = |toks: &[usize]| match (toks.first(), toks.last()) {
        (Some(&a), Some(&b)) => v.source.get(v.toks[a].start..v.toks[b].end).unwrap_or(""),
        _ => "",
    };
    // The receiver as written: the path tokens hugging the segment.
    let mut start = segment;
    while start > 0
        && v.adjacent(start - 1)
        && (v.toks[start - 1].kind == TokKind::Ident
            || matches!(v.punct(start - 1), Some(b'.' | b':' | b'*' | b'&')))
    {
        start -= 1;
    }
    Some(p.finding_at(
        "timeline-phase",
        dot,
        format!(
            "Timeline charge `{}.add({}, ...)` does not name its phase; pass a `Phase::...` \
             constant (or a `phase`-named binding) so the journal's phase-sum invariant stays \
             auditable",
            span(&[start, segment]),
            span(&first)
        ),
    ))
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::FileClass;

    /// Rule ids fired by `src` with every scope on (pre-suppression).
    fn fired(src: &str) -> Vec<&'static str> {
        let class = FileClass { deterministic: true, binary: false, net: true, metrics: true };
        let p = Parsed::new(0, Path::new("x.rs"), src, class);
        let mut out = Vec::new();
        scan(&p, &mut out);
        out.into_iter().map(|f| f.rule).collect()
    }

    fn count(src: &str, rule: &str) -> usize {
        fired(src).into_iter().filter(|r| *r == rule).count()
    }

    #[test]
    fn mentions_alone_fire_nothing() {
        // wall-clock/ambient-rng/hash-container are flow rules
        // ([`crate::flow`]); no token pattern fires on a mere mention.
        assert!(fired("let t = Instant::now();").is_empty());
        assert!(fired("let m: HashMap<u32, f32> = HashMap::new();").is_empty());
        assert!(fired("let x = instant_rate;").is_empty());
    }

    #[test]
    fn no_panic_hits_and_misses() {
        let nopanic = |src: &str| count(src, "no-panic");
        assert_eq!(nopanic("x.unwrap()"), 1);
        assert_eq!(nopanic("x.expect(\"m\")"), 1);
        assert_eq!(nopanic("panic!(\"boom\")"), 1);
        assert_eq!(nopanic("x.unwrap_or(0)"), 0);
        assert_eq!(nopanic("x.unwrap_or_else(f)"), 0);
        assert_eq!(nopanic("let v = arr[i];"), 0);
        assert_eq!(nopanic("let v = m[\"key\"];"), 1);
        assert_eq!(nopanic("let v = [\"a\", \"b\"];"), 0);
        // Spacing and wrapping do not hide a site.
        assert_eq!(nopanic("x.unwrap ()"), 1);
        assert_eq!(nopanic("x\n    .unwrap()"), 1);
        assert_eq!(nopanic("if panic != 0 {}"), 0);
    }

    #[test]
    fn net_deadline_hits_and_misses() {
        let net = |src: &str| count(src, "net-deadline");
        assert_eq!(net("stream.read_exact(&mut buf)?;"), 1);
        assert_eq!(net("stream.write_all(&bytes)?;"), 1);
        assert_eq!(net("stream.read_to_end(&mut v)?;"), 1);
        assert_eq!(net("reader.read_until(b'\\n', &mut v)?;"), 1);
        assert_eq!(net("TcpStream::connect(addr)?;"), 1);
        assert_eq!(net("stream.set_read_timeout(None)?;"), 1);
        assert_eq!(net("stream.set_write_timeout(None)?;"), 1);
        // The deadline-carrying forms are exactly what the rule demands.
        assert_eq!(net("TcpStream::connect_timeout(&a, dur(ms))?;"), 0);
        assert_eq!(net("stream.set_read_timeout(Some(dur(ms)))?;"), 0);
        assert_eq!(net("stream.flush()?;"), 0);
        assert_eq!(net("let reconnect = true;"), 0);
    }

    #[test]
    fn metric_name_hits_and_misses() {
        let check = |src: &str| count(src, "metric-name");
        assert_eq!(check("t.counter_add(\"train.steps_hot\", 1);"), 0);
        assert_eq!(check("t.gauge_set(\"serve.hit_rate\", r);"), 0);
        assert_eq!(check("t.observe(\"serve.latency_s\", v);"), 0);
        assert_eq!(check("t.counter_add( \"net.joins\", 1);"), 0, "leading space before literal");
        // Dynamic names (the forwarding layer) are out of reach.
        assert_eq!(check("m.counter_add(name, v);"), 0);
        // Numeric observe (a histogram value, not a telemetry name).
        assert_eq!(check("window.observe(loss);"), 0);
        // Names quoted in comments never fire: comments are not tokens.
        assert_eq!(check("let x = 1; // call t.counter_add(\"Bad Name\", 1)"), 0);
        // Violations: uppercase, spaces, dashes, separators misused.
        assert_eq!(check("t.counter_add(\"Train.Steps\", 1);"), 1);
        assert_eq!(check("t.gauge_set(\"serve hit rate\", r);"), 1);
        assert_eq!(check("t.observe(\"serve-latency\", v);"), 1);
        assert_eq!(check("t.counter_add(\"\", 1);"), 1);
        assert_eq!(check("t.counter_add(\".joins\", 1);"), 1);
        assert_eq!(check("t.counter_add(\"net..joins\", 1);"), 1);
        assert_eq!(check("t.counter_add(\"net.joins_\", 1);"), 1);
        // A rustfmt-wrapped argument list is the same call.
        assert_eq!(check("t.counter_add(\n    \"Bad Name\",\n    1,\n);"), 1);
        assert_eq!(check("t.counter_add(\n    \"good.name\",\n    1,\n);"), 0);
    }

    #[test]
    fn float_fuse_hits_and_misses() {
        let fuse = |src: &str| count(src, "float-fuse");
        assert_eq!(fuse("let mut d = dst.chunks_exact_mut(8);"), 1);
        assert_eq!(fuse("let mut s = src.chunks_exact(8);"), 1);
        assert_eq!(fuse("for (a, b) in x.chunks_exact(8).zip(y.chunks_exact(8)) {"), 2);
        // Other widths and dynamic widths are not the unroll idiom.
        assert_eq!(fuse("let mut d = dst.chunks_exact(4);"), 0);
        assert_eq!(fuse("let mut d = dst.chunks_exact(width);"), 0);
        assert_eq!(fuse("let n = dst.len() / 8;"), 0);
    }

    #[test]
    fn timeline_rule() {
        let fire = |src: &str| count(src, "timeline-phase") > 0;
        assert!(fire("self.timeline.add(p, secs);"));
        assert!(!fire("self.timeline.add(Phase::Transfer, secs);"));
        assert!(!fire("timeline.add(*phase, d.phases.0[i]);"));
        assert!(!fire("hist.add(v);"));
        assert!(!fire("t.add(Phase::Framework, 1.0);"));
        // The first argument is read from the paren group, not the line.
        assert!(!fire("self.timeline.add(\n    Phase::Transfer,\n    1.0,\n);"));
        assert!(fire("self.timeline.add(\n    secs,\n    Phase::Transfer,\n);"));
    }
}
