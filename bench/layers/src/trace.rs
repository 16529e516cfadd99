//! The span recorder. Spans are opened and closed only from files under
//! `bench/`, around each call into a layer; they live in memory and are
//! written out as Chrome-trace JSON when the run ends.
//!
//! A *probe* span times a call re-issued on harness-owned objects of
//! identical shape (the models keep their MLPs private, so the children
//! of `fae-models.forward` cannot be timed in place). Probes carry their
//! real timestamps, link to the span they decompose through `parent`,
//! are exempt from the children-inside-parents rule, and are used only
//! to compute self time.

use std::time::Instant;

use serde_json::{json, Value};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; 0 while still open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by the spans of one replayed step, micro-batch or frame.
    pub trace_id: u64,
    /// True for a re-issued call (see the module docs).
    pub probe: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// The in-memory span store. A disabled tracer records nothing, which
/// is how the same replay code runs once with spans and once without.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self { t0: Instant::now(), enabled: true, spans: Vec::new(), stack: Vec::new() }
    }

    /// A tracer whose `begin`/`end` do nothing.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        trace_id: u64,
        probe: bool,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            trace_id,
            probe,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, trace_id: u64) -> Open {
        self.open(layer, name, trace_id, false)
    }

    /// Opens a probe span under the innermost open span.
    pub fn begin_probe(&mut self, layer: &'static str, name: &'static str, trace_id: u64) -> Open {
        self.open(layer, name, trace_id, true)
    }

    /// Closes a span. Spans close innermost-first.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
    }

    /// Re-parents probe span `child` under `parent`: the probe was
    /// issued after the call it decomposes had already returned.
    pub fn adopt(&mut self, parent: Open, child: Open) {
        if let (Some(p), Some(c)) = (parent.0, child.0) {
            assert!(self.spans[c].probe, "only probe spans are re-parented");
            self.spans[c].parent = Some(p);
        }
    }

    /// Times `f` under a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        trace_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(layer, name, trace_id);
        let r = f();
        self.end(s);
        r
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every closed span named `layer`/`name`.
    pub fn seconds_of(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && s.end_ns > 0)
            .map(Span::seconds)
            .collect()
    }

    /// Self time (seconds) of every span: its duration minus the part of
    /// it its children cover. A real child covers its own interval
    /// (children of one parent never overlap: they are opened and closed
    /// on one stack); a probe child covers its duration. Never negative.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Self times (seconds) of the spans named `layer`/`name`.
    pub fn self_seconds_of(&self, layer: &str, name: &str) -> Vec<f64> {
        self.self_seconds()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.layer == layer && s.name == name && s.end_ns > 0)
            .map(|(t, _)| t)
            .collect()
    }

    /// Checks the tree: every span closed, parents opened earlier, and
    /// every non-probe child inside its parent's interval.
    pub fn well_formed(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            if p >= i {
                return Err(format!("span {i} ({}) has a later parent {p}", s.name));
            }
            let parent = &self.spans[p];
            if !s.probe && (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete ("X") event per span, one track per layer, with the
    /// issue's span fields under `args`.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let mut layers: Vec<&str> = Vec::new();
        let mut events = Vec::with_capacity(self.spans.len() + 16);
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(t) => t,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            events.push(json!({
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                "args": {
                    "id": i,
                    "name": s.name,
                    "layer": s.layer,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "trace_id": s.trace_id,
                    "probe": s.probe,
                },
            }));
        }
        for (tid, layer) in layers.iter().enumerate() {
            events.push(json!({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": *layer},
            }));
        }
        json!({"workload": workload, "displayTimeUnit": "ms", "traceEvents": events})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, probe: bool) -> Span {
        Span { name: "s", layer: "l", start_ns: start, end_ns: end, parent, trace_id: 0, probe }
    }

    fn tracer_of(spans: Vec<Span>) -> Tracer {
        Tracer { spans, ..Tracer::new() }
    }

    #[test]
    fn nested_spans_are_well_formed_with_non_negative_self_time() {
        let mut tr = Tracer::new();
        let step = tr.begin("fae-core", "hot_step", 7);
        tr.time("fae-core", "engine_step", 7, || std::hint::black_box((0..1000).sum::<u64>()));
        tr.time("fae-embed", "hot_apply", 7, || ());
        tr.end(step);
        let fwd = tr.begin_probe("fae-models", "forward", 7);
        tr.end(fwd);
        let lookup = tr.begin_probe("fae-embed", "hot_lookup", 7);
        tr.end(lookup);
        tr.adopt(fwd, lookup);

        tr.well_formed().unwrap();
        assert_eq!(tr.spans().len(), 5);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[4].parent, Some(3));
        assert!(tr.spans().iter().all(|s| s.trace_id == 7));
        assert!(tr.self_seconds().iter().all(|&t| t >= 0.0));
        let whole = tr.seconds_of("fae-core", "hot_step")[0];
        let own = tr.self_seconds_of("fae-core", "hot_step")[0];
        let parts: f64 = [("fae-core", "engine_step"), ("fae-embed", "hot_apply")]
            .iter()
            .map(|(l, n)| tr.seconds_of(l, n)[0])
            .sum();
        assert!((whole - own - parts).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_real_and_probe_children_and_clamps() {
        let tr = tracer_of(vec![
            span(0, 100, None, false),
            span(10, 40, Some(0), false),
            span(500, 520, Some(0), true),
            span(0, 10, None, true),
            span(600, 700, Some(3), true),
        ]);
        tr.well_formed().unwrap();
        let own = tr.self_seconds();
        assert!((own[0] - 50e-9).abs() < 1e-15);
        assert_eq!(own[3], 0.0, "a probe child longer than its parent clamps to zero");
    }

    #[test]
    fn malformed_trees_are_rejected() {
        // A real child that leaves its parent's interval.
        assert!(tracer_of(vec![span(0, 10, None, false), span(5, 20, Some(0), false)])
            .well_formed()
            .is_err());
        // A parent that opens after its child.
        assert!(tracer_of(vec![span(0, 10, Some(1), false), span(0, 20, None, false)])
            .well_formed()
            .is_err());
        // A span left open.
        let mut tr = Tracer::new();
        tr.begin("l", "s", 0);
        assert!(tr.well_formed().is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let s = tr.begin("l", "s", 1);
        assert_eq!(tr.time("l", "t", 1, || 5), 5);
        tr.end(s);
        assert!(tr.spans().is_empty() && !tr.enabled());
        tr.well_formed().unwrap();
    }

    #[test]
    fn chrome_trace_carries_the_span_fields() {
        let mut tr = Tracer::new();
        let a = tr.begin("fae-net", "frame", 3);
        tr.end(a);
        let doc = tr.chrome_trace("net_loopback");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2, "one span event plus one track-name event");
        let args = events[0].get("args").unwrap();
        for key in ["name", "layer", "start_ns", "end_ns", "parent", "trace_id", "probe"] {
            assert!(args.get(key).is_some(), "missing {key}");
        }
        assert_eq!(args.get("parent"), Some(&Value::Null));
        assert_eq!(args.get("trace_id").and_then(Value::as_u64), Some(3));
    }
}
