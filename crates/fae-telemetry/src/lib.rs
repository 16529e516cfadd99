//! Structured telemetry for the FAE training pipeline.
//!
//! Four pieces, all zero-dependency (std + the vendored serde shims):
//!
//! * [`metrics`] — a registry of counters, gauges and fixed-bucket
//!   log₂-scale histograms, plus per-path span aggregates;
//! * [`span`] — RAII guards measuring real wall-clock seconds and
//!   explicitly-attributed simulated seconds per pipeline stage;
//! * [`journal`] — a crash-safe per-step JSONL event journal whose
//!   per-phase simulated seconds sum exactly to the run's `Timeline`.
//!   [`JournalEvent`] is the schema (its JSON codec is derived from the
//!   enum) and [`TaggedEvent`] — an event plus the node and position it
//!   was emitted at — is the one stream type: what is written, retained,
//!   read back and handed to every consumer;
//! * [`merge`], [`trace`], [`report`], [`top`] — consumers of that
//!   stream: the cross-node merge on the simulated clock
//!   ([`merge::event_times`] is the only place a stream becomes
//!   instants), a deterministic Chrome trace-event (Perfetto) exporter,
//!   the Fig.-14-style phase breakdown behind `fae report` and the
//!   `fae top` dashboard.
//!
//! Everything hangs off the [`Telemetry`] handle: a cheap, cloneable,
//! global-free capability that is threaded through the trainer,
//! scheduler, replicator, calibrator and fault layer. A
//! [`Telemetry::disabled`] handle (also `Default`) makes every call a
//! no-op, so instrumented code paths cost nothing when observability is
//! off and call sites never need `if let Some(telemetry)` guards.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod journal;
pub mod merge;
pub mod metrics;
pub mod report;
pub mod span;
pub mod top;
pub mod trace;

use std::collections::btree_map::{BTreeMap, Entry};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, MutexGuard, PoisonError};

pub use alerts::{AlertEngine, AlertRule};
pub use journal::{
    parse_tagged_journal, read_tagged_journal, JournalEvent, JournalWriter, PhaseSeconds, StepMode,
    TaggedEvent,
};
pub use merge::{check_invariant, merge_tagged, MergeStats, MergedInvariant, ShipLedger};
pub use metrics::{Histogram, Metric, MetricsRegistry, SpanStat};
pub use report::{render, summarize, PhaseBreakdown, RunSummary, ServeSummary};
pub use span::SpanGuard;
pub use top::render_top;
pub use trace::{chrome_trace, merged_chrome_trace};

/// What emissions and metric updates change, behind the handle's one
/// lock.
struct State {
    metrics: MetricsRegistry,
    journal: Option<JournalWriter>,
    /// Per-wire-node sidecar writers for shipped worker journals,
    /// created lazily next to the main journal file.
    sidecars: BTreeMap<u64, JournalWriter>,
    alerts: AlertEngine,
    events: Vec<TaggedEvent>,
    /// The next emission's sequence number.
    seq: u64,
}

#[expect(
    clippy::disallowed_types,
    reason = "the telemetry handle's one lock: every thread that emits shares this state"
)]
struct Inner {
    journal_path: Option<PathBuf>,
    node_id: u64,
    retain_events: bool,
    progress: bool,
    progress_every: u64,
    state: std::sync::Mutex<State>,
}

impl Inner {
    /// Takes the one lock. A panic under it is recovered rather than
    /// propagated: no update leaves the state unusable (at worst a line,
    /// an event or an observation is missing), and losing telemetry must
    /// not kill training.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The telemetry capability handle.
///
/// Cloning is cheap (an `Arc` bump); a disabled handle is a `None` and
/// every operation on it returns immediately. Interior mutability means
/// instrumented code takes `&Telemetry` (or a clone) without threading
/// `&mut` through the whole call tree.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Telemetry(disabled)"),
            Some(inner) => {
                write!(f, "Telemetry(enabled, journal: {})", inner.journal_path.is_some())
            }
        }
    }
}

impl Telemetry {
    /// A no-op handle: every call returns immediately, nothing is
    /// recorded. This is also the `Default`.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// Starts configuring an enabled handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder::default()
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` on the registry; a no-op when disabled.
    fn with_registry(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.0 {
            f(&mut inner.lock().metrics);
        }
    }

    /// Adds `n` to the counter `metric`.
    pub fn counter_add(&self, metric: Metric, n: u64) {
        self.with_registry(|m| m.counter_add(metric.name(), n));
    }

    /// Adds `n` to the counter `<family>.<label>`: one counter per member
    /// of an open set, such as `faults.injected.<kind>`. The label is a
    /// member's own id (a fault kind's kebab-case name) and is not held
    /// to the [`Metric`] rule; the exposition maps its `-` to `_`.
    pub fn counter_add_labelled(&self, family: Metric, label: &str, n: u64) {
        self.with_registry(|m| m.counter_add(&format!("{}.{label}", family.name()), n));
    }

    /// Sets the gauge `metric` to `v`.
    pub fn gauge_set(&self, metric: Metric, v: f64) {
        self.with_registry(|m| m.gauge_set(metric.name(), v));
    }

    /// Records an observation into the histogram `metric`.
    pub fn observe(&self, metric: Metric, v: f64) {
        self.with_registry(|m| m.observe(metric.name(), v));
    }

    /// Records one completed span occurrence (used by [`SpanGuard`]).
    pub fn span_record(&self, path: &str, real_s: f64, sim_s: f64) {
        self.with_registry(|m| m.span_record(path, real_s, sim_s));
    }

    /// Opens a span at `path`; real seconds are measured until the guard
    /// drops, simulated seconds are attributed via
    /// [`SpanGuard::add_sim`].
    pub fn span(&self, path: &str) -> SpanGuard {
        SpanGuard::open(self.clone(), path)
    }

    /// Emits one journal event: tagged with this handle's node id and
    /// the next sequence number, appended (and flushed) to the journal
    /// file if one is attached, retained in memory when configured and
    /// fed to the alert engine, all under the one lock, so the journal's
    /// lines are in `seq` order whichever threads emit. Then, unlocked,
    /// it is echoed as a progress line when `--progress` is on, and any
    /// rule that fired is emitted right behind it as an
    /// [`JournalEvent::Alert`]. Journal write errors are reported to
    /// stderr once per event, never fatal — losing telemetry must not
    /// kill training.
    pub fn emit(&self, event: &JournalEvent) {
        let Some(inner) = &self.0 else { return };
        let fired = {
            let mut state = inner.lock();
            let tagged =
                TaggedEvent { node_id: inner.node_id, seq: state.seq, event: event.clone() };
            state.seq += 1;
            if let Some(w) = state.journal.as_mut() {
                if let Err(e) = w.write_raw_line(&tagged.to_line()) {
                    eprintln!("telemetry: journal write failed: {e}");
                }
            }
            if inner.retain_events {
                state.events.push(tagged);
            }
            state.alerts.observe(event)
        };
        if inner.progress {
            self.progress_line(inner, event);
        }
        // Firings re-enter emit() as first-class journal events. Alerts
        // never trigger rules themselves, so this recursion is one level
        // deep.
        for a in &fired {
            self.emit(a);
        }
    }

    /// Persists a batch of shipped worker journal lines (already tagged
    /// at their origin): appended verbatim to the per-node sidecar file
    /// `<journal>.node<k>.jsonl` next to the main journal, which is
    /// created on the node's first batch. `wire_node` is the worker's
    /// wire id (its journal tag is `wire_node + 1`). A no-op without a
    /// journal file.
    pub fn ship_lines(&self, wire_node: u64, batch: &str) {
        let Some(inner) = &self.0 else { return };
        let Some(path) = sidecar_path(inner.journal_path.as_deref(), wire_node) else { return };
        let mut lines = batch.lines().filter(|l| !l.trim().is_empty()).peekable();
        if lines.peek().is_none() {
            return;
        }
        let mut state = inner.lock();
        let writer = match state.sidecars.entry(wire_node) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match JournalWriter::create(&path) {
                Ok(w) => e.insert(w),
                Err(err) => {
                    eprintln!("telemetry: sidecar {} failed: {err}", path.display());
                    return;
                }
            },
        };
        for l in lines {
            if let Err(e) = writer.write_raw_line(l) {
                eprintln!("telemetry: sidecar write failed: {e}");
            }
        }
    }

    fn progress_line(&self, inner: &Inner, event: &JournalEvent) {
        match event {
            JournalEvent::RunStart { workload, num_gpus, epochs, initial_rate, .. } => {
                eprintln!(
                    "[fae] start workload={workload} gpus={num_gpus} epochs={epochs} rate=R({initial_rate})"
                );
            }
            JournalEvent::Step { step, mode, rate, loss, .. }
                if *step % inner.progress_every == 0 =>
            {
                let mode = mode.as_str();
                eprintln!("[fae] step {step} mode={mode} rate=R({rate}) loss={loss:.5}");
            }
            JournalEvent::Eval { step, test_loss, test_accuracy, rate, sim_seconds, .. } => {
                let rate = rate.map(|r| format!(" rate=R({r})")).unwrap_or_default();
                eprintln!(
                    "[fae] eval @{step} loss={test_loss:.5} acc={test_accuracy:.5}{rate} sim={sim_seconds:.3}s"
                );
            }
            JournalEvent::Fault { step, kind } => {
                eprintln!("[fae] fault @{step}: {kind}");
            }
            JournalEvent::Recovery { step, action, detail } => {
                eprintln!("[fae] recovery @{step}: {action} ({detail})");
            }
            JournalEvent::Alert { step, rule, message, .. } => {
                eprintln!("[fae] ALERT @{step}: {rule}: {message}");
            }
            JournalEvent::RunEnd { steps, hot_steps, cold_steps, simulated_seconds, .. } => {
                eprintln!(
                    "[fae] done: {steps} steps ({hot_steps} hot / {cold_steps} cold), {simulated_seconds:.3} simulated s"
                );
            }
            _ => {}
        }
    }

    /// Snapshot of the metrics registry (empty when disabled).
    pub fn metrics(&self) -> MetricsRegistry {
        match &self.0 {
            None => MetricsRegistry::new(),
            Some(inner) => inner.lock().metrics.clone(),
        }
    }

    /// The retained in-memory stream of this handle's own emissions, as
    /// written to its journal (empty unless
    /// [`TelemetryBuilder::retain_events`] was set).
    pub fn events(&self) -> Vec<TaggedEvent> {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => inner.lock().events.clone(),
        }
    }

    /// Paths of the per-node sidecar journals written so far (empty when
    /// no journal is attached or nothing was shipped).
    pub fn sidecar_paths(&self) -> Vec<PathBuf> {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => (inner.lock().sidecars.keys())
                .filter_map(|k| sidecar_path(inner.journal_path.as_deref(), *k))
                .collect(),
        }
    }

    /// Serializes the metrics snapshot as pretty JSON.
    pub fn metrics_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(&self.metrics().to_json())
    }

    /// Writes the metrics snapshot to `path`: Prometheus text
    /// exposition when the extension is `.prom`, pretty JSON otherwise.
    pub fn write_metrics(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let text = if path.extension().is_some_and(|e| e == "prom") {
            self.metrics().to_prometheus()
        } else {
            self.metrics_json().map_err(io::Error::other)?
        };
        std::fs::write(path, text)
    }
}

/// The sidecar journal path for shipped worker `wire_node` next to the
/// main journal: `dist.jsonl` → `dist.node0.jsonl`.
fn sidecar_path(journal: Option<&Path>, wire_node: u64) -> Option<PathBuf> {
    let journal = journal?;
    let stem = journal.file_stem()?.to_string_lossy().into_owned();
    Some(journal.with_file_name(format!("{stem}.node{wire_node}.jsonl")))
}

/// The sidecar journals on disk next to `journal` — the naming rule
/// [`Telemetry::ship_lines`] writes by, read backwards: every
/// `stem.node<k>.jsonl` in its directory, in `k` order. A sidecar is created on its node's first shipped batch, so
/// any `k` may be missing (a worker that died before its first poll).
pub fn discover_sidecars(journal: &Path) -> Vec<PathBuf> {
    let Some(stem) = journal.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let dir = match journal.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut found: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| {
            let name = e.ok()?.file_name();
            let k = name.to_str()?.strip_prefix(&stem)?.strip_prefix(".node")?;
            let k: u64 = k.strip_suffix(".jsonl")?.parse().ok()?;
            Some((k, journal.with_file_name(&name)))
        })
        .collect();
    found.sort();
    found.into_iter().map(|(_, p)| p).collect()
}

/// Configures and builds an enabled [`Telemetry`] handle.
#[derive(Debug, Default)]
pub struct TelemetryBuilder {
    journal_path: Option<PathBuf>,
    node_id: u64,
    alerts: Option<AlertEngine>,
    retain_events: bool,
    progress: bool,
    progress_every: Option<u64>,
}

impl TelemetryBuilder {
    /// Attaches a JSONL journal at `path` (created/truncated on build).
    pub fn journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Tags every emitted event with this originating node id (default
    /// 0, the single-process / coordinator convention).
    pub fn node_id(mut self, node_id: u64) -> Self {
        self.node_id = node_id;
        self
    }

    /// Attaches an alert engine; rule firings are emitted as
    /// `alert` journal events.
    pub fn alerts(mut self, engine: AlertEngine) -> Self {
        self.alerts = Some(engine);
        self
    }

    /// Keeps every emitted event in memory, retrievable via
    /// [`Telemetry::events`] — used by the trace exporter and tests.
    pub fn retain_events(mut self, yes: bool) -> Self {
        self.retain_events = yes;
        self
    }

    /// Echoes progress lines to stderr as events are emitted.
    pub fn progress(mut self, yes: bool) -> Self {
        self.progress = yes;
        self
    }

    /// Prints a progress line every `n` steps (default 100).
    pub fn progress_every(mut self, n: u64) -> Self {
        self.progress_every = Some(n.max(1));
        self
    }

    /// Builds the handle. Fails only if the journal file cannot be
    /// created.
    pub fn try_build(self) -> io::Result<Telemetry> {
        let journal = match &self.journal_path {
            None => None,
            Some(p) => Some(JournalWriter::create(p)?),
        };
        let state = State {
            metrics: MetricsRegistry::new(),
            journal,
            sidecars: BTreeMap::new(),
            alerts: self.alerts.unwrap_or_else(AlertEngine::empty),
            events: Vec::new(),
            seq: 0,
        };
        Ok(Telemetry(Some(Arc::new(Inner {
            journal_path: self.journal_path,
            node_id: self.node_id,
            retain_events: self.retain_events,
            progress: self.progress,
            progress_every: self.progress_every.unwrap_or(100),
            state: state.into(),
        }))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.counter_add(metric!("c"), 5);
        t.gauge_set(metric!("g"), 1.0);
        t.observe(metric!("h"), 1.0);
        t.emit(&JournalEvent::Fault { step: 1, kind: "k".into() });
        assert_eq!(t.metrics(), MetricsRegistry::new());
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_handle_records_and_clones_share_state() {
        let t = Telemetry::builder().retain_events(true).try_build().expect("telemetry");
        let t2 = t.clone();
        t.counter_add(metric!("c"), 2);
        t2.counter_add(metric!("c"), 3);
        t2.emit(&JournalEvent::Fault { step: 9, kind: "bitflip".into() });
        assert_eq!(t.metrics().counter("c"), 5);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn step_counters_record_through_metric() {
        // The trainer picks its step counter by mode, as here.
        let t = Telemetry::builder().try_build().expect("telemetry");
        for hot in [true, false, true] {
            let counter =
                if hot { metric!("train.steps_hot") } else { metric!("train.steps_cold") };
            t.counter_add(counter, 1);
        }
        let m = t.metrics();
        assert_eq!((m.counter("train.steps_hot"), m.counter("train.steps_cold")), (2, 1));
        assert!(m.to_prometheus().contains("\nfae_train_steps_hot 2\n"));
    }

    #[test]
    fn journal_file_receives_events() {
        let dir = std::env::temp_dir().join("fae-telemetry-lib");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("handle.jsonl");
        let t = Telemetry::builder().journal_path(&path).try_build().expect("telemetry");
        t.emit(&JournalEvent::Fault { step: 1, kind: "device-loss".into() });
        t.emit(&JournalEvent::Recovery {
            step: 1,
            action: "shrank-replicas".into(),
            detail: "2 -> 1".into(),
        });
        let events = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, JournalEvent::Fault { step: 1, kind: "device-loss".into() });
    }

    #[test]
    fn emitted_lines_carry_node_id_and_seq() {
        let dir = std::env::temp_dir().join("fae-telemetry-journal-tag");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tagged.jsonl");
        let t = Telemetry::builder().journal_path(&path).node_id(3).try_build().unwrap();
        for step in 1..=4 {
            t.emit(&JournalEvent::Fault { step, kind: "device-loss".into() });
        }
        let tagged = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tagged.len(), 4);
        for (i, t) in tagged.iter().enumerate() {
            assert_eq!(t.node_id, 3);
            assert_eq!(t.seq, i as u64);
        }
    }

    #[test]
    fn default_handle_tags_node_zero() {
        let dir = std::env::temp_dir().join("fae-telemetry-journal-tag0");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("n0.jsonl");
        let t = Telemetry::builder().journal_path(&path).try_build().unwrap();
        t.emit(&JournalEvent::Fault { step: 1, kind: "device-loss".into() });
        let tagged = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tagged[0].node_id, 0);
        assert_eq!(tagged[0].seq, 0);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the two emitters race on purpose")]
    fn concurrent_emitters_journal_in_seq_order() {
        let dir = std::env::temp_dir().join("fae-telemetry-concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two-threads.jsonl");
        let t = Telemetry::builder().journal_path(&path).retain_events(true).try_build().unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for thread in 0..2 {
                let (t, start) = (t.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for step in 0..500 {
                        let label = format!("thread{thread}");
                        t.emit(&JournalEvent::Mark { step, label, detail: String::new() });
                    }
                });
            }
        });
        let journal = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let seqs = |events: &[TaggedEvent]| events.iter().map(|e| e.seq).collect::<Vec<_>>();
        let want: Vec<u64> = (0..1000).collect();
        assert_eq!(seqs(&journal), want, "journal lines out of seq order");
        assert_eq!(seqs(&t.events()), want, "retained events out of seq order");
    }

    #[test]
    fn alert_firings_are_emitted_as_events() {
        let engine = AlertEngine::parse("heartbeat-gap>0").expect("spec");
        let t = Telemetry::builder().retain_events(true).alerts(engine).try_build().unwrap();
        t.emit(&JournalEvent::NodeLost { step: 4, node: 1, suspicion: 2 });
        let events = t.events();
        assert_eq!(events.len(), 2, "the loss plus the alert it fired");
        assert!(
            matches!(&events[1].event, JournalEvent::Alert { rule, .. } if rule == "heartbeat-gap")
        );
        // The alert is an emission of its own: the next seq.
        assert_eq!((events[0].seq, events[1].seq), (0, 1));
    }

    #[test]
    fn shipped_lines_land_in_sidecars() {
        let dir = std::env::temp_dir().join("fae-telemetry-ship");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dist.jsonl");
        let t = Telemetry::builder().journal_path(&path).try_build().expect("telemetry");
        let worker_line = TaggedEvent {
            node_id: 2,
            seq: 0,
            event: JournalEvent::Mark { step: 1, label: "join".into(), detail: "".into() },
        }
        .to_line();
        t.ship_lines(1, &format!("{worker_line}\n"));
        let sidecars = t.sidecar_paths();
        assert_eq!(sidecars.len(), 1);
        assert!(sidecars[0].ends_with("dist.node1.jsonl"));
        let shipped = read_tagged_journal(&sidecars[0]).unwrap();
        assert_eq!(shipped.len(), 1);
        assert_eq!(shipped[0].node_id, 2);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecars[0]).ok();
    }

    #[test]
    fn sidecars_are_discovered_across_gaps_in_node_order() {
        let dir = std::env::temp_dir().join("fae-telemetry-discover");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("j.jsonl");
        assert!(discover_sidecars(&journal).is_empty());
        // Node 0 died before its first poll: only node 1 (and, later, a
        // two-digit node) ever shipped. Near-miss names are not sidecars.
        for name in
            ["j.node10.jsonl", "j.node1.jsonl", "j.nodeX.jsonl", "jj.node2.jsonl", "j.node3"]
        {
            std::fs::write(dir.join(name), "").unwrap();
        }
        let found = discover_sidecars(&journal);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(found, [dir.join("j.node1.jsonl"), dir.join("j.node10.jsonl")]);
    }

    #[test]
    fn debug_formats_do_not_leak_internals() {
        assert_eq!(format!("{:?}", Telemetry::disabled()), "Telemetry(disabled)");
        let t = Telemetry::builder().try_build().expect("telemetry");
        assert_eq!(format!("{t:?}"), "Telemetry(enabled, journal: false)");
    }
}
