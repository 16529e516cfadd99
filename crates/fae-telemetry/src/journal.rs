//! The per-step event journal: one JSON object per line, written
//! incrementally and flushed after every event so a crashed run leaves a
//! readable prefix (crash-safe by construction — a torn final line is
//! skipped by the reader, everything before it is intact).
//!
//! The schema is deliberately flat and stable — every event carries a
//! `"type"` tag, and every simulated-time charge carries a `"phases"`
//! object whose values sum (across the whole journal) to the run's
//! `TrainReport::simulated_seconds`. `fae report` and the Chrome trace
//! exporter both consume this stream.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use fae_sysmodel::{Phase, Timeline};
use serde::{Deserialize, Serialize};
use serde_json::{Error, Map, Value};

/// Per-phase simulated seconds of one charge, in `Phase::ALL` order.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PhaseSeconds(pub [f64; Phase::COUNT]);

impl PhaseSeconds {
    /// The difference `after − before`, phase by phase.
    pub fn delta(before: &Timeline, after: &Timeline) -> Self {
        let mut out = [0.0; Phase::COUNT];
        for (slot, phase) in out.iter_mut().zip(Phase::ALL) {
            *slot = after.get(phase) - before.get(phase);
        }
        PhaseSeconds(out)
    }

    /// Total seconds across phases.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Seconds charged to `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.0[phase.index()]
    }

    /// Adds this charge onto running per-phase `totals`.
    pub fn add_to(&self, totals: &mut [f64; Phase::COUNT]) {
        for (slot, secs) in totals.iter_mut().zip(self.0) {
            *slot += secs;
        }
    }
}

// On the wire: an object of the non-zero phases by name (`{}` for none).
impl Serialize for PhaseSeconds {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (phase, secs) in Phase::ALL.iter().zip(self.0) {
            if secs != 0.0 {
                m.insert(phase.name().to_string(), secs.to_value());
            }
        }
        Value::Object(m)
    }
}

impl Deserialize for PhaseSeconds {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut out = [0.0; Phase::COUNT];
        for (k, secs) in v.as_object_for("PhaseSeconds")?.iter() {
            let phase = Phase::ALL
                .iter()
                .find(|p| p.name() == k)
                .ok_or_else(|| Error::msg(format!("unknown phase '{k}'")))?;
            out[phase.index()] = f64::from_value(secs)?;
        }
        Ok(PhaseSeconds(out))
    }
}

/// Whether a training step ran hot (pure-GPU) or cold (hybrid CPU+GPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepMode {
    /// Pure-GPU execution against the replicated hot bags.
    Hot,
    /// Hybrid execution against the CPU master tables.
    Cold,
}

impl StepMode {
    /// The wire (and display) name: `hot` or `cold`.
    pub fn as_str(self) -> &'static str {
        match self {
            StepMode::Hot => "hot",
            StepMode::Cold => "cold",
        }
    }
}

impl Serialize for StepMode {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().into())
    }
}

impl Deserialize for StepMode {
    fn from_value(v: &Value) -> Result<Self, Error> {
        [StepMode::Hot, StepMode::Cold]
            .into_iter()
            .find(|m| v.as_str() == Some(m.as_str()))
            .ok_or_else(|| Error::msg("expected \"hot\" or \"cold\""))
    }
}

/// One journal line. Every variant that charges simulated time carries
/// its per-phase breakdown; summing `phases` over all events reproduces
/// the run's `Timeline` exactly.
///
/// This enum is the journal's schema: the codec is derived from it, so
/// a field's name and position here are its name and position on the
/// wire. Add a field in this one place, last in its variant, and make
/// it an `Option` (absent ⇒ `None`) if older journals must still parse.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// Run header: emitted once, first.
    RunStart {
        /// Workload name.
        workload: String,
        /// Training seed.
        seed: u64,
        /// Simulated GPU count at launch.
        num_gpus: usize,
        /// Epochs requested.
        epochs: usize,
        /// Global mini-batch size.
        minibatch_size: usize,
        /// Initial shuffle-scheduler rate (percent).
        initial_rate: u32,
        /// Worker threads in the parallel execution engine (1 = serial;
        /// absent in pre-engine journals, parsed as 1).
        workers: usize,
        /// Lookahead-oracle window in batches (0 = disabled; absent in
        /// older journals, parsed as 0).
        lookahead: u64,
        /// Stale-skip threshold in weight-delta units (0 = disabled;
        /// absent in older journals, parsed as 0).
        stale_skip: f64,
    },
    /// One training step.
    Step {
        /// Global step index (1-based, after the step completes).
        step: u64,
        /// Hot or cold execution.
        mode: StepMode,
        /// Scheduler rate in effect (percent).
        rate: u32,
        /// This batch's training BCE loss.
        loss: f64,
        /// Simulated seconds charged by this step, per phase.
        phases: PhaseSeconds,
    },
    /// A hot↔cold embedding synchronisation (or the initial replication).
    Sync {
        /// Step count when the sync happened.
        step: u64,
        /// What the sync was for: `initial`, `refresh`, `write-back`,
        /// `aborted-replication` or `retry`.
        direction: String,
        /// Bytes moved over PCIe per replica.
        bytes: u64,
        /// Simulated seconds charged, per phase.
        phases: PhaseSeconds,
    },
    /// A non-step, non-sync simulated-time charge (re-shard after device
    /// loss, retry backoff, checkpoint I/O stall).
    Charge {
        /// Step count when the charge happened.
        step: u64,
        /// What was charged (`reshard`, `sync-backoff`, `checkpoint-io`).
        label: String,
        /// Simulated seconds charged, per phase.
        phases: PhaseSeconds,
    },
    /// An end-of-round evaluation.
    Eval {
        /// Step count at evaluation.
        step: u64,
        /// Test BCE loss.
        test_loss: f64,
        /// Test accuracy.
        test_accuracy: f64,
        /// Scheduler rate after adaptation (percent), if FAE.
        rate: Option<u32>,
        /// Cumulative hot steps at this point.
        hot_steps: u64,
        /// Cumulative cold steps at this point.
        cold_steps: u64,
        /// Cumulative simulated seconds at this point.
        sim_seconds: f64,
    },
    /// An injected fault fired.
    Fault {
        /// Step at which it fired.
        step: u64,
        /// Fault kind (spec-string form, e.g. `device-loss`).
        kind: String,
    },
    /// A recovery action was taken (including artifact rebuilds).
    Recovery {
        /// Step at which it was taken (0 for load-time recoveries).
        step: u64,
        /// Action label (e.g. `shrank-replicas`, `rebuilt-artifacts`).
        action: String,
        /// Human-readable detail (rebuild reason, retry counts, ...).
        detail: String,
    },
    /// A worker node joined (or rejoined) the distributed training group.
    NodeJoin {
        /// Step at which the coordinator admitted it.
        step: u64,
        /// The node's id.
        node: u64,
        /// Membership generation after the join.
        epoch: u64,
        /// Bytes of state shipped in the welcome (dense params + hot rows).
        state_bytes: u64,
    },
    /// A worker node was declared dead by the failure detector.
    NodeLost {
        /// Step at which it was declared dead.
        step: u64,
        /// The node's id.
        node: u64,
        /// Consecutive missed deadlines that crossed the suspicion
        /// threshold (0 = hard disconnect).
        suspicion: u64,
    },
    /// The coordinator re-assigned a lost node's shard and charged the
    /// reshard to the timeline.
    Reshard {
        /// Step at which the reshard happened.
        step: u64,
        /// The lost node whose shard moved.
        node: u64,
        /// Live workers after the reshard.
        live: u64,
        /// Simulated seconds charged, per phase.
        phases: PhaseSeconds,
    },
    /// Run trailer: totals, emitted once, last.
    RunEnd {
        /// Total steps executed.
        steps: u64,
        /// Steps run hot.
        hot_steps: u64,
        /// Steps run cold.
        cold_steps: u64,
        /// Hot↔cold transitions.
        transitions: u64,
        /// Total simulated seconds (`Timeline::total`).
        simulated_seconds: f64,
        /// Final test accuracy.
        final_accuracy: f64,
        /// Final scheduler rate, if FAE.
        final_rate: Option<u32>,
        /// Whether the run was interrupted (`halt_after_steps`).
        interrupted: bool,
    },
    /// Serve-run header (`fae serve`): emitted once, first.
    ServeStart {
        /// Workload name.
        workload: String,
        /// Serving seed (model init fallback + closed-loop input draws).
        seed: u64,
        /// Serving worker pool size.
        workers: usize,
        /// Micro-batcher close threshold (requests).
        max_batch: usize,
        /// Micro-batcher deadline, microseconds.
        max_delay_us: u64,
        /// Bounded-queue admission cap (requests queued or in flight).
        queue_cap: usize,
    },
    /// One dispatched inference micro-batch.
    ServeBatch {
        /// Batch index (dispatch order, 1-based).
        batch: u64,
        /// Worker that executed it.
        worker: usize,
        /// Requests in the batch.
        size: usize,
        /// Simulated dispatch instant, seconds from serve start.
        start_s: f64,
        /// Embedding lookups served GPU-side (pinned + dynamic hits).
        hits: u64,
        /// Embedding lookups fetched from the CPU master copy.
        misses: u64,
        /// Simulated seconds charged by this batch, per phase.
        phases: PhaseSeconds,
    },
    /// A node-local informational marker (no simulated-time charge):
    /// worker lifecycle points (`join`, `task`, `crash-inject`, ...)
    /// shipped to the coordinator by the observability plane.
    Mark {
        /// Step count the marker is anchored to (coordinator clock).
        step: u64,
        /// What happened (`join`, `task`, `crash-inject`, `rejoin`).
        label: String,
        /// Free-form detail (epoch, shard, batch counts, ...).
        detail: String,
    },
    /// An alert rule fired. Alert firings are journal events themselves,
    /// so merged journals and traces carry the SLO story inline.
    Alert {
        /// Step at which the rule fired.
        step: u64,
        /// Rule id (`heartbeat-gap`, `reshard-storm`, `hit-rate`,
        /// `steps-per-sec`).
        rule: String,
        /// Human-readable firing message.
        message: String,
        /// The observed value that crossed the threshold.
        value: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// Serve-run trailer: totals, emitted once, last.
    ServeEnd {
        /// Requests completed.
        completed: u64,
        /// Requests rejected at the bounded queue.
        rejected: u64,
        /// Median request latency, milliseconds.
        p50_ms: f64,
        /// 95th-percentile request latency, milliseconds.
        p95_ms: f64,
        /// 99th-percentile request latency, milliseconds.
        p99_ms: f64,
        /// Completed requests per simulated second.
        throughput_rps: f64,
        /// Fraction of embedding lookups served GPU-side.
        hit_rate: f64,
        /// Simulated makespan of the serve run, seconds.
        simulated_seconds: f64,
    },
}

/// Pairs every wire `"type"` tag with its variant, once:
/// [`JournalEvent::type_tag`] is a match over these rows and the codec
/// looks the derived variant object's key up in them.
macro_rules! event_tags {
    ($($tag:literal => $variant:ident,)*) => {
        const EVENT_TAGS: &[(&str, &str)] = &[$(($tag, stringify!($variant))),*];

        impl JournalEvent {
            /// The `"type"` tag this event serializes under.
            pub fn type_tag(&self) -> &'static str {
                match self {
                    $(JournalEvent::$variant { .. } => $tag,)*
                }
            }
        }
    };
}

event_tags! {
    "run_start" => RunStart,
    "step" => Step,
    "sync" => Sync,
    "charge" => Charge,
    "eval" => Eval,
    "fault" => Fault,
    "recovery" => Recovery,
    "node_join" => NodeJoin,
    "node_lost" => NodeLost,
    "reshard" => Reshard,
    "run_end" => RunEnd,
    "serve_start" => ServeStart,
    "serve_batch" => ServeBatch,
    "mark" => Mark,
    "alert" => Alert,
    "serve_end" => ServeEnd,
}

impl JournalEvent {
    /// The per-phase simulated charge this event carries, if any.
    pub fn phases(&self) -> Option<&PhaseSeconds> {
        match self {
            JournalEvent::Step { phases, .. }
            | JournalEvent::Sync { phases, .. }
            | JournalEvent::Charge { phases, .. }
            | JournalEvent::Reshard { phases, .. }
            | JournalEvent::ServeBatch { phases, .. } => Some(phases),
            _ => None,
        }
    }

    /// The step this event is anchored to on the coordinator clock.
    pub fn step(&self) -> u64 {
        match self {
            JournalEvent::RunStart { .. } | JournalEvent::ServeStart { .. } => 0,
            JournalEvent::Step { step, .. }
            | JournalEvent::Sync { step, .. }
            | JournalEvent::Charge { step, .. }
            | JournalEvent::Eval { step, .. }
            | JournalEvent::Fault { step, .. }
            | JournalEvent::Recovery { step, .. }
            | JournalEvent::NodeJoin { step, .. }
            | JournalEvent::NodeLost { step, .. }
            | JournalEvent::Reshard { step, .. }
            | JournalEvent::Mark { step, .. }
            | JournalEvent::Alert { step, .. } => *step,
            JournalEvent::RunEnd { steps, .. } => *steps,
            JournalEvent::ServeBatch { batch, .. } => *batch,
            JournalEvent::ServeEnd { .. } => u64::MAX,
        }
    }

    /// Serializes to a flat JSON object: the `"type"` tag, then the
    /// variant's fields in declaration order.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("type".into(), Value::String(self.type_tag().into()));
        // The derive renders `{"Variant": {fields}}`; the fields move.
        if let Value::Object(outer) = self.to_value() {
            if let Some((_, Value::Object(fields))) = outer.into_iter().next() {
                for (key, value) in fields {
                    m.insert(key, value);
                }
            }
        }
        Value::Object(m)
    }

    /// Parses one journal line's value tree. Keys the variant does not
    /// declare (the origin tag among them) are ignored; an integer that
    /// does not fit its field is an error, not a wrap.
    pub fn from_json(v: Value) -> Result<Self, String> {
        let missing = "journal event: missing \"type\"";
        let Value::Object(mut fields) = v else { return Err(missing.into()) };
        let tag = fields.get("type").and_then(Value::as_str).ok_or(missing)?;
        let (tag, variant) = *EVENT_TAGS
            .iter()
            .find(|(t, _)| *t == tag)
            .ok_or_else(|| format!("unknown journal event type '{tag}'"))?;
        if tag == "run_start" {
            // Pre-engine journals have no `workers` (a serial run);
            // pre-oracle ones have neither of the others (both off).
            let defaults = [
                ("workers", 1u64.to_value()),
                ("lookahead", 0u64.to_value()),
                ("stale_skip", 0f64.to_value()),
            ];
            for (key, default) in defaults {
                if fields.get(key).is_none() {
                    fields.insert(key.into(), default);
                }
            }
        }
        let mut outer = Map::new();
        outer.insert(variant.into(), Value::Object(fields));
        JournalEvent::from_value(&Value::Object(outer)).map_err(|e| format!("{tag}: {e}"))
    }
}

/// One journal event with its origin coordinates: which node emitted it
/// (`node_id`) and where it sits in that node's emission order (`seq`).
///
/// The origin tag is distinct from the *subject* `node` field of
/// membership events (`node_join`, `node_lost`, `reshard`): those name
/// the wire node the event is about; `node_id` names the journal that
/// produced the line. Convention: the coordinator (and any
/// single-process run) is `node_id` 0, wire worker `k` is `node_id`
/// `k + 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedEvent {
    /// Originating journal (0 = coordinator / single-process).
    pub node_id: u64,
    /// Position in the originating journal's emission order.
    pub seq: u64,
    /// The event itself.
    pub event: JournalEvent,
}

impl TaggedEvent {
    /// The one-line JSONL form the journal stores (no trailing newline):
    /// the event's own object plus `node_id` and `seq` keys.
    pub fn to_line(&self) -> String {
        let mut v = self.event.to_json();
        if let Value::Object(m) = &mut v {
            m.insert("node_id".into(), serde_json::to_value(&self.node_id));
            m.insert("seq".into(), serde_json::to_value(&self.seq));
        }
        serde_json::to_string(&v).unwrap_or_default()
    }

    /// Parses a tagged line's value tree. Legacy lines without the tag
    /// fall back to `node_id` 0 and `seq = fallback_seq`, so pre-plane
    /// journals keep parsing.
    pub fn from_json(v: Value, fallback_seq: u64) -> Result<Self, String> {
        let node_id = v.get("node_id").and_then(Value::as_u64).unwrap_or(0);
        let seq = v.get("seq").and_then(Value::as_u64).unwrap_or(fallback_seq);
        Ok(TaggedEvent { node_id, seq, event: JournalEvent::from_json(v)? })
    }

    /// `events` as node `node_id` would have emitted them: `seq` 0, 1, …
    #[cfg(test)]
    pub(crate) fn stream(node_id: u64, events: Vec<JournalEvent>) -> Vec<TaggedEvent> {
        (0..).zip(events).map(|(seq, event)| TaggedEvent { node_id, seq, event }).collect()
    }
}

/// An incremental JSONL writer. Every line it is handed is appended and
/// flushed, so the file on disk is always a valid prefix of the journal
/// — a crash costs at most the line being written. Lines arrive already
/// tagged at their origin ([`TaggedEvent::to_line`]): the coordinator
/// persists its own events and shipped worker batches the same way.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Creates (truncates) the journal file at `path`, with any missing
    /// parent directories.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self { out: BufWriter::new(File::create(path)?) })
    }

    /// Appends one JSONL line verbatim and flushes it to disk.
    pub fn write_raw_line(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }
}

/// Parses a journal text (JSONL). Blank lines are skipped; a torn final
/// line (crash mid-write) is tolerated and dropped, but a malformed line
/// anywhere else is an error. Legacy untagged lines come back as node 0
/// with `seq` equal to their position in the file, so pre-plane journals
/// merge like a single-node stream.
pub fn parse_tagged_journal(text: &str) -> Result<Vec<TaggedEvent>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut events = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) if i + 1 == lines.len() => {
                eprintln!("journal: dropping torn final line: {e}");
                break;
            }
            Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
        };
        events.push(
            TaggedEvent::from_json(value, events.len() as u64)
                .map_err(|e| format!("journal line {}: {e}", i + 1))?,
        );
    }
    Ok(events)
}

/// Reads and parses a journal file.
pub fn read_tagged_journal(path: &Path) -> Result<Vec<TaggedEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_tagged_journal(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        let mut t0 = Timeline::new();
        let mut t1 = Timeline::new();
        t1.add(Phase::DenseForward, 0.25);
        t1.add(Phase::AllReduce, 0.5);
        vec![
            JournalEvent::RunStart {
                workload: "tiny-test".into(),
                seed: 7,
                num_gpus: 4,
                epochs: 1,
                minibatch_size: 64,
                initial_rate: 50,
                workers: 2,
                lookahead: 0,
                stale_skip: 0.0,
            },
            JournalEvent::Step {
                step: 1,
                mode: StepMode::Cold,
                rate: 50,
                loss: 0.693,
                phases: PhaseSeconds::delta(&t0, &t1),
            },
            JournalEvent::Sync {
                step: 1,
                direction: "refresh".into(),
                bytes: 1 << 20,
                phases: {
                    t0 = t1.clone();
                    t1.add(Phase::EmbedSync, 0.125);
                    PhaseSeconds::delta(&t0, &t1)
                },
            },
            JournalEvent::Charge {
                step: 2,
                label: "reshard".into(),
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0625]),
            },
            JournalEvent::Eval {
                step: 2,
                test_loss: 0.69,
                test_accuracy: 0.55,
                rate: Some(25),
                hot_steps: 1,
                cold_steps: 1,
                sim_seconds: 0.9375,
            },
            JournalEvent::Fault { step: 2, kind: "device-loss".into() },
            JournalEvent::Recovery {
                step: 2,
                action: "shrank-replicas".into(),
                detail: "4 -> 3".into(),
            },
            JournalEvent::NodeLost { step: 2, node: 1, suspicion: 3 },
            JournalEvent::Reshard {
                step: 2,
                node: 1,
                live: 1,
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.03125]),
            },
            JournalEvent::NodeJoin { step: 2, node: 1, epoch: 2, state_bytes: 1 << 16 },
            JournalEvent::RunEnd {
                steps: 2,
                hot_steps: 1,
                cold_steps: 1,
                transitions: 2,
                simulated_seconds: 0.9375,
                final_accuracy: 0.55,
                final_rate: Some(25),
                interrupted: false,
            },
            JournalEvent::ServeStart {
                workload: "tiny-test".into(),
                seed: 7,
                workers: 2,
                max_batch: 32,
                max_delay_us: 2000,
                queue_cap: 1024,
            },
            JournalEvent::ServeBatch {
                batch: 1,
                worker: 0,
                size: 32,
                start_s: 0.002,
                hits: 120,
                misses: 8,
                phases: PhaseSeconds([1e-4, 2e-4, 0.0, 0.0, 5e-5, 0.0, 0.0, 5e-5]),
            },
            JournalEvent::ServeEnd {
                completed: 32,
                rejected: 0,
                p50_ms: 1.5,
                p95_ms: 2.75,
                p99_ms: 3.0,
                throughput_rps: 8000.0,
                hit_rate: 0.9375,
                simulated_seconds: 0.004,
            },
            JournalEvent::Mark {
                step: 3,
                label: "task".into(),
                detail: "shard=1 batches=8".into(),
            },
            JournalEvent::Alert {
                step: 2,
                rule: "heartbeat-gap".into(),
                message: "node 1 lost after 3 missed deadlines".into(),
                value: 3.0,
                threshold: 2.0,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for e in sample_events() {
            let back = JournalEvent::from_json(e.to_json()).expect("round trip");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let dir = std::env::temp_dir().join("fae-telemetry-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let events = TaggedEvent::stream(0, sample_events());
        let mut w = JournalWriter::create(&path).unwrap();
        for e in &events {
            w.write_raw_line(&e.to_line()).unwrap();
        }
        let back = read_tagged_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, events);
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let events = sample_events();
        let mut text = String::new();
        for e in &events {
            text.push_str(&serde_json::to_string(&e.to_json()).unwrap());
            text.push('\n');
        }
        text.push_str("{\"type\":\"step\",\"ste"); // torn mid-write
        let back = parse_tagged_journal(&text).expect("torn tail tolerated");
        assert_eq!(back, TaggedEvent::stream(0, events));
    }

    #[test]
    fn malformed_interior_line_is_an_error() {
        let text = "not json\n{\"type\":\"fault\",\"step\":1,\"kind\":\"device-loss\"}\n";
        assert!(parse_tagged_journal(text).is_err());
    }

    #[test]
    fn phase_delta_and_total() {
        let mut a = Timeline::new();
        a.add(Phase::Optimizer, 1.0);
        let mut b = a.clone();
        b.add(Phase::Optimizer, 0.5);
        b.add(Phase::Transfer, 0.25);
        let d = PhaseSeconds::delta(&a, &b);
        assert_eq!(d.get(Phase::Optimizer), 0.5);
        assert_eq!(d.get(Phase::Transfer), 0.25);
        assert_eq!(d.get(Phase::Backward), 0.0);
        assert!((d.total() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn pre_engine_run_start_parses_as_one_worker() {
        let line = "{\"type\":\"run_start\",\"workload\":\"w\",\"seed\":1,\"num_gpus\":2,\
                    \"epochs\":1,\"minibatch_size\":64,\"initial_rate\":50}";
        let v: Value = serde_json::from_str(line).unwrap();
        match JournalEvent::from_json(v).unwrap() {
            JournalEvent::RunStart { workers, .. } => assert_eq!(workers, 1),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn unknown_event_type_is_rejected() {
        let v: Value = serde_json::from_str("{\"type\":\"mystery\"}").unwrap();
        assert!(JournalEvent::from_json(v).is_err());
    }

    #[test]
    fn legacy_lines_without_a_tag_parse_as_node_zero_in_file_order() {
        let text = "{\"type\":\"fault\",\"step\":1,\"kind\":\"device-loss\"}\n\
                    {\"type\":\"recovery\",\"step\":1,\"action\":\"a\",\"detail\":\"d\"}\n";
        let tagged = parse_tagged_journal(text).unwrap();
        assert_eq!(tagged.len(), 2);
        assert_eq!((tagged[0].node_id, tagged[0].seq), (0, 0));
        assert_eq!((tagged[1].node_id, tagged[1].seq), (0, 1));
    }

    #[test]
    fn tagged_round_trip_preserves_origin() {
        let t = TaggedEvent {
            node_id: 2,
            seq: 17,
            event: JournalEvent::Mark { step: 5, label: "task".into(), detail: "x".into() },
        };
        let v: Value = serde_json::from_str(&t.to_line()).unwrap();
        let back = TaggedEvent::from_json(v, 0).unwrap();
        assert_eq!(back, t);
    }
}
