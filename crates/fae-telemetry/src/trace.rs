//! Chrome trace-event export (Perfetto / `chrome://tracing` compatible).
//!
//! The exporter renders the **simulated** `Timeline` of a recorded run
//! from its journal: each journal event that charges simulated time
//! becomes a run of `"X"` (complete) slices laid out along a single
//! monotonic simulated-time cursor starting at 0 µs. Tracks:
//!
//! * `cpu-resident` — CPU-side embedding work (cold-mode embed-forward),
//! * one `gpu<i>` track per simulated device (data-parallel replicas do
//!   identical work, so compute slices appear on every device track),
//! * `communication` — PCIe transfer, all-reduce, embedding sync,
//! * `framework` — framework overhead, retry backoff and other stalls.
//!
//! Because every coordinate comes from simulated seconds (never the host
//! clock) and pids/tids are fixed constants, two same-seed runs export
//! byte-identical traces — the determinism golden test relies on this.

use fae_sysmodel::Phase;
use serde_json::{Map, Value};

use crate::journal::{JournalEvent, PhaseSeconds, StepMode, TaggedEvent};

/// The fixed pid under which all tracks are emitted. The merged
/// cross-node exporter uses one pid per originating node —
/// `node_id + 1`, so the coordinator keeps this pid — which Perfetto
/// renders as one track group per node.
pub const TRACE_PID: u64 = 1;

/// Tid of the CPU-resident track. Device tracks occupy
/// `TID_DEVICE0 .. TID_DEVICE0 + num_gpus`, then communication, then
/// framework.
pub const TID_CPU_RESIDENT: u64 = 1;

/// Tid of the first device track.
pub const TID_DEVICE0: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Track {
    CpuResident,
    Devices,
    Comm,
    Framework,
}

fn track_for(phase: Phase, mode: Option<StepMode>) -> Track {
    match phase {
        Phase::Transfer | Phase::AllReduce | Phase::EmbedSync => Track::Comm,
        Phase::Framework => Track::Framework,
        // Embedding forward runs CPU-side except in hot (pure-GPU) steps.
        Phase::EmbedForward => match mode {
            Some(StepMode::Hot) => Track::Devices,
            _ => Track::CpuResident,
        },
        _ => Track::Devices,
    }
}

fn meta_event(pid: u64, tid: u64, name: &str, arg: &str) -> Value {
    let mut args = Map::new();
    args.insert("name".into(), Value::String(arg.into()));
    let mut m = Map::new();
    m.insert("ph".into(), Value::String("M".into()));
    m.insert("pid".into(), serde_json::to_value(&pid));
    m.insert("tid".into(), serde_json::to_value(&tid));
    m.insert("name".into(), Value::String(name.into()));
    m.insert("args".into(), Value::Object(args));
    Value::Object(m)
}

fn slice_event(tid: u64, name: &str, cat: &str, ts_us: f64, dur_us: f64, args: Map) -> Value {
    let mut m = Map::new();
    m.insert("ph".into(), Value::String("X".into()));
    m.insert("pid".into(), serde_json::to_value(&TRACE_PID));
    m.insert("tid".into(), serde_json::to_value(&tid));
    m.insert("name".into(), Value::String(name.into()));
    m.insert("cat".into(), Value::String(cat.into()));
    m.insert("ts".into(), serde_json::to_value(&ts_us));
    m.insert("dur".into(), serde_json::to_value(&dur_us));
    m.insert("args".into(), Value::Object(args));
    Value::Object(m)
}

fn instant_event(pid: u64, tid: u64, name: &str, cat: &str, ts_us: f64, args: Map) -> Value {
    let mut m = Map::new();
    m.insert("ph".into(), Value::String("i".into()));
    m.insert("pid".into(), serde_json::to_value(&pid));
    m.insert("tid".into(), serde_json::to_value(&tid));
    m.insert("name".into(), Value::String(name.into()));
    m.insert("cat".into(), Value::String(cat.into()));
    m.insert("ts".into(), serde_json::to_value(&ts_us));
    m.insert("s".into(), Value::String("p".into()));
    m.insert("args".into(), Value::Object(args));
    Value::Object(m)
}

/// The `args` a slice or instant of `event` carries: the journal fields
/// worth a tooltip, picked by name out of the event's own JSON object
/// (what the track, the name or the coordinates already say is left
/// out). Values and order are the journal's, never re-encoded here.
fn args_of(event: &JournalEvent) -> Map {
    let shown: &[&str] = match event {
        JournalEvent::Step { .. } => &["step", "rate"],
        JournalEvent::Sync { .. } => &["step", "direction", "bytes"],
        JournalEvent::Charge { .. } => &["step", "label"],
        JournalEvent::Fault { .. } => &["step", "kind"],
        JournalEvent::Mark { .. } => &["step", "detail"],
        JournalEvent::Alert { .. } => &["step", "message", "value", "threshold"],
        JournalEvent::NodeJoin { .. } => &["step", "epoch", "state_bytes"],
        JournalEvent::NodeLost { .. } => &["step", "suspicion"],
        JournalEvent::Reshard { .. } => &["step", "live"],
        JournalEvent::ServeBatch { .. } => &["batch", "size", "hits", "misses"],
        _ => return Map::new(),
    };
    let fields = event.to_json();
    let mut args = Map::new();
    for key in shown {
        if let Some(v) = fields.get(key) {
            args.insert((*key).into(), v.clone());
        }
    }
    args
}

/// Lays an event's charged phases end to end from `start_us`, in
/// `Phase::ALL` order, so slices never overlap within a track: calls
/// `slice(phase, ts_us, dur_us)` for each and returns where the last
/// one ends.
fn lay_phases(phases: &PhaseSeconds, start_us: f64, mut slice: impl FnMut(Phase, f64, f64)) -> f64 {
    let mut at_us = start_us;
    for (phase, secs) in Phase::ALL.iter().zip(phases.0) {
        if secs <= 0.0 {
            continue;
        }
        let dur_us = secs * 1e6;
        slice(*phase, at_us, dur_us);
        at_us += dur_us;
    }
    at_us
}

fn trace_document(events: Vec<Value>) -> Result<String, serde_json::Error> {
    let mut root = Map::new();
    root.insert("traceEvents".into(), Value::Array(events));
    root.insert("displayTimeUnit".into(), Value::String("ms".into()));
    serde_json::to_string(&Value::Object(root))
}

/// Renders a journal as a Chrome trace-event JSON document.
///
/// The output is a complete `{"traceEvents": [...]}` object; write it to
/// a file and load it in Perfetto's JSON importer or `chrome://tracing`.
/// Origin tags are not consulted: every event lands on the one simulated
/// timeline (see [`merged_chrome_trace`] for one track group per node).
/// Errs only if the assembled in-memory `Value` fails to serialize.
pub fn chrome_trace(events: &[TaggedEvent]) -> Result<String, serde_json::Error> {
    trace_document(trace_events(events.iter().map(|t| &t.event)))
}

/// The event array of [`chrome_trace`], reused by the merged exporter
/// for the coordinator's (pid [`TRACE_PID`]) track group.
fn trace_events<'a>(events: impl Iterator<Item = &'a JournalEvent> + Clone) -> Vec<Value> {
    let (num_gpus, workers) = events
        .clone()
        .find_map(|e| match e {
            JournalEvent::RunStart { num_gpus, workers, .. } => {
                Some(((*num_gpus).max(1), (*workers).max(1)))
            }
            _ => None,
        })
        .unwrap_or((1, 1));
    let tid_comm = TID_DEVICE0 + num_gpus as u64;
    let tid_framework = tid_comm + 1;
    // Worker lanes sit past the framework track; only emitted when the
    // run used the parallel engine with more than one worker.
    let tid_worker0 = tid_framework + 1;
    // Serving worker lanes sit past the training worker lanes; only
    // emitted when the journal carries serve events.
    let serve_workers = events
        .clone()
        .find_map(|e| match e {
            JournalEvent::ServeStart { workers, .. } => Some((*workers).max(1)),
            _ => None,
        })
        .unwrap_or(0);
    let tid_serve0 = tid_worker0 + if workers > 1 { workers as u64 } else { 0 };
    // Per-node lanes for distributed runs: one track per worker node id
    // seen in membership events, past the serving lanes.
    let nodes = events
        .clone()
        .filter_map(|e| match e {
            JournalEvent::NodeJoin { node, .. }
            | JournalEvent::NodeLost { node, .. }
            | JournalEvent::Reshard { node, .. } => Some(*node + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let tid_node0 = tid_serve0 + serve_workers as u64;

    let mut out = vec![meta_event(TRACE_PID, 0, "process_name", "fae-simulated-timeline")];
    let mut thread =
        |tid: u64, name: &str| out.push(meta_event(TRACE_PID, tid, "thread_name", name));
    thread(TID_CPU_RESIDENT, "cpu-resident");
    for g in 0..num_gpus {
        thread(TID_DEVICE0 + g as u64, &format!("gpu{g}"));
    }
    thread(tid_comm, "communication");
    thread(tid_framework, "framework");
    if workers > 1 {
        for w in 0..workers {
            thread(tid_worker0 + w as u64, &format!("worker{w}"));
        }
    }
    for w in 0..serve_workers {
        thread(tid_serve0 + w as u64, &format!("serve-worker{w}"));
    }
    for k in 0..nodes {
        thread(tid_node0 + k, &format!("node{k}"));
    }

    // A single simulated-time cursor: each charging event occupies the
    // window [cursor, cursor + total).
    let mut cursor_us = 0.0f64;
    for event in events {
        let args = args_of(event);
        // Events that charge nothing are zero-duration instants at the
        // cursor: faults, marks and alerts on the framework track (the
        // merged exporter re-renders shipped marks on their own node's
        // track group instead), membership changes on the node's lane.
        let instant = match event {
            JournalEvent::Fault { kind, .. } => {
                Some((tid_framework, format!("fault:{kind}"), "fault"))
            }
            JournalEvent::Mark { label, .. } => {
                Some((tid_framework, format!("mark:{label}"), "mark"))
            }
            JournalEvent::Alert { rule, .. } => {
                Some((tid_framework, format!("alert:{rule}"), "alert"))
            }
            JournalEvent::NodeJoin { node, .. } => {
                Some((tid_node0 + node, format!("node-join:{node}"), "membership"))
            }
            JournalEvent::NodeLost { node, .. } => {
                Some((tid_node0 + node, format!("node-lost:{node}"), "membership"))
            }
            _ => None,
        };
        if let Some((tid, name, cat)) = instant {
            out.push(instant_event(TRACE_PID, tid, &name, cat, cursor_us, args));
            continue;
        }
        let (phases, mode, cat) = match event {
            JournalEvent::Step { mode: StepMode::Hot, phases, .. } => {
                (phases, Some(StepMode::Hot), "step-hot")
            }
            JournalEvent::Step { mode: StepMode::Cold, phases, .. } => {
                (phases, Some(StepMode::Cold), "step-cold")
            }
            JournalEvent::Sync { phases, .. } => (phases, None, "sync"),
            JournalEvent::Charge { phases, .. } => (phases, None, "charge"),
            JournalEvent::Reshard { node, phases, .. } => {
                // The reshard charge runs on the lost node's lane so
                // the gap it tore into training is visible per node.
                let tid = tid_node0 + node;
                cursor_us = lay_phases(phases, cursor_us, |phase, ts, dur| {
                    let name = phase.to_string();
                    out.push(slice_event(tid, &name, "reshard", ts, dur, args.clone()));
                });
                continue;
            }
            JournalEvent::ServeBatch { worker, start_s, phases, .. } => {
                // Serve batches carry their own simulated dispatch
                // instant and run concurrently across worker lanes, so
                // they are laid out from start_s on their worker's lane
                // and never advance the shared cursor.
                let tid = tid_serve0 + *worker as u64;
                lay_phases(phases, start_s * 1e6, |phase, ts, dur| {
                    let name = phase.to_string();
                    out.push(slice_event(tid, &name, "serve-batch", ts, dur, args.clone()));
                });
                continue;
            }
            _ => continue,
        };
        cursor_us = lay_phases(phases, cursor_us, |phase, ts, dur| {
            let name = phase.to_string();
            let mut on = |tid: u64| out.push(slice_event(tid, &name, cat, ts, dur, args.clone()));
            match track_for(phase, mode) {
                Track::CpuResident => on(TID_CPU_RESIDENT),
                Track::Comm => on(tid_comm),
                Track::Framework => on(tid_framework),
                Track::Devices => {
                    // Data-parallel replicas perform the same work; show
                    // the slice on every device track.
                    (0..num_gpus).for_each(|g| on(TID_DEVICE0 + g as u64));
                    // The execution engine's worker threads each process a
                    // contiguous shard of the same step concurrently, so the
                    // step's compute slices repeat on every worker lane.
                    if workers > 1 && mode.is_some() {
                        (0..workers).for_each(|w| on(tid_worker0 + w as u64));
                    }
                }
            }
        });
    }
    out
}

/// Renders a merged cross-node stream (from
/// [`merge_tagged`](crate::merge::merge_tagged)) as a Chrome trace-event
/// document with **one track group per node**: the coordinator's full
/// simulated timeline keeps pid [`TRACE_PID`], and every worker node
/// `k` gets its own process (pid `k + 2`) carrying its shipped marks
/// plus a `heartbeat-gap` instant at the moment the coordinator
/// declared it dead. Deterministic for a fixed input, byte for byte.
pub fn merged_chrome_trace(merged: &[TaggedEvent]) -> Result<String, serde_json::Error> {
    let mut out = trace_events(merged.iter().filter(|t| t.node_id == 0).map(|t| &t.event));

    // One process per worker node, in node order. Pid is the journal
    // node id + 1 so the coordinator keeps TRACE_PID (= 0 + 1).
    let mut worker_nodes: Vec<u64> = merged.iter().map(|t| t.node_id).filter(|n| *n > 0).collect();
    worker_nodes.sort_unstable();
    worker_nodes.dedup();
    for node in &worker_nodes {
        let wire = node - 1;
        out.push(meta_event(node + 1, 0, "process_name", &format!("fae-node{wire}")));
        out.push(meta_event(node + 1, 1, "thread_name", "events"));
    }

    for (t, ts) in merged.iter().zip(crate::merge::event_times(merged)) {
        let (pid, name, cat) = match (&t.event, t.node_id) {
            // Shipped worker marks land on their node's own track group.
            (JournalEvent::Mark { label, .. }, node) if node > 0 => {
                (node + 1, format!("mark:{label}"), "mark")
            }
            // A declared-dead worker shows the gap on its own group.
            (JournalEvent::NodeLost { node, .. }, 0) => (node + 2, "heartbeat-gap".into(), "alert"),
            _ => continue,
        };
        out.push(instant_event(pid, 1, &name, cat, ts * 1e6, args_of(&t.event)));
    }
    trace_document(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::PhaseSeconds;

    fn sample() -> Vec<TaggedEvent> {
        let events = vec![
            JournalEvent::RunStart {
                workload: "w".into(),
                seed: 1,
                num_gpus: 2,
                workers: 2,
                epochs: 1,
                minibatch_size: 8,
                initial_rate: 100,
                lookahead: 0,
                stale_skip: 0.0,
            },
            JournalEvent::Sync {
                step: 0,
                direction: "initial".into(),
                bytes: 4096,
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0]),
            },
            JournalEvent::Step {
                step: 1,
                mode: StepMode::Hot,
                rate: 100,
                loss: 0.7,
                phases: PhaseSeconds([0.1, 0.2, 0.3, 0.05, 0.0, 0.15, 0.0, 0.01]),
            },
            JournalEvent::Step {
                step: 2,
                mode: StepMode::Cold,
                rate: 100,
                loss: 0.6,
                phases: PhaseSeconds([0.4, 0.2, 0.3, 0.05, 0.2, 0.15, 0.0, 0.01]),
            },
            JournalEvent::Fault { step: 2, kind: "device-loss".into() },
            JournalEvent::RunEnd {
                steps: 2,
                hot_steps: 1,
                cold_steps: 1,
                transitions: 1,
                simulated_seconds: 2.62,
                final_accuracy: 0.5,
                final_rate: Some(100),
                interrupted: false,
            },
        ];
        TaggedEvent::stream(0, events)
    }

    #[test]
    fn trace_is_valid_json_with_expected_tracks() {
        let text = chrome_trace(&sample()).expect("render");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"cpu-resident"));
        assert!(names.contains(&"gpu0"));
        assert!(names.contains(&"gpu1"));
        assert!(names.contains(&"communication"));
        assert!(names.contains(&"framework"));
    }

    #[test]
    fn hot_embed_forward_runs_on_devices_cold_on_cpu() {
        let text = chrome_trace(&sample()).expect("render");
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let embed: Vec<(&str, u64)> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("embed-forward")
                    && e.get("ph").and_then(Value::as_str) == Some("X")
            })
            .map(|e| {
                (
                    e.get("cat").and_then(Value::as_str).unwrap(),
                    e.get("tid").and_then(Value::as_u64).unwrap(),
                )
            })
            .collect();
        assert!(embed.iter().any(|&(cat, tid)| cat == "step-hot" && tid >= TID_DEVICE0));
        assert!(embed.iter().any(|&(cat, tid)| cat == "step-cold" && tid == TID_CPU_RESIDENT));
        assert!(!embed.iter().any(|&(cat, tid)| cat == "step-hot" && tid == TID_CPU_RESIDENT));
    }

    #[test]
    fn slice_durations_cover_all_simulated_seconds() {
        let events = sample();
        let expected_us: f64 =
            events.iter().filter_map(|t| t.event.phases()).map(|p| p.total() * 1e6).sum();
        let text = chrome_trace(&events).expect("render");
        let v: Value = serde_json::from_str(&text).unwrap();
        // Sum durations once per slice position — device-track replicas of
        // the same (ts, name) count once.
        let mut seen = std::collections::BTreeSet::new();
        let mut total_us = 0.0;
        for e in v.get("traceEvents").and_then(Value::as_array).unwrap() {
            if e.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let name = e.get("name").and_then(Value::as_str).unwrap();
            if seen.insert((format!("{ts:.6}"), name.to_string())) {
                total_us += e.get("dur").and_then(Value::as_f64).unwrap();
            }
        }
        assert!((total_us - expected_us).abs() < 1e-3, "{total_us} vs {expected_us}");
    }

    #[test]
    fn worker_lanes_present_when_parallel() {
        let text = chrome_trace(&sample()).expect("render");
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"worker0"));
        assert!(names.contains(&"worker1"));
        // Step compute slices repeat on the worker lanes.
        let worker_tid_min = TID_DEVICE0 + 2 + 2; // gpus + comm + framework
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("tid").and_then(Value::as_u64).unwrap_or(0) >= worker_tid_min
        }));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace(&sample()).expect("render");
        let b = chrome_trace(&sample()).expect("render");
        assert_eq!(a, b);
    }

    #[test]
    fn serve_batches_land_on_serve_worker_lanes_at_their_own_start() {
        let events = vec![
            JournalEvent::ServeStart {
                workload: "w".into(),
                seed: 1,
                workers: 2,
                max_batch: 16,
                max_delay_us: 2000,
                queue_cap: 64,
            },
            JournalEvent::ServeBatch {
                batch: 1,
                worker: 1,
                size: 16,
                start_s: 0.25,
                hits: 60,
                misses: 4,
                phases: PhaseSeconds([0.001, 0.002, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0005]),
            },
            JournalEvent::ServeEnd {
                completed: 16,
                rejected: 0,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
                throughput_rps: 100.0,
                hit_rate: 0.9375,
                simulated_seconds: 0.26,
            },
        ];
        let events = TaggedEvent::stream(0, events);
        let text = chrome_trace(&events).expect("render");
        let v: Value = serde_json::from_str(&text).unwrap();
        let trace = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let lane_names: Vec<&str> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(lane_names.contains(&"serve-worker0"));
        assert!(lane_names.contains(&"serve-worker1"));
        // No train run header → train worker lanes absent, serve lanes
        // start right after the framework track (tids 1..=4 are taken).
        let tid_serve1 = TID_DEVICE0 + 1 + 2 + 1; // 1 gpu + comm + framework + worker 1
        let slices: Vec<&Value> =
            trace.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert!(!slices.is_empty());
        for s in &slices {
            assert_eq!(s.get("tid").and_then(Value::as_u64), Some(tid_serve1));
            assert_eq!(s.get("cat").and_then(Value::as_str), Some("serve-batch"));
        }
        // First slice starts at the batch's own dispatch instant.
        let first_ts = slices[0].get("ts").and_then(Value::as_f64).unwrap();
        assert!((first_ts - 0.25e6).abs() < 1e-6);
    }

    #[test]
    fn train_journal_trace_is_unchanged_by_serve_support() {
        // A journal with no serve events must not grow serve lanes.
        let text = chrome_trace(&sample()).expect("render");
        assert!(!text.contains("serve-worker"));
    }

    fn merged_sample() -> Vec<TaggedEvent> {
        let mut tagged = sample();
        // Shipped worker mark, anchored at step 1; coordinator declares
        // node (wire id) 1 lost at step 2.
        tagged.push(TaggedEvent {
            node_id: 2,
            seq: 0,
            event: JournalEvent::Mark { step: 1, label: "task".into(), detail: "t=8".into() },
        });
        tagged.push(TaggedEvent {
            node_id: 0,
            seq: 6,
            event: JournalEvent::NodeLost { step: 2, node: 1, suspicion: 3 },
        });
        crate::merge::merge_tagged(&[tagged]).0
    }

    #[test]
    fn merged_trace_has_one_process_group_per_node() {
        let text = merged_chrome_trace(&merged_sample()).expect("render");
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let processes: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("name").and_then(Value::as_str) == Some("process_name")
            })
            .map(|e| {
                (
                    e.get("pid").and_then(Value::as_u64).unwrap(),
                    e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str).unwrap(),
                )
            })
            .collect();
        assert!(processes.contains(&(TRACE_PID, "fae-simulated-timeline")));
        assert!(processes.contains(&(3, "fae-node1")), "{processes:?}");
    }

    #[test]
    fn merged_trace_places_worker_marks_and_heartbeat_gaps_on_node_pids() {
        let text = merged_chrome_trace(&merged_sample()).expect("render");
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let mark = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("mark:task"))
            .expect("shipped mark present");
        assert_eq!(mark.get("pid").and_then(Value::as_u64), Some(3));
        // Anchored at the clock of coordinator step 1 = 0.5 (initial
        // sync) + step 1's total charge laid before it... the anchor is
        // the clock BEFORE step 1's own charge, i.e. 0.5 s.
        let ts = mark.get("ts").and_then(Value::as_f64).unwrap();
        assert!((ts - 0.5e6).abs() < 1e-3, "mark ts {ts}");
        let gap = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("heartbeat-gap"))
            .expect("heartbeat-gap instant present");
        assert_eq!(gap.get("pid").and_then(Value::as_u64), Some(3));
        assert_eq!(gap.get("cat").and_then(Value::as_str), Some("alert"));
    }

    #[test]
    fn merged_trace_coordinator_slices_match_single_node_export() {
        // The coordinator's own track group must be exactly the
        // single-journal export — merging adds groups, never perturbs.
        let single = chrome_trace(&sample()).expect("render");
        let merged = merged_chrome_trace(&merged_sample()).expect("render");
        let slices = |text: &str| -> Vec<Value> {
            let v: Value = serde_json::from_str(text).unwrap();
            v.get("traceEvents")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .cloned()
                .collect()
        };
        assert_eq!(slices(&single), slices(&merged));
    }

    #[test]
    fn merged_export_is_deterministic() {
        let a = merged_chrome_trace(&merged_sample()).expect("render");
        let b = merged_chrome_trace(&merged_sample()).expect("render");
        assert_eq!(a, b);
    }
}
