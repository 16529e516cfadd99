//! Acceptance gates for the distributed observability plane: journal
//! shipping over the wire, the cross-node merge's exactly-once property
//! under hostile delivery (duplicated / torn / out-of-order batches),
//! the merged per-phase time-accounting invariant on a real 2-node
//! crash run, the heartbeat-gap alert that run must fire, and byte
//! determinism of the merged Perfetto trace for a fixed seed.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::{setup, train_distributed};
use fae::core::{FaultPlan, TrainReport};
use fae::telemetry::{
    check_invariant, merge_tagged, merged_chrome_trace, parse_tagged_journal, read_tagged_journal,
    AlertEngine, JournalEvent, PhaseSeconds, StepMode, TaggedEvent, Telemetry,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fae-obs-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The observability plane on: journal to `journal`, shipped sidecars
/// next to it, `alerts` evaluated on every event.
fn observed(journal: &Path, alerts: AlertEngine) -> Telemetry {
    Telemetry::builder()
        .journal_path(journal)
        .alerts(alerts)
        .retain_events(true)
        .try_build()
        .expect("telemetry")
}

/// Reads the coordinator journal plus every shipped sidecar and merges.
fn merged_from_disk(journal: &Path, telem: &Telemetry) -> Vec<TaggedEvent> {
    let mut streams = vec![read_tagged_journal(journal).expect("coordinator journal parses")];
    for sidecar in telem.sidecar_paths() {
        streams.push(read_tagged_journal(&sidecar).expect("sidecar parses"));
    }
    merge_tagged(&streams).0
}

// ---------------------------------------------------------------------
// Exactly-once merge under hostile delivery (seeded property test).
// ---------------------------------------------------------------------

/// Deterministic splitmix-style generator; no ambient randomness in
/// tests either.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tag(node_id: u64, seq: u64, event: JournalEvent) -> TaggedEvent {
    TaggedEvent { node_id, seq, event }
}

fn synthetic_truth() -> Vec<Vec<TaggedEvent>> {
    let step = |s: u64, secs: f64| JournalEvent::Step {
        step: s,
        mode: StepMode::Hot,
        rate: 50,
        loss: 0.5,
        phases: PhaseSeconds([secs, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    };
    let mark = |s: u64, label: &str| JournalEvent::Mark {
        step: s,
        label: label.into(),
        detail: String::new(),
    };
    let coordinator: Vec<TaggedEvent> = (0..40).map(|i| tag(0, i, step(i + 1, 0.125))).collect();
    let w1: Vec<TaggedEvent> = (0..9).map(|i| tag(1, i, mark(4 * i + 2, "task"))).collect();
    let w2: Vec<TaggedEvent> = (0..9).map(|i| tag(2, i, mark(4 * i + 3, "task"))).collect();
    vec![coordinator, w1, w2]
}

#[test]
fn merge_is_exactly_once_under_duplicated_torn_and_out_of_order_batches() {
    let truth = synthetic_truth();
    let (want, want_stats) = merge_tagged(&truth);
    assert_eq!(want_stats.duplicates, 0);
    assert_eq!(want_stats.nodes, vec![0, 1, 2]);

    for seed in 0..32u64 {
        let mut rng = seed;
        // Chop every stream into batches that resend from a random
        // earlier cursor (the worker's resend-from-ack behaviour under
        // retries), so batches overlap and duplicate.
        let mut batches: Vec<Vec<TaggedEvent>> = Vec::new();
        for stream in &truth {
            let mut sent = 0usize;
            while sent < stream.len() {
                let resend_from = (next_rand(&mut rng) as usize) % (sent + 1);
                let len = 1 + (next_rand(&mut rng) as usize) % 7;
                let end = (resend_from + len.max(sent - resend_from + 1)).min(stream.len());
                batches.push(stream[resend_from..end].to_vec());
                sent = sent.max(end);
            }
            // One full duplicate delivery of the whole stream.
            if next_rand(&mut rng).is_multiple_of(2) {
                batches.push(stream.clone());
            }
        }
        // Deliver the batches in a shuffled order, some internally
        // reversed (out-of-order inside the batch too).
        for i in (1..batches.len()).rev() {
            let j = (next_rand(&mut rng) as usize) % (i + 1);
            batches.swap(i, j);
        }
        for b in batches.iter_mut() {
            if next_rand(&mut rng).is_multiple_of(3) {
                b.reverse();
            }
        }

        let (got, stats) = merge_tagged(&batches);
        assert_eq!(got, want, "seed {seed}: merged stream drifted");
        assert_eq!(stats.total, want.len(), "seed {seed}: exactly-once violated");
        assert_eq!(stats.nodes, vec![0, 1, 2]);
    }
}

#[test]
fn a_torn_final_line_is_dropped_and_the_tail_recovers_on_the_next_delivery() {
    let truth = synthetic_truth();
    let full: String = truth[1].iter().map(|t| format!("{}\n", t.to_line())).collect();
    // Tear the file mid-way through its final line (a crash during a
    // sidecar append); parsing must keep every complete line.
    let torn = &full[..full.len() - 7];
    let parsed = parse_tagged_journal(torn).expect("torn journal still parses");
    assert_eq!(parsed.len(), truth[1].len() - 1, "only the torn line is dropped");
    // A later full delivery restores the missing event exactly once.
    let (merged, stats) = merge_tagged(&[parsed, truth[1].clone()]);
    assert_eq!(merged, truth[1]);
    assert_eq!(stats.total, truth[1].len());
}

// ---------------------------------------------------------------------
// The real 2-node crash run: shipped journals, merged invariant, alert.
// ---------------------------------------------------------------------

#[test]
fn crash_run_ships_journals_merges_within_tolerance_and_fires_the_gap_alert() {
    let (spec, pre, test, cfg) = setup(2);
    let dir = tmpdir("crash");
    let journal = dir.join("run.jsonl");
    let plan = FaultPlan::parse_seeded("worker-crash@6", 41).expect("plan");
    let telem = observed(&journal, AlertEngine::parse("heartbeat-gap>0").expect("rules"));
    let report = train_distributed(&spec, &pre, &test, &cfg, 2, &plan, &telem);

    // Both workers shipped journal lines into per-node sidecars.
    let sidecars = telem.sidecar_paths();
    assert_eq!(sidecars.len(), 2, "one sidecar per wire worker: {sidecars:?}");

    // The merged stream carries all three nodes and satisfies the
    // per-phase time-accounting invariant against the run's own report.
    let merged = merged_from_disk(&journal, &telem);
    let inv = check_invariant(&merged).expect("merged invariant holds");
    assert_eq!(inv.reported, Some(report.simulated_seconds));
    assert!(
        (inv.global - report.simulated_seconds).abs() <= 1e-6,
        "merged phase sum {} vs reported {}",
        inv.global,
        report.simulated_seconds
    );
    let nodes: Vec<u64> = inv.per_node.iter().map(|(n, _)| *n).collect();
    assert_eq!(nodes, vec![0, 1, 2], "all three nodes present in the merge");
    for (node, charged) in &inv.per_node {
        if *node != 0 {
            assert_eq!(*charged, 0.0, "worker {node} marks must charge nothing");
        }
    }

    // The crash surfaced as a worker-side mark and a heartbeat-gap
    // alert in the coordinator journal.
    assert!(
        merged.iter().any(|t| {
            t.node_id != 0
                && matches!(&t.event, JournalEvent::Mark { label, .. } if label == "crash-inject")
        }),
        "the victim's crash mark must ship"
    );
    let fired: Vec<&TaggedEvent> = merged
        .iter()
        .filter(|t| matches!(&t.event, JournalEvent::Alert { rule, .. } if rule == "heartbeat-gap"))
        .collect();
    assert!(!fired.is_empty(), "heartbeat-gap>0 must fire on the injected crash");

    // The merged trace groups each node under its own process.
    let trace = merged_chrome_trace(&merged).expect("trace export");
    for name in ["fae-simulated-timeline", "fae-node0", "fae-node1"] {
        assert!(trace.contains(name), "merged trace missing track group {name}");
    }
}

#[test]
fn clean_two_node_merged_trace_is_byte_identical_for_a_fixed_seed() {
    let (spec, pre, test, cfg) = setup(2);
    let clean = FaultPlan::default();
    let mut traces = Vec::new();
    let mut observed_report = None;
    for round in 0..2 {
        let dir = tmpdir(&format!("golden-{round}"));
        let journal = dir.join("run.jsonl");
        // The alert engine is on (the obs-smoke rule); a clean run loses
        // no node, so it never fires.
        let telem = observed(&journal, AlertEngine::parse("heartbeat-gap>0").expect("rules"));
        let report = train_distributed(&spec, &pre, &test, &cfg, 2, &clean, &telem);
        assert_eq!(telem.sidecar_paths().len(), 2, "both workers shipped a sidecar");
        traces
            .push(merged_chrome_trace(&merged_from_disk(&journal, &telem)).expect("trace export"));
        observed_report = Some(report);
    }
    assert_eq!(traces[0], traces[1], "merged Perfetto export must be byte-identical");

    // Observability must observe, never perturb: the same run with the
    // plane off (no telemetry frame on the wire) ends on the same model,
    // and shipping's only simulated cost — the `Phase::Framework` charge
    // per admitted batch — stays under 10 % of simulated throughput.
    let on = observed_report.expect("two rounds ran");
    let off = train_distributed(&spec, &pre, &test, &cfg, 2, &clean, &Telemetry::disabled());
    assert_eq!(off.model_digest, on.model_digest, "journal shipping changed the model");
    let sim_steps_per_s =
        |r: &TrainReport| (r.hot_steps + r.cold_steps) as f64 / r.simulated_seconds;
    let overhead = 1.0 - sim_steps_per_s(&on) / sim_steps_per_s(&off);
    assert!(
        overhead < 0.10,
        "journal shipping costs {:.1}% simulated throughput (gate: < 10%)",
        overhead * 100.0
    );
}
