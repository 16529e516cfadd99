//! Golden pins for the journal's bytes: one literal JSONL line per
//! `JournalEvent` variant, the legacy shapes the reader still accepts,
//! and hashes of both Chrome-trace exports over one hand-built 3-node
//! stream that contains every variant. `tests/trainer_golden.rs` hashes
//! the `Debug` form of a run's events and the round-trip unit tests
//! compare two halves of the same build, so neither would notice the
//! writer and the reader moving together; these constants would.

use fae::telemetry::{
    chrome_trace, merge_tagged, merged_chrome_trace, parse_tagged_journal, JournalEvent,
    PhaseSeconds, StepMode, TaggedEvent,
};

#[path = "common/fnv.rs"]
mod fnv;
use fnv::fnv1a;

/// One coordinator (node 0) and two workers (nodes 1 and 2): a two-GPU,
/// two-worker run that loses wire node 1, with a serve run's records
/// behind it so the serve lanes of the trace are laid out too. Every
/// variant is here at least once, each beside the line the parent wrote
/// for it; `seq` is the position within the node's own rows.
fn golden() -> Vec<(u64, JournalEvent, &'static str)> {
    let mark = |step, label: &str, detail: &str| JournalEvent::Mark {
        step,
        label: label.into(),
        detail: detail.into(),
    };
    let step =
        |step, mode, rate, loss, phases| JournalEvent::Step { step, mode, rate, loss, phases };
    vec![
        (
            0,
            JournalEvent::RunStart {
                workload: "tiny-test".into(),
                seed: 7,
                num_gpus: 2,
                epochs: 1,
                minibatch_size: 64,
                initial_rate: 50,
                workers: 2,
                lookahead: 4,
                stale_skip: 0.0001,
            },
            r#"{"type":"run_start","workload":"tiny-test","seed":7,"num_gpus":2,"epochs":1,"minibatch_size":64,"initial_rate":50,"workers":2,"lookahead":4,"stale_skip":0.0001,"node_id":0,"seq":0}"#,
        ),
        (
            0,
            JournalEvent::NodeJoin { step: 0, node: 0, epoch: 1, state_bytes: 4096 },
            r#"{"type":"node_join","step":0,"node":0,"epoch":1,"state_bytes":4096,"node_id":0,"seq":1}"#,
        ),
        (
            0,
            JournalEvent::NodeJoin { step: 0, node: 1, epoch: 2, state_bytes: 65536 },
            r#"{"type":"node_join","step":0,"node":1,"epoch":2,"state_bytes":65536,"node_id":0,"seq":2}"#,
        ),
        (
            0,
            JournalEvent::Sync {
                step: 0,
                direction: "initial".into(),
                bytes: 1 << 20,
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0]),
            },
            r#"{"type":"sync","step":0,"direction":"initial","bytes":1048576,"phases":{"embed-sync":0.5},"node_id":0,"seq":3}"#,
        ),
        (
            0,
            step(
                1,
                StepMode::Hot,
                50,
                0.693,
                PhaseSeconds([0.1, 0.2, 0.3, 0.05, 0.0, 0.15, 0.0, 0.01]),
            ),
            r#"{"type":"step","step":1,"mode":"hot","rate":50,"loss":0.693,"phases":{"embed-forward":0.1,"dense-forward":0.2,"backward":0.3,"optimizer":0.05,"all-reduce":0.15,"framework":0.01},"node_id":0,"seq":4}"#,
        ),
        (
            0,
            step(
                2,
                StepMode::Cold,
                50,
                0.5,
                PhaseSeconds([0.4, 0.2, 0.3, 0.05, 0.2, 0.15, 0.0, 0.01]),
            ),
            r#"{"type":"step","step":2,"mode":"cold","rate":50,"loss":0.5,"phases":{"embed-forward":0.4,"dense-forward":0.2,"backward":0.3,"optimizer":0.05,"cpu-gpu-transfer":0.2,"all-reduce":0.15,"framework":0.01},"node_id":0,"seq":5}"#,
        ),
        (
            0,
            JournalEvent::Fault { step: 2, kind: "worker-crash".into() },
            r#"{"type":"fault","step":2,"kind":"worker-crash","node_id":0,"seq":6}"#,
        ),
        (
            0,
            JournalEvent::NodeLost { step: 2, node: 1, suspicion: 3 },
            r#"{"type":"node_lost","step":2,"node":1,"suspicion":3,"node_id":0,"seq":7}"#,
        ),
        (
            0,
            JournalEvent::Alert {
                step: 2,
                rule: "heartbeat-gap".into(),
                message: "node 1 lost after 3 missed deadlines".into(),
                value: 3.0,
                threshold: 0.0,
            },
            r#"{"type":"alert","step":2,"rule":"heartbeat-gap","message":"node 1 lost after 3 missed deadlines","value":3.0,"threshold":0.0,"node_id":0,"seq":8}"#,
        ),
        (
            0,
            JournalEvent::Reshard {
                step: 2,
                node: 1,
                live: 1,
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0625, 0.0, 0.0, 0.03125]),
            },
            r#"{"type":"reshard","step":2,"node":1,"live":1,"phases":{"cpu-gpu-transfer":0.0625,"framework":0.03125},"node_id":0,"seq":9}"#,
        ),
        (
            // Strings are escaped by the writer, not trusted.
            0,
            JournalEvent::Recovery {
                step: 2,
                action: "resharded".into(),
                detail: "node 1 -> \"node 0\"\\\n".into(),
            },
            r#"{"type":"recovery","step":2,"action":"resharded","detail":"node 1 -> \"node 0\"\\\n","node_id":0,"seq":10}"#,
        ),
        (
            0,
            JournalEvent::Charge {
                step: 2,
                label: "sync-backoff".into(),
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.125]),
            },
            r#"{"type":"charge","step":2,"label":"sync-backoff","phases":{"framework":0.125},"node_id":0,"seq":11}"#,
        ),
        (
            // The baseline has no scheduler rate: `null`, not absent.
            0,
            JournalEvent::Eval {
                step: 2,
                test_loss: 0.69,
                test_accuracy: 0.55,
                rate: None,
                hot_steps: 1,
                cold_steps: 1,
                sim_seconds: 0.0000001,
            },
            r#"{"type":"eval","step":2,"test_loss":0.69,"test_accuracy":0.55,"rate":null,"hot_steps":1,"cold_steps":1,"sim_seconds":0.0000001,"node_id":0,"seq":12}"#,
        ),
        (
            // An all-zero `phases` is an empty object (zero phases are
            // always left out), and an integral float keeps its `.0`.
            0,
            step(3, StepMode::Hot, 100, 1.0, PhaseSeconds::default()),
            r#"{"type":"step","step":3,"mode":"hot","rate":100,"loss":1.0,"phases":{},"node_id":0,"seq":13}"#,
        ),
        (
            0,
            JournalEvent::Eval {
                step: 3,
                test_loss: 0.65,
                test_accuracy: 0.58,
                rate: Some(25),
                hot_steps: 2,
                cold_steps: 1,
                sim_seconds: 3.90375,
            },
            r#"{"type":"eval","step":3,"test_loss":0.65,"test_accuracy":0.58,"rate":25,"hot_steps":2,"cold_steps":1,"sim_seconds":3.90375,"node_id":0,"seq":14}"#,
        ),
        (
            0,
            JournalEvent::RunEnd {
                steps: 3,
                hot_steps: 2,
                cold_steps: 1,
                transitions: 2,
                simulated_seconds: 3.90375,
                final_accuracy: 0.58,
                final_rate: Some(25),
                interrupted: false,
            },
            r#"{"type":"run_end","steps":3,"hot_steps":2,"cold_steps":1,"transitions":2,"simulated_seconds":3.90375,"final_accuracy":0.58,"final_rate":25,"interrupted":false,"node_id":0,"seq":15}"#,
        ),
        (
            0,
            JournalEvent::ServeStart {
                workload: "tiny-test".into(),
                seed: 7,
                workers: 2,
                max_batch: 32,
                max_delay_us: 2000,
                queue_cap: 1024,
            },
            r#"{"type":"serve_start","workload":"tiny-test","seed":7,"workers":2,"max_batch":32,"max_delay_us":2000,"queue_cap":1024,"node_id":0,"seq":16}"#,
        ),
        (
            0,
            JournalEvent::ServeBatch {
                batch: 1,
                worker: 1,
                size: 32,
                start_s: 0.25,
                hits: 120,
                misses: 8,
                phases: PhaseSeconds([1e-4, 2e-4, 0.0, 0.0, 5e-5, 0.0, 0.0, 5e-5]),
            },
            r#"{"type":"serve_batch","batch":1,"worker":1,"size":32,"start_s":0.25,"hits":120,"misses":8,"phases":{"embed-forward":0.0001,"dense-forward":0.0002,"cpu-gpu-transfer":0.00005,"framework":0.00005},"node_id":0,"seq":17}"#,
        ),
        (
            0,
            JournalEvent::ServeEnd {
                completed: 32,
                rejected: 0,
                p50_ms: 1.5,
                p95_ms: 2.75,
                p99_ms: 3.0,
                throughput_rps: 8000.0,
                hit_rate: 0.9375,
                simulated_seconds: 0.26,
            },
            r#"{"type":"serve_end","completed":32,"rejected":0,"p50_ms":1.5,"p95_ms":2.75,"p99_ms":3.0,"throughput_rps":8000.0,"hit_rate":0.9375,"simulated_seconds":0.26,"node_id":0,"seq":18}"#,
        ),
        // A worker's own journal: `node_id` is its wire id + 1.
        (
            1,
            mark(0, "join", "epoch=1"),
            r#"{"type":"mark","step":0,"label":"join","detail":"epoch=1","node_id":1,"seq":0}"#,
        ),
        (
            1,
            mark(3, "task", "shard=0 batches=8"),
            r#"{"type":"mark","step":3,"label":"task","detail":"shard=0 batches=8","node_id":1,"seq":1}"#,
        ),
        (
            2,
            mark(0, "join", "epoch=2"),
            r#"{"type":"mark","step":0,"label":"join","detail":"epoch=2","node_id":2,"seq":0}"#,
        ),
        (
            2,
            mark(1, "task", "shard=1 batches=8"),
            r#"{"type":"mark","step":1,"label":"task","detail":"shard=1 batches=8","node_id":2,"seq":1}"#,
        ),
        (
            2,
            mark(2, "crash-inject", ""),
            r#"{"type":"mark","step":2,"label":"crash-inject","detail":"","node_id":2,"seq":2}"#,
        ),
    ]
}

/// The table's events with their origin tags, and the table's lines.
fn golden_stream() -> (Vec<TaggedEvent>, Vec<&'static str>) {
    let mut next_seq = [0u64; 3];
    golden()
        .into_iter()
        .map(|(node_id, event, line)| {
            let seq = next_seq[node_id as usize];
            next_seq[node_id as usize] += 1;
            (TaggedEvent { node_id, seq, event }, line)
        })
        .unzip()
}

#[test]
fn every_variant_writes_the_pinned_line() {
    let (stream, lines) = golden_stream();
    let mut tags: Vec<&str> = stream.iter().map(|t| t.event.type_tag()).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 16, "a variant is missing from the table: {tags:?}");
    for (t, want) in stream.iter().zip(&lines) {
        assert_eq!(t.to_line(), *want);
    }
}

#[test]
fn pinned_lines_parse_back_and_re_emit_identically() {
    let (stream, lines) = golden_stream();
    let back = parse_tagged_journal(&lines.join("\n")).expect("the table parses");
    assert_eq!(back, stream);
    for (t, line) in back.iter().zip(&lines) {
        assert_eq!(t.to_line(), *line);
    }
}

#[test]
fn a_non_finite_loss_is_written_as_null_and_does_not_read_back() {
    for loss in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let event = JournalEvent::Step {
            step: 9,
            mode: StepMode::Cold,
            rate: 50,
            loss,
            phases: PhaseSeconds::default(),
        };
        let line = TaggedEvent { node_id: 0, seq: 0, event }.to_line();
        assert_eq!(
            line,
            r#"{"type":"step","step":9,"mode":"cold","rate":50,"loss":null,"phases":{},"node_id":0,"seq":0}"#
        );
        // JSON has no token for it and the reader does not invent one.
        let err = parse_tagged_journal(&format!("{line}\n{line}\n")).unwrap_err();
        assert!(err.starts_with("journal line 1: "), "{err}");
    }
}

#[test]
fn legacy_shapes_still_parse() {
    // Pre-engine run header: no `workers` ⇒ 1; pre-oracle: no
    // `lookahead` / `stale_skip` ⇒ both off.
    let pre_engine = r#"{"type":"run_start","workload":"w","seed":1,"num_gpus":2,"epochs":1,"minibatch_size":64,"initial_rate":50}"#;
    let pre_oracle = r#"{"type":"run_start","workload":"w","seed":1,"num_gpus":2,"epochs":1,"minibatch_size":64,"initial_rate":50,"workers":3}"#;
    // Pre-plane lines carry no origin tag: node 0, `seq` = position
    // among the file's events (blank lines do not count).
    let text = format!(
        "{pre_engine}\n\n{pre_oracle}\n{}\n",
        r#"{"type":"fault","step":1,"kind":"device-loss"}"#
    );
    let back = parse_tagged_journal(&text).expect("legacy journal parses");
    let header = |workers| JournalEvent::RunStart {
        workload: "w".into(),
        seed: 1,
        num_gpus: 2,
        epochs: 1,
        minibatch_size: 64,
        initial_rate: 50,
        workers,
        lookahead: 0,
        stale_skip: 0.0,
    };
    let fault = JournalEvent::Fault { step: 1, kind: "device-loss".into() };
    let want: Vec<TaggedEvent> = [header(1), header(3), fault]
        .into_iter()
        .enumerate()
        .map(|(i, event)| TaggedEvent { node_id: 0, seq: i as u64, event })
        .collect();
    assert_eq!(back, want);
    // Re-emitted, a legacy line gains the fields it lacked.
    assert_eq!(
        back[0].to_line(),
        r#"{"type":"run_start","workload":"w","seed":1,"num_gpus":2,"epochs":1,"minibatch_size":64,"initial_rate":50,"workers":1,"lookahead":0,"stale_skip":0.0,"node_id":0,"seq":0}"#
    );
}

#[test]
fn a_torn_final_line_is_dropped_and_a_malformed_interior_line_is_an_error() {
    let (stream, lines) = golden_stream();
    let mut text = lines.join("\n");
    text.push_str("\n{\"type\":\"step\",\"ste"); // crash mid-write
    assert_eq!(parse_tagged_journal(&text).expect("torn tail tolerated"), stream);

    // The same fragment anywhere but last is corruption, and so is a
    // line that is JSON but not an event — wherever it sits.
    let interior = format!("{}\n{{\"type\":\"step\",\"ste\n{}\n", lines[0], lines[1]);
    let err = parse_tagged_journal(&interior).unwrap_err();
    assert!(err.starts_with("journal line 2: "), "{err}");
    let unknown = format!("{}\n{{\"type\":\"mystery\"}}", lines[0]);
    let err = parse_tagged_journal(&unknown).unwrap_err();
    assert!(err.starts_with("journal line 2: ") && err.contains("mystery"), "{err}");
    let missing = r#"{"type":"fault","step":1}"#;
    let err = parse_tagged_journal(missing).unwrap_err();
    assert!(err.starts_with("journal line 1: ") && err.contains("kind"), "{err}");
}

/// A journal is outside input (`fae report` and `fae top` read files
/// the user names): an integer that does not fit its field is an error
/// naming the line, the event type and the field — `as u32` used to
/// report this line as `R(50)`.
#[test]
fn an_out_of_range_integer_is_an_error_not_a_wrap() {
    let (_, lines) = golden_stream();
    let eval = lines[14];
    assert!(eval.contains(r#""rate":25,"#));
    let text =
        format!("{}\n{}\n", lines[0], eval.replace(r#""rate":25,"#, r#""rate":4294967346,"#));
    assert_eq!(
        parse_tagged_journal(&text).unwrap_err(),
        "journal line 2: eval: JournalEvent::Eval.rate: integer 4294967346 out of range for u32"
    );
}

#[test]
fn trace_exports_of_the_three_node_stream_match_the_pinned_hashes() {
    let (stream, _) = golden_stream();
    let (merged, stats) = merge_tagged(&[stream]);
    assert_eq!((stats.total, stats.duplicates, stats.nodes), (24, 0, vec![0, 1, 2]));
    // Shipped marks land at the clock of their step, behind the
    // coordinator's own rows of that step. Rows at one clock value order
    // by step, which is why the serve rows (step 0, batch 1, `u64::MAX`)
    // split around the run's zero-charge tail: no run writes a train and
    // a serve run into one journal, this table does so to cover both.
    let order: Vec<(u64, u64)> = merged.iter().map(|t| (t.node_id, t.seq)).collect();
    #[rustfmt::skip]
    assert_eq!(order, [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (0, 4), (2, 1), (0, 5), (2, 2), (0, 6),
        (0, 7), (0, 8), (0, 9), (0, 10), (0, 11), (0, 16), (0, 17), (0, 12), (0, 13), (0, 14),
        (0, 15), (1, 1), (0, 18),
    ]);

    let single = chrome_trace(&merged).expect("render");
    let cross = merged_chrome_trace(&merged).expect("render");
    assert_eq!(
        (single.len(), fnv1a(single.as_bytes()), cross.len(), fnv1a(cross.as_bytes())),
        (7546, 7974510118606096410, 7954, 16556208151851389707),
        "trace bytes moved"
    );
}
