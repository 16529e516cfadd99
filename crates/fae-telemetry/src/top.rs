//! The `fae top` dashboard: a plain-text, fixed-width snapshot of a
//! (possibly still growing) journal stream.
//!
//! [`render_top`] is a pure function from tagged events to text, so the
//! dashboard is unit-testable and byte-deterministic; the CLI merely
//! re-reads its source (journal file or live coordinator stream),
//! re-renders, and repaints.

use fae_sysmodel::Phase;

use crate::journal::{JournalEvent, TaggedEvent};
use crate::report::summarize;

/// Renders the dashboard for the stream as it stands. Designed for a
/// terminal repaint loop: stable layout, one screen, no trailing blank
/// churn.
pub fn render_top(tagged: &[TaggedEvent]) -> String {
    let s = summarize(tagged);
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    let sim = s.journalled_seconds();
    let steps_per_sec = if sim > 0.0 { s.steps as f64 / sim } else { 0.0 };
    let live = tagged
        .iter()
        .rev()
        .find_map(|t| match &t.event {
            JournalEvent::RunEnd { .. } | JournalEvent::ServeEnd { .. } => Some("done"),
            _ => None,
        })
        .unwrap_or("running");

    push(
        &mut out,
        format!("fae top — {} [{}]", s.workload.as_deref().unwrap_or("<unknown>"), live),
    );
    push(
        &mut out,
        format!(
            "steps {:>8} ({} hot / {} cold)   sim {:>10.3}s   {:>8.2} steps/s",
            s.steps, s.hot_steps, s.cold_steps, sim, steps_per_sec,
        ),
    );
    let hot_share = if s.steps > 0 { s.hot_steps as f64 / s.steps as f64 } else { 0.0 };
    let serve_rate = s.serve.as_ref().map(|sv| {
        let lookups = sv.hits + sv.misses;
        if lookups > 0 {
            sv.hits as f64 / lookups as f64
        } else {
            sv.hit_rate
        }
    });
    let serve_rate = match serve_rate {
        Some(r) => format!("{r:.4}"),
        None => "-".into(),
    };
    push(
        &mut out,
        format!(
            "hot-bag: {:.4} of steps pure-GPU   serve hit rate: {}   syncs {} ({} B)",
            hot_share, serve_rate, s.sync_count, s.sync_bytes,
        ),
    );
    push(
        &mut out,
        format!(
            "faults {}   recoveries {}   joins {}   losses {}   reshards {}   alerts {}",
            s.faults,
            s.recoveries,
            s.node_joins,
            s.node_losses,
            s.reshards,
            s.alerts.len(),
        ),
    );

    // Per-node phase split: each node's share of total charged seconds,
    // plus its dominant phase.
    push(&mut out, String::new());
    push(
        &mut out,
        format!(
            "{:<10} {:>8} {:>8} {:>12} {:>7}  {}",
            "node", "events", "marks", "charged (s)", "%", "top phase"
        ),
    );
    for n in &s.per_node {
        let label = n.label();
        let pct = if sim > 0.0 { 100.0 * n.charged_seconds / sim } else { 0.0 };
        let top_phase = dominant_phase(tagged, n.node_id);
        push(
            &mut out,
            format!(
                "{:<10} {:>8} {:>8} {:>12.6} {:>6.1}%  {}",
                label, n.events, n.marks, n.charged_seconds, pct, top_phase,
            ),
        );
    }

    for a in s.alerts.iter().rev().take(3).rev() {
        push(&mut out, format!("ALERT @{:<8} [{}] {}", a.step, a.rule, a.message));
    }
    out
}

/// The phase a node charged the most seconds to (`-` when it charged
/// nothing).
fn dominant_phase(tagged: &[TaggedEvent], node_id: u64) -> String {
    let mut totals = [0.0f64; Phase::COUNT];
    for t in tagged.iter().filter(|t| t.node_id == node_id) {
        if let Some(p) = t.event.phases() {
            p.add_to(&mut totals);
        }
    }
    let (best, secs) =
        totals
            .iter()
            .enumerate()
            .fold((0usize, 0.0f64), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc });
    if secs <= 0.0 {
        "-".into()
    } else {
        Phase::ALL[best].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{PhaseSeconds, StepMode};

    fn tag(node_id: u64, seq: u64, event: JournalEvent) -> TaggedEvent {
        TaggedEvent { node_id, seq, event }
    }

    fn stream() -> Vec<TaggedEvent> {
        vec![
            tag(
                0,
                0,
                JournalEvent::RunStart {
                    workload: "tiny-test".into(),
                    seed: 1,
                    num_gpus: 2,
                    workers: 2,
                    epochs: 1,
                    minibatch_size: 8,
                    initial_rate: 50,
                    lookahead: 0,
                    stale_skip: 0.0,
                },
            ),
            tag(
                0,
                1,
                JournalEvent::Step {
                    step: 1,
                    mode: StepMode::Hot,
                    rate: 50,
                    loss: 0.7,
                    phases: PhaseSeconds([0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                },
            ),
            tag(
                0,
                2,
                JournalEvent::Step {
                    step: 2,
                    mode: StepMode::Cold,
                    rate: 50,
                    loss: 0.6,
                    phases: PhaseSeconds([1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                },
            ),
            tag(1, 0, JournalEvent::Mark { step: 1, label: "task".into(), detail: "".into() }),
            tag(
                0,
                3,
                JournalEvent::Alert {
                    step: 2,
                    rule: "heartbeat-gap".into(),
                    message: "node 1 lost".into(),
                    value: 1.0,
                    threshold: 0.0,
                },
            ),
        ]
    }

    #[test]
    fn dashboard_shows_throughput_splits_and_alerts() {
        let text = render_top(&stream());
        assert!(text.contains("fae top — tiny-test [running]"));
        assert!(text.contains("1 hot / 1 cold"));
        assert!(text.contains("1.00 steps/s"), "2 steps over 2.0 sim s:\n{text}");
        assert!(text.contains("hot-bag: 0.5000"));
        assert!(text.contains("0 (coord)"));
        assert!(text.contains("1 (w0)"));
        assert!(text.contains("embed-forward"), "dominant phase of node 0");
        assert!(text.contains("ALERT @2"));
        assert!(text.contains("alerts 1"));
    }

    #[test]
    fn finished_runs_flip_the_header() {
        let mut s = stream();
        s.push(tag(
            0,
            4,
            JournalEvent::RunEnd {
                steps: 2,
                hot_steps: 1,
                cold_steps: 1,
                transitions: 1,
                simulated_seconds: 2.0,
                final_accuracy: 0.5,
                final_rate: None,
                interrupted: false,
            },
        ));
        assert!(render_top(&s).contains("[done]"));
    }

    #[test]
    fn render_is_deterministic_and_total_on_empty_input() {
        assert_eq!(render_top(&[]), render_top(&[]));
        assert!(render_top(&[]).contains("<unknown>"));
    }
}
