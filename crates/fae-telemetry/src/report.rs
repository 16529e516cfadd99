//! Journal aggregation and the Fig.-14-style phase-breakdown report.
//!
//! [`summarize`] folds a journal's event stream — one node's, or a
//! merged multi-node one — into a [`RunSummary`] whose per-phase totals
//! are split by where the time was spent — hot steps, cold steps,
//! synchronisation, other charges — exactly the decomposition the paper
//! uses to argue FAE's win (hot mini-batches eliminate the CPU-resident
//! embedding phases). [`render`] prints it as
//! a fixed-width table; `fae report <journal>` is a thin wrapper.

use std::collections::BTreeMap;

use fae_sysmodel::Phase;

use crate::journal::{JournalEvent, PhaseSeconds, StepMode, TaggedEvent};

/// Per-phase simulated seconds split by spend category. Arrays are
/// indexed in `Phase::ALL` order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Seconds charged by hot (pure-GPU) steps.
    pub hot: [f64; Phase::COUNT],
    /// Seconds charged by cold (hybrid) steps.
    pub cold: [f64; Phase::COUNT],
    /// Seconds charged by embedding synchronisation events.
    pub sync: [f64; Phase::COUNT],
    /// Seconds charged by everything else (reshard, backoff, I/O stalls).
    pub other: [f64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Total seconds for phase index `i` across all categories.
    pub fn phase_total(&self, i: usize) -> f64 {
        self.hot[i] + self.cold[i] + self.sync[i] + self.other[i]
    }

    /// Grand total across phases and categories.
    pub fn grand_total(&self) -> f64 {
        (0..8).map(|i| self.phase_total(i)).sum()
    }
}

/// One evaluation row extracted from the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRow {
    /// Step count at evaluation.
    pub step: u64,
    /// Test BCE loss.
    pub test_loss: f64,
    /// Test accuracy.
    pub test_accuracy: f64,
    /// Scheduler rate after adaptation, if FAE.
    pub rate: Option<u32>,
}

/// Aggregated serving metrics extracted from a serve journal
/// (`serve_start` / `serve_batch` / `serve_end` events).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeSummary {
    /// Serving worker pool size from the serve header.
    pub workers: usize,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Requests completed (from the serve trailer).
    pub completed: u64,
    /// Requests rejected at the bounded queue.
    pub rejected: u64,
    /// Embedding lookups served GPU-side across all batches.
    pub hits: u64,
    /// Embedding lookups fetched from the CPU master copy.
    pub misses: u64,
    /// GPU-side share of lookups (from the serve trailer).
    pub hit_rate: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Simulated makespan of the serve run, seconds.
    pub simulated_seconds: f64,
    /// Per-phase busy seconds summed across workers (`Phase::ALL` order).
    /// Exceeding `simulated_seconds` just means more than one worker was
    /// busy at once — this is busy time, not makespan.
    pub phase_seconds: [f64; Phase::COUNT],
}

/// One alert firing extracted from the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRow {
    /// Step at which the rule fired.
    pub step: u64,
    /// Rule id.
    pub rule: String,
    /// Firing message.
    pub message: String,
}

/// Per-originating-node activity in a merged stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeSummary {
    /// Originating journal node id (0 = coordinator).
    pub node_id: u64,
    /// Events this node emitted.
    pub events: u64,
    /// Informational marks among them.
    pub marks: u64,
    /// Simulated seconds this node's events charged.
    pub charged_seconds: f64,
}

impl NodeSummary {
    /// The row label: `0 (coord)`, or `k (w<k-1>)` for wire worker `k - 1`.
    pub fn label(&self) -> String {
        match self.node_id {
            0 => "0 (coord)".into(),
            k => format!("{k} (w{})", k - 1),
        }
    }
}

/// Everything `fae report` prints, extracted from one journal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Workload name from the run header, if present.
    pub workload: Option<String>,
    /// Simulated GPU count from the run header.
    pub num_gpus: Option<usize>,
    /// Steps seen in the journal.
    pub steps: u64,
    /// Hot steps seen.
    pub hot_steps: u64,
    /// Cold steps seen.
    pub cold_steps: u64,
    /// Sync events seen.
    pub sync_count: u64,
    /// Total bytes moved by sync events.
    pub sync_bytes: u64,
    /// Fault events seen.
    pub faults: u64,
    /// Recovery events seen.
    pub recoveries: u64,
    /// Node-join events seen (distributed runs).
    pub node_joins: u64,
    /// Node-lost events seen (distributed runs).
    pub node_losses: u64,
    /// Reshard events seen (distributed runs).
    pub reshards: u64,
    /// Evaluations in journal order.
    pub evals: Vec<EvalRow>,
    /// The per-phase/category time split.
    pub breakdown: PhaseBreakdown,
    /// `simulated_seconds` from the run trailer, if the run finished.
    pub reported_simulated_seconds: Option<f64>,
    /// Final accuracy from the run trailer.
    pub final_accuracy: Option<f64>,
    /// Whether the run trailer flagged an interrupted run.
    pub interrupted: bool,
    /// Serving metrics, present when the journal carries serve events.
    pub serve: Option<ServeSummary>,
    /// Alert firings in journal order.
    pub alerts: Vec<AlertRow>,
    /// Per-node activity, ascending by node id (one row for a
    /// single-process journal).
    pub per_node: Vec<NodeSummary>,
}

impl RunSummary {
    /// Sum of all journalled per-phase seconds. When the run finished
    /// cleanly this matches `reported_simulated_seconds` to within float
    /// error — the acceptance invariant of the journal.
    pub fn journalled_seconds(&self) -> f64 {
        self.breakdown.grand_total()
    }
}

/// Folds a journal — one node's, or a merged multi-node stream — into
/// a [`RunSummary`].
pub fn summarize(events: &[TaggedEvent]) -> RunSummary {
    let mut s = RunSummary::default();
    let mut nodes: BTreeMap<u64, NodeSummary> = BTreeMap::new();
    for t in events {
        let n = nodes
            .entry(t.node_id)
            .or_insert_with(|| NodeSummary { node_id: t.node_id, ..Default::default() });
        n.events += 1;
        n.marks += u64::from(matches!(t.event, JournalEvent::Mark { .. }));
        n.charged_seconds += t.event.phases().map_or(0.0, PhaseSeconds::total);
        match &t.event {
            JournalEvent::RunStart { workload, num_gpus, .. } => {
                s.workload = Some(workload.clone());
                s.num_gpus = Some(*num_gpus);
            }
            JournalEvent::Step { mode, phases, .. } => {
                s.steps += 1;
                let bucket = match mode {
                    StepMode::Hot => {
                        s.hot_steps += 1;
                        &mut s.breakdown.hot
                    }
                    StepMode::Cold => {
                        s.cold_steps += 1;
                        &mut s.breakdown.cold
                    }
                };
                phases.add_to(bucket);
            }
            JournalEvent::Sync { bytes, phases, .. } => {
                s.sync_count += 1;
                s.sync_bytes += bytes;
                phases.add_to(&mut s.breakdown.sync);
            }
            JournalEvent::Charge { phases, .. } => phases.add_to(&mut s.breakdown.other),
            JournalEvent::Eval { step, test_loss, test_accuracy, rate, .. } => {
                s.evals.push(EvalRow {
                    step: *step,
                    test_loss: *test_loss,
                    test_accuracy: *test_accuracy,
                    rate: *rate,
                });
            }
            JournalEvent::Fault { .. } => s.faults += 1,
            JournalEvent::Recovery { .. } => s.recoveries += 1,
            JournalEvent::NodeJoin { .. } => s.node_joins += 1,
            JournalEvent::NodeLost { .. } => s.node_losses += 1,
            JournalEvent::Reshard { phases, .. } => {
                s.reshards += 1;
                phases.add_to(&mut s.breakdown.other);
            }
            JournalEvent::RunEnd { simulated_seconds, final_accuracy, interrupted, .. } => {
                s.reported_simulated_seconds = Some(*simulated_seconds);
                s.final_accuracy = Some(*final_accuracy);
                s.interrupted = *interrupted;
            }
            JournalEvent::ServeStart { workload, workers, .. } => {
                if s.workload.is_none() {
                    s.workload = Some(workload.clone());
                }
                s.serve.get_or_insert_with(ServeSummary::default).workers = *workers;
            }
            JournalEvent::ServeBatch { hits, misses, phases, .. } => {
                let serve = s.serve.get_or_insert_with(ServeSummary::default);
                serve.batches += 1;
                serve.hits += hits;
                serve.misses += misses;
                phases.add_to(&mut serve.phase_seconds);
            }
            JournalEvent::ServeEnd {
                completed,
                rejected,
                p50_ms,
                p95_ms,
                p99_ms,
                throughput_rps,
                hit_rate,
                simulated_seconds,
            } => {
                let serve = s.serve.get_or_insert_with(ServeSummary::default);
                serve.completed = *completed;
                serve.rejected = *rejected;
                serve.p50_ms = *p50_ms;
                serve.p95_ms = *p95_ms;
                serve.p99_ms = *p99_ms;
                serve.throughput_rps = *throughput_rps;
                serve.hit_rate = *hit_rate;
                serve.simulated_seconds = *simulated_seconds;
            }
            JournalEvent::Mark { .. } => {}
            JournalEvent::Alert { step, rule, message, .. } => {
                s.alerts.push(AlertRow {
                    step: *step,
                    rule: rule.clone(),
                    message: message.clone(),
                });
            }
        }
    }
    s.per_node = nodes.into_values().collect();
    s
}

fn fmt_rate(rate: Option<u32>) -> String {
    match rate {
        Some(r) => format!("R({r})"),
        None => "-".into(),
    }
}

/// Renders the Fig.-14-style phase-breakdown table plus run header and
/// evaluation history.
pub fn render(s: &RunSummary) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    push(&mut out, format!("run: {}", s.workload.as_deref().unwrap_or("<unknown>")));
    push(
        &mut out,
        format!(
            "steps: {} ({} hot / {} cold)   gpus: {}   syncs: {} ({} bytes)   faults: {}   recoveries: {}",
            s.steps,
            s.hot_steps,
            s.cold_steps,
            s.num_gpus.map(|g| g.to_string()).unwrap_or_else(|| "?".into()),
            s.sync_count,
            s.sync_bytes,
            s.faults,
            s.recoveries,
        ),
    );
    if s.node_joins + s.node_losses + s.reshards > 0 {
        push(
            &mut out,
            format!(
                "membership: {} node joins   {} node losses   {} reshards",
                s.node_joins, s.node_losses, s.reshards,
            ),
        );
    }
    if s.interrupted {
        push(&mut out, "note: run was interrupted (journal covers a partial run)".into());
    }
    push(&mut out, String::new());

    // Fig.-14-style breakdown: one row per phase, columns split the
    // simulated seconds by where they were spent.
    let total = s.breakdown.grand_total();
    push(
        &mut out,
        format!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>11} {:>7}",
            "phase", "hot (s)", "cold (s)", "sync (s)", "other (s)", "total (s)", "%"
        ),
    );
    push(&mut out, "-".repeat(82));
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let row_total = s.breakdown.phase_total(i);
        if row_total == 0.0 {
            continue;
        }
        let pct = if total > 0.0 { 100.0 * row_total / total } else { 0.0 };
        push(
            &mut out,
            format!(
                "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>11.4} {:>6.1}%",
                phase.to_string(),
                s.breakdown.hot[i],
                s.breakdown.cold[i],
                s.breakdown.sync[i],
                s.breakdown.other[i],
                row_total,
                pct,
            ),
        );
    }
    push(&mut out, "-".repeat(82));
    push(
        &mut out,
        format!(
            "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>11.4} {:>6.1}%",
            "total",
            s.breakdown.hot.iter().sum::<f64>(),
            s.breakdown.cold.iter().sum::<f64>(),
            s.breakdown.sync.iter().sum::<f64>(),
            s.breakdown.other.iter().sum::<f64>(),
            total,
            100.0,
        ),
    );
    if let Some(reported) = s.reported_simulated_seconds {
        push(
            &mut out,
            format!(
                "journalled {:.6}s vs reported {:.6}s (delta {:+.2e}s)",
                total,
                reported,
                total - reported,
            ),
        );
    }

    if !s.evals.is_empty() {
        push(&mut out, String::new());
        push(
            &mut out,
            format!(
                "{:<10} {:>12} {:>14} {:>8}",
                "eval@step", "test loss", "test accuracy", "rate"
            ),
        );
        for e in &s.evals {
            push(
                &mut out,
                format!(
                    "{:<10} {:>12.5} {:>14.5} {:>8}",
                    e.step,
                    e.test_loss,
                    e.test_accuracy,
                    fmt_rate(e.rate),
                ),
            );
        }
    }
    if let Some(acc) = s.final_accuracy {
        push(&mut out, format!("final accuracy: {acc:.5}"));
    }

    if !s.per_node.is_empty() {
        push(&mut out, String::new());
        push(&mut out, "per node".into());
        push(
            &mut out,
            format!("{:<10} {:>8} {:>8} {:>14}", "node", "events", "marks", "charged (s)"),
        );
        for n in &s.per_node {
            let label = n.label();
            push(
                &mut out,
                format!("{:<10} {:>8} {:>8} {:>14.6}", label, n.events, n.marks, n.charged_seconds,),
            );
        }
    }

    if !s.alerts.is_empty() {
        push(&mut out, String::new());
        push(&mut out, format!("alerts ({} fired)", s.alerts.len()));
        for a in &s.alerts {
            push(&mut out, format!("  @{:<8} [{}] {}", a.step, a.rule, a.message));
        }
    }

    if let Some(serve) = &s.serve {
        push(&mut out, String::new());
        push(&mut out, "serving".into());
        push(
            &mut out,
            format!(
                "workers: {}   batches: {}   completed: {}   rejected: {}",
                serve.workers, serve.batches, serve.completed, serve.rejected,
            ),
        );
        let lookups = serve.hits + serve.misses;
        push(
            &mut out,
            format!(
                "cache: {} gpu / {} cpu of {} lookups (hit rate {:.4})",
                serve.hits, serve.misses, lookups, serve.hit_rate,
            ),
        );
        push(
            &mut out,
            format!(
                "latency: p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms   throughput: {:.1} req/s   makespan: {:.6} s",
                serve.p50_ms, serve.p95_ms, serve.p99_ms, serve.throughput_rps,
                serve.simulated_seconds,
            ),
        );
        for (phase, secs) in Phase::ALL.iter().zip(serve.phase_seconds) {
            if secs != 0.0 {
                push(&mut out, format!("  {:<18} {:>12.6} s busy", phase.to_string(), secs));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TaggedEvent> {
        let events = vec![
            JournalEvent::RunStart {
                workload: "w".into(),
                seed: 1,
                num_gpus: 2,
                workers: 1,
                epochs: 1,
                minibatch_size: 8,
                initial_rate: 100,
                lookahead: 0,
                stale_skip: 0.0,
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
            JournalEvent::Sync {
                step: 2,
                direction: "write-back".into(),
                bytes: 2048,
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0]),
            },
            JournalEvent::Charge {
                step: 2,
                label: "reshard".into(),
                phases: PhaseSeconds([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.125]),
            },
            JournalEvent::Eval {
                step: 2,
                test_loss: 0.65,
                test_accuracy: 0.58,
                rate: Some(50),
                hot_steps: 1,
                cold_steps: 1,
                sim_seconds: 2.495,
            },
            JournalEvent::RunEnd {
                steps: 2,
                hot_steps: 1,
                cold_steps: 1,
                transitions: 1,
                simulated_seconds: 2.495,
                final_accuracy: 0.58,
                final_rate: Some(50),
                interrupted: false,
            },
        ];
        TaggedEvent::stream(0, events)
    }

    #[test]
    fn summary_splits_phases_by_category() {
        let s = summarize(&sample());
        assert_eq!(s.steps, 2);
        assert_eq!(s.hot_steps, 1);
        assert_eq!(s.cold_steps, 1);
        assert_eq!(s.sync_count, 1);
        assert_eq!(s.sync_bytes, 2048);
        // EmbedForward index 0: hot charged 0.1, cold 0.4.
        assert!((s.breakdown.hot[0] - 0.1).abs() < 1e-12);
        assert!((s.breakdown.cold[0] - 0.4).abs() < 1e-12);
        // EmbedSync index 6 entirely under sync.
        assert!((s.breakdown.sync[6] - 0.25).abs() < 1e-12);
        // Framework "other" from the reshard charge.
        assert!((s.breakdown.other[7] - 0.125).abs() < 1e-12);
        assert_eq!(s.evals.len(), 1);
        assert_eq!(s.evals[0].rate, Some(50));
    }

    #[test]
    fn journalled_seconds_match_run_end() {
        let s = summarize(&sample());
        let reported = s.reported_simulated_seconds.unwrap();
        assert!(
            (s.journalled_seconds() - reported).abs() < 1e-9,
            "{} vs {reported}",
            s.journalled_seconds()
        );
    }

    fn serve_sample() -> Vec<TaggedEvent> {
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
                worker: 0,
                size: 16,
                start_s: 0.001,
                hits: 60,
                misses: 4,
                phases: PhaseSeconds([1e-4, 2e-4, 0.0, 0.0, 5e-5, 0.0, 0.0, 5e-5]),
            },
            JournalEvent::ServeBatch {
                batch: 2,
                worker: 1,
                size: 10,
                start_s: 0.003,
                hits: 38,
                misses: 2,
                phases: PhaseSeconds([1e-4, 1e-4, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-5]),
            },
            JournalEvent::ServeEnd {
                completed: 26,
                rejected: 1,
                p50_ms: 1.2,
                p95_ms: 2.4,
                p99_ms: 2.9,
                throughput_rps: 6500.0,
                hit_rate: 0.9423,
                simulated_seconds: 0.004,
            },
        ];
        TaggedEvent::stream(0, events)
    }

    #[test]
    fn summary_aggregates_serve_events() {
        let s = summarize(&serve_sample());
        let serve = s.serve.as_ref().expect("serve section present");
        assert_eq!(serve.workers, 2);
        assert_eq!(serve.batches, 2);
        assert_eq!(serve.completed, 26);
        assert_eq!(serve.rejected, 1);
        assert_eq!(serve.hits, 98);
        assert_eq!(serve.misses, 6);
        assert!((serve.phase_seconds[0] - 2e-4).abs() < 1e-15);
        assert_eq!(s.workload.as_deref(), Some("w"));
        // A pure-train journal has no serve section.
        assert!(summarize(&sample()).serve.is_none());
    }

    #[test]
    fn render_contains_serve_section() {
        let s = summarize(&serve_sample());
        let text = render(&s);
        assert!(text.contains("serving"));
        assert!(text.contains("hit rate 0.9423"));
        assert!(text.contains("p50 1.200 ms"));
        assert!(text.contains("embed-forward"));
    }

    #[test]
    fn tagged_summary_breaks_down_per_node_and_collects_alerts() {
        let mut tagged = sample();
        tagged.push(TaggedEvent {
            node_id: 2,
            seq: 0,
            event: JournalEvent::Mark { step: 1, label: "task".into(), detail: "".into() },
        });
        tagged.push(TaggedEvent {
            node_id: 0,
            seq: 99,
            event: JournalEvent::Alert {
                step: 2,
                rule: "heartbeat-gap".into(),
                message: "node 1 lost".into(),
                value: 3.0,
                threshold: 2.0,
            },
        });
        let s = summarize(&tagged);
        assert_eq!(s.per_node.len(), 2);
        assert_eq!(s.per_node[0].node_id, 0);
        assert!((s.per_node[0].charged_seconds - s.journalled_seconds()).abs() < 1e-12);
        assert_eq!(s.per_node[1].node_id, 2);
        assert_eq!(s.per_node[1].marks, 1);
        assert_eq!(s.per_node[1].charged_seconds, 0.0);
        assert_eq!(s.alerts.len(), 1);
        let text = render(&s);
        assert!(text.contains("per node"));
        assert!(text.contains("2 (w1)"));
        assert!(text.contains("alerts (1 fired)"));
        assert!(text.contains("[heartbeat-gap]"));
    }

    #[test]
    fn render_contains_breakdown_and_evals() {
        let s = summarize(&sample());
        let text = render(&s);
        assert!(text.contains("embed-forward"));
        assert!(text.contains("embed-sync"));
        assert!(text.contains("R(50)"));
        assert!(text.contains("total"));
        assert!(text.contains("final accuracy"));
        assert!(text.contains("dense-forward"));
    }
}
