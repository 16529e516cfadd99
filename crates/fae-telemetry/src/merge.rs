//! Cross-node journal merging: N per-node JSONL streams in, one
//! globally-ordered stream out.
//!
//! Ordering rules (DESIGN.md §13): the coordinator's journal (node 0)
//! owns the simulated clock — its events are placed at the cumulative
//! per-phase total at the moment each event was emitted. Worker events
//! carry no simulated charge; they are anchored at the clock value of
//! the coordinator step they are tagged with. Ties break on
//! `(step, node_id, seq)`, and the sort is stable, so each node's own
//! emission order is always preserved.
//!
//! Merging is idempotent: events are identified by `(node_id, seq)` and
//! duplicated deliveries (retried ship batches, re-read journals,
//! overlapping files) collapse to one copy — the exactly-once property
//! the observability plane's tests gate on.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::journal::{JournalEvent, TaggedEvent};

/// Tolerance for the per-phase time-accounting invariant, matching the
/// single-journal gate used since PR 1.
pub const INVARIANT_TOLERANCE: f64 = 1e-6;

/// What a merge did: how many events survived, how many duplicate
/// `(node_id, seq)` deliveries were collapsed, and which nodes appeared.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeStats {
    /// Events in the merged stream.
    pub total: usize,
    /// Duplicate deliveries dropped.
    pub duplicates: usize,
    /// Distinct originating node ids, ascending.
    pub nodes: Vec<u64>,
}

/// Merges N per-node streams into one globally-ordered, exactly-once
/// stream. Inputs may contain duplicates, overlap each other, or be
/// internally out of order — `(node_id, seq)` identity and the stable
/// clock sort repair all three.
pub fn merge_tagged(streams: &[Vec<TaggedEvent>]) -> (Vec<TaggedEvent>, MergeStats) {
    // Exactly-once: collapse on (node_id, seq), first delivery wins.
    // The BTreeMap simultaneously restores each node's seq order.
    let mut unique: BTreeMap<(u64, u64), TaggedEvent> = BTreeMap::new();
    let mut duplicates = 0usize;
    for stream in streams {
        for t in stream {
            match unique.entry((t.node_id, t.seq)) {
                Entry::Occupied(_) => duplicates += 1,
                Entry::Vacant(slot) => {
                    slot.insert(t.clone());
                }
            }
        }
    }
    let unique: Vec<TaggedEvent> = unique.into_values().collect();
    let mut nodes: Vec<u64> = unique.iter().map(|t| t.node_id).collect();
    nodes.dedup();

    let mut timed: Vec<(f64, TaggedEvent)> = event_times(&unique).into_iter().zip(unique).collect();
    timed.sort_by(|(ta, a), (tb, b)| {
        ta.partial_cmp(tb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.event.step().cmp(&b.event.step()))
            .then(a.node_id.cmp(&b.node_id))
            .then(a.seq.cmp(&b.seq))
    });
    let merged: Vec<TaggedEvent> = timed.into_iter().map(|(_, t)| t).collect();

    let stats = MergeStats { total: merged.len(), duplicates, nodes };
    (merged, stats)
}

/// Assigns every event in a stream its simulated clock value, in
/// seconds — the one place a stream becomes instants. Node 0 owns the
/// clock: walking its events in stream order, each sits at the
/// cumulative phase total *before* its own charge. A worker event sits
/// at the clock of the first coordinator event of the latest step at or
/// before its anchor step (clock zero before the first known step).
/// [`merge_tagged`] sorts by these values and the merged trace exporter
/// places instants at them.
pub fn event_times(events: &[TaggedEvent]) -> Vec<f64> {
    let mut clock = 0.0f64;
    let mut step_start: BTreeMap<u64, f64> = BTreeMap::new();
    let mut times = vec![0.0f64; events.len()];
    for (time, t) in times.iter_mut().zip(events).filter(|(_, t)| t.node_id == 0) {
        step_start.entry(t.event.step()).or_insert(clock);
        *time = clock;
        if let Some(p) = t.event.phases() {
            clock += p.total();
        }
    }
    for (time, t) in times.iter_mut().zip(events).filter(|(_, t)| t.node_id != 0) {
        *time = step_start.range(..=t.event.step()).next_back().map_or(0.0, |(_, tm)| *tm);
    }
    times
}

/// The per-phase time-accounting invariant, extended across nodes: each
/// node's charged seconds, the global sum, and the run's own report.
#[derive(Clone, Debug, PartialEq)]
pub struct MergedInvariant {
    /// `(node_id, charged simulated seconds)` per originating node.
    pub per_node: Vec<(u64, f64)>,
    /// Sum of every phase charge across all nodes.
    pub global: f64,
    /// `simulated_seconds` from the stream's `run_end`, if present.
    pub reported: Option<f64>,
}

/// Checks the merged invariant: per-node charges are accounted, their
/// sum is the global total, and — when the stream carries a `run_end` —
/// the global total reproduces `simulated_seconds` within
/// [`INVARIANT_TOLERANCE`].
pub fn check_invariant(events: &[TaggedEvent]) -> Result<MergedInvariant, String> {
    let mut per_node: BTreeMap<u64, f64> = BTreeMap::new();
    let mut reported = None;
    for t in events {
        let slot = per_node.entry(t.node_id).or_insert(0.0);
        if let Some(p) = t.event.phases() {
            *slot += p.total();
        }
        if let JournalEvent::RunEnd { simulated_seconds, .. } = &t.event {
            reported = Some(*simulated_seconds);
        }
    }
    let global: f64 = per_node.values().sum();
    let inv = MergedInvariant { per_node: per_node.into_iter().collect(), global, reported };
    if let Some(r) = reported {
        let drift = (global - r).abs();
        if drift > INVARIANT_TOLERANCE {
            return Err(format!(
                "merged invariant violated: journalled {global:.9}s vs reported {r:.9}s \
                 (drift {drift:.3e} > {INVARIANT_TOLERANCE:.0e})"
            ));
        }
    }
    Ok(inv)
}

/// The coordinator-side shipping ledger: a per-node high-water mark of
/// acknowledged journal lines. Workers resend from the acknowledged
/// cursor, so retried or duplicated batches are admitted at most once
/// and a reply from before the cursor contributes only its unseen tail.
#[derive(Clone, Debug, Default)]
pub struct ShipLedger {
    acks: Vec<u64>,
}

impl ShipLedger {
    /// A ledger for `nodes` wire nodes, all cursors at zero.
    pub fn new(nodes: usize) -> Self {
        ShipLedger { acks: vec![0; nodes] }
    }

    /// The acknowledged cursor for `node`: the seq the next poll asks for.
    pub fn ack(&self, node: usize) -> u64 {
        self.acks.get(node).copied().unwrap_or(0)
    }

    /// Admits a batch of `count` lines starting at seq `from`. Returns
    /// how many leading lines are already-acknowledged duplicates to
    /// skip; `None` means the batch starts past the cursor (a gap — the
    /// caller must drop it and re-poll from the cursor).
    pub fn admit(&mut self, node: usize, from: u64, count: u64) -> Option<u64> {
        let ack = self.acks.get_mut(node)?;
        if from > *ack {
            return None;
        }
        let skip = *ack - from;
        if count > skip {
            *ack = from + count;
        }
        Some(skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::PhaseSeconds;

    fn step(step: u64, secs: f64) -> JournalEvent {
        JournalEvent::Step {
            step,
            mode: crate::journal::StepMode::Hot,
            rate: 50,
            loss: 0.5,
            phases: PhaseSeconds([secs, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        }
    }

    fn mark(step: u64, label: &str) -> JournalEvent {
        JournalEvent::Mark { step, label: label.into(), detail: String::new() }
    }

    fn tag(node_id: u64, seq: u64, event: JournalEvent) -> TaggedEvent {
        TaggedEvent { node_id, seq, event }
    }

    fn coordinator_stream() -> Vec<TaggedEvent> {
        vec![
            tag(0, 0, step(1, 0.25)),
            tag(0, 1, step(2, 0.25)),
            tag(0, 2, step(3, 0.5)),
            tag(
                0,
                3,
                JournalEvent::RunEnd {
                    steps: 3,
                    hot_steps: 3,
                    cold_steps: 0,
                    transitions: 0,
                    simulated_seconds: 1.0,
                    final_accuracy: 0.5,
                    final_rate: None,
                    interrupted: false,
                },
            ),
        ]
    }

    #[test]
    fn worker_events_interleave_at_their_step_anchor() {
        let workers = vec![tag(1, 0, mark(2, "task")), tag(2, 0, mark(3, "task"))];
        let (merged, stats) = merge_tagged(&[coordinator_stream(), workers]);
        assert_eq!(stats.total, 6);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.nodes, vec![0, 1, 2]);
        let order: Vec<(u64, u64)> = merged.iter().map(|t| (t.node_id, t.seq)).collect();
        // Marks anchor at the start of their step and tie-break after
        // the coordinator's own record of that step (lower node id wins).
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (0, 3)]);
    }

    #[test]
    fn duplicated_and_out_of_order_batches_merge_exactly_once() {
        let coord = coordinator_stream();
        let mut shuffled = coord.clone();
        shuffled.reverse();
        let dupes = coord.clone();
        let (merged, stats) = merge_tagged(&[coord.clone(), shuffled, dupes]);
        assert_eq!(stats.total, 4);
        assert_eq!(stats.duplicates, 8);
        assert_eq!(merged, coord, "first delivery wins and order is restored");
    }

    #[test]
    fn invariant_holds_globally_and_reports_per_node() {
        let workers = vec![tag(1, 0, mark(1, "join"))];
        let (merged, _) = merge_tagged(&[coordinator_stream(), workers]);
        let inv = check_invariant(&merged).expect("invariant");
        assert_eq!(inv.reported, Some(1.0));
        assert!((inv.global - 1.0).abs() < 1e-12);
        assert_eq!(inv.per_node.len(), 2);
        assert!((inv.per_node[0].1 - 1.0).abs() < 1e-12, "node 0 owns all charges");
        assert_eq!(inv.per_node[1].1, 0.0, "worker marks charge nothing");
    }

    #[test]
    fn invariant_violation_is_detected() {
        let mut coord = coordinator_stream();
        coord.push(tag(0, 4, step(4, 0.5))); // extra unreported charge
        assert!(check_invariant(&coord).is_err());
    }

    #[test]
    fn ship_ledger_dedupes_retries_and_rejects_gaps() {
        let mut l = ShipLedger::new(2);
        assert_eq!(l.admit(0, 0, 3), Some(0), "fresh batch admitted in full");
        assert_eq!(l.ack(0), 3);
        assert_eq!(l.admit(0, 0, 3), Some(3), "full retry skipped entirely");
        assert_eq!(l.admit(0, 2, 4), Some(1), "overlap contributes its tail");
        assert_eq!(l.ack(0), 6);
        assert_eq!(l.admit(0, 9, 1), None, "gap rejected");
        assert_eq!(l.ack(0), 6);
        assert_eq!(l.ack(1), 0, "nodes are independent");
        assert_eq!(l.admit(5, 0, 1), None, "unknown node rejected");
    }
}
