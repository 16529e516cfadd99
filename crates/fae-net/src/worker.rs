//! The worker node: bootstraps a bit-identical replica from the
//! coordinator's `Welcome`, then serves `Task` / `Apply` / `HotBagSync`
//! / `Heartbeat` frames until shutdown, crash injection, or link loss.
//!
//! # Bit-identical bootstrap
//!
//! A worker never receives "most of" the model. The `Welcome` carries
//! the training seed and workload spec; the worker replays the exact
//! model-construction sequence the coordinator ran (`StdRng` from the
//! seed, dense model, then master embeddings — same order, same RNG
//! stream), then fast-forwards the dense parameters from the snapshot in
//! the frame and overlays the shipped hot rows. From that point on,
//! every `Apply` it admits is the same reduced gradient the coordinator
//! applied locally, so the replica tracks the primary bit for bit.
//!
//! # Idempotency
//!
//! State-mutating frames (`Apply`, `HotBagSync`) pass through the
//! epoch/sequence [`Ledger`]; duplicates re-acknowledge without
//! re-applying, stale-epoch traffic is dropped. `Task` frames are pure
//! recomputation and need no gating.
//!
//! # Elasticity
//!
//! [`run_node`] supervises [`run_worker`]: an injected crash or a lost
//! link leads to reconnect-with-backoff, and the rejoin handshake
//! (`Hello` → fresh `Welcome`) rebuilds the replica from current state.

use std::time::Duration;

use fae_core::exec::compute_shard;
use fae_core::faults::{FaultInjector, FaultKind, FaultPlan};
use fae_core::replicator::HotEmbeddings;
use fae_core::trainer::AnyModel;
use fae_data::WorkloadSpec;
use fae_embed::HotColdPartition;
use fae_models::{EmbeddingSource, MasterEmbeddings, RecModel};
use fae_telemetry::{JournalEvent, StepMode, TaggedEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deadline::{dial, Link};
use crate::ledger::{Admit, Ledger};
use crate::wire::{Frame, HotEntry, Message, NetError};
use crate::NetConfig;

/// Why [`run_worker`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator said `Shutdown`: the run is over.
    Finished,
    /// The fault plan scheduled this node's crash: the supervisor should
    /// restart and rejoin with the plan disarmed.
    CrashInjected,
}

/// Everything a node process needs to join a run.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Coordinator address, e.g. `127.0.0.1:7431`.
    pub addr: String,
    /// This node's stable identity (shard index), `0..workers`.
    pub node_id: u32,
    /// Total worker count (for fault-victim selection).
    pub workers: u32,
    /// Timeouts, retry and reconnect policy.
    pub net: NetConfig,
    /// The same seeded fault plan the coordinator runs: both sides
    /// derive the same crash victims without any extra coordination.
    pub plan: FaultPlan,
}

/// The worker's own journal: zero-charge `Mark` events tagged with the
/// node's journal identity (wire id + 1 — the coordinator is journal
/// node 0), encoded to JSONL lines at emission time. The buffer lives
/// in the [`run_node`] supervisor, not the serve loop, so marks survive
/// injected crashes and reconnects; the coordinator drains it with
/// `TelemetryPoll` and the per-line sequence numbers make retried
/// batches idempotent.
pub struct NodeJournal {
    node_id: u64,
    lines: Vec<String>,
}

impl NodeJournal {
    /// An empty journal for wire node `wire_node`.
    pub fn new(wire_node: u32) -> Self {
        Self { node_id: u64::from(wire_node) + 1, lines: Vec::new() }
    }

    /// Records one mark. Marks carry no simulated-time charge: all
    /// simulated seconds stay coordinator-charged, which is what keeps
    /// the merged per-phase invariant a pure node-0 property.
    fn mark(&mut self, step: u64, label: &str, detail: String) {
        let event = JournalEvent::Mark { step, label: label.into(), detail };
        let tagged = TaggedEvent { node_id: self.node_id, seq: self.lines.len() as u64, event };
        self.lines.push(tagged.to_line());
    }

    /// The reply to a poll asking for everything from `ack` on.
    fn batch_from(&self, ack: u64) -> (u64, String) {
        let start = (ack as usize).min(self.lines.len());
        (start as u64, self.lines[start..].join("\n"))
    }
}

/// The worker's replicated training state, built from a `Welcome`.
struct Replica {
    model: AnyModel,
    master: MasterEmbeddings,
    hot: Option<HotEmbeddings>,
    ledger: Ledger,
}

impl Replica {
    fn bootstrap(welcome: &Frame) -> Result<Self, NetError> {
        let Message::Welcome { seed, spec_json, partitions_json, dense, hot, .. } = &welcome.msg
        else {
            return Err(NetError::Protocol(format!(
                "expected welcome, got {}",
                welcome.msg.kind_name()
            )));
        };
        let spec = WorkloadSpec::from_json(spec_json)
            .map_err(|e| NetError::Protocol(format!("welcome spec: {e}")))?;
        // Replay the coordinator's exact construction order so the RNG
        // stream — and therefore every parameter — matches bitwise.
        let mut rng = StdRng::seed_from_u64(*seed);
        let mut model = AnyModel::from_spec(&spec, &mut rng);
        let mut master = MasterEmbeddings::from_spec(&spec, &mut rng);
        model.read_params(dense);
        apply_entries(&mut master, hot);
        let hot_bags = if partitions_json.is_empty() {
            None
        } else {
            let partitions: Vec<HotColdPartition> = serde_json::from_str(partitions_json)
                .map_err(|e| NetError::Protocol(format!("welcome partitions: {e}")))?;
            Some(HotEmbeddings::build(&master, partitions))
        };
        Ok(Self { model, master, hot: hot_bags, ledger: Ledger::new(welcome.epoch) })
    }
}

/// Overlays shipped hot rows onto the master tables, bounds-checked:
/// a corrupt-but-CRC-valid frame must not be able to panic the node.
fn apply_entries(master: &mut MasterEmbeddings, entries: &[HotEntry]) {
    // Row-level writes work in both storage modes — no whole-table view
    // needed, so a tiered master degrades to requantized cold writes
    // instead of panicking.
    for e in entries {
        let t = e.table as usize;
        if t < master.num_tables()
            && (e.row as usize) < master.rows_in(t)
            && e.values.len() == master.dim()
        {
            master.set_row(t, e.row, &e.values);
        }
    }
}

/// Connects, joins, and serves until shutdown / crash injection / link
/// error. The injector is threaded in from the supervisor so a restart
/// can disarm it (a crashed node must not re-crash on replayed steps).
/// `joined` is set once the Welcome handshake completes, so the
/// supervisor can tell a node that never reached the coordinator from
/// one whose coordinator has since gone away.
pub fn run_worker(
    cfg: &NodeConfig,
    injector: &mut FaultInjector,
    joined: &mut bool,
    journal: &mut NodeJournal,
) -> Result<WorkerExit, NetError> {
    let mut link = Link::new(dial(&cfg.addr, cfg.net.connect_timeout_ms)?);
    let hello = Frame { node: cfg.node_id, epoch: 0, seq: 0, step: 0, msg: Message::Hello };
    link.send(&hello, cfg.net.write_timeout_ms)?;
    let welcome = link.recv(cfg.net.welcome_timeout_ms)?;
    let mut replica = Replica::bootstrap(&welcome)?;
    journal.mark(welcome.step, if *joined { "rejoin" } else { "join" }, String::new());
    *joined = true;
    serve(cfg, injector, &mut link, &mut replica, journal)
}

/// The request/reply serve loop.
fn serve(
    cfg: &NodeConfig,
    injector: &mut FaultInjector,
    link: &mut Link,
    replica: &mut Replica,
    journal: &mut NodeJournal,
) -> Result<WorkerExit, NetError> {
    let mut tasks: u64 = 0;
    loop {
        let frame = match link.recv(cfg.net.read_timeout_ms) {
            Ok(f) => f,
            // Quiet link (coordinator busy on a cold phase): keep waiting.
            Err(NetError::Timeout(_)) => continue,
            Err(e) => return Err(e),
        };
        if matches!(frame.msg, Message::Shutdown) {
            let _ = reply(link, &frame, Message::Ack, cfg.net.write_timeout_ms);
            return Ok(WorkerExit::Finished);
        }
        // The crash fault fires on the step stamped into the incoming
        // frame — the same clock the coordinator's own injector reads —
        // and only on the deterministically chosen victim.
        if let Some(f) = injector.fire(FaultKind::WorkerCrash, frame.step) {
            if injector.variation(&f, u64::from(cfg.workers.max(1))) == u64::from(cfg.node_id) {
                journal.mark(frame.step, "crash-inject", String::new());
                return Ok(WorkerExit::CrashInjected);
            }
        }
        if matches!(frame.msg, Message::Task { .. }) {
            tasks += 1;
            if tasks.is_multiple_of(8) {
                journal.mark(frame.step, "task", format!("served={tasks}"));
            }
        }
        let msg = handle(&frame, replica, journal);
        if let Some(msg) = msg {
            // A failed reply means the link is gone mid-exchange; the
            // supervisor reconnects and the coordinator's retry path
            // re-ships whatever was in flight.
            reply(link, &frame, msg, cfg.net.write_timeout_ms)?;
        }
    }
}

/// Computes the reply for one admitted frame; `None` means drop it.
fn handle(frame: &Frame, replica: &mut Replica, journal: &NodeJournal) -> Option<Message> {
    match &frame.msg {
        Message::Heartbeat => Some(Message::HeartbeatAck),
        Message::TelemetryPoll { ack } => {
            // Pure read: resend-from-ack means a retried poll re-ships
            // the same suffix, and the coordinator's ship ledger drops
            // the duplicated prefix. No ledger gating needed.
            let (from, events_jsonl) = journal.batch_from(*ack);
            Some(Message::Telemetry { from, events_jsonl })
        }
        Message::Task { total, mode, shard } => {
            if shard.is_empty() {
                return Some(Message::Ack);
            }
            match (mode, replica.hot.as_ref()) {
                (StepMode::Hot, Some(hot)) => {
                    let out = compute_shard(&mut replica.model, hot, shard, *total as usize);
                    Some(Message::Grads {
                        loss: out.loss,
                        samples: out.samples as u32,
                        dense: out.dense,
                        sparse: out.sparse,
                    })
                }
                // No current hot bags (or a cold task, which the
                // coordinator computes locally): decline with an Ack so
                // the coordinator falls back to its own replica instead
                // of waiting out the deadline.
                _ => Some(Message::Ack),
            }
        }
        Message::Apply { mode, lr, dense, sparse } => {
            match replica.ledger.admit(frame.epoch, frame.seq) {
                Admit::Stale => None,
                Admit::Duplicate => Some(Message::Ack),
                Admit::Fresh => {
                    replica.model.read_grads(dense);
                    replica.model.sgd_step(*lr);
                    if matches!(mode, StepMode::Hot) {
                        if let Some(hot) = replica.hot.as_ref() {
                            hot.apply_shared(sparse, *lr);
                        }
                    }
                    Some(Message::Ack)
                }
            }
        }
        Message::HotBagSync { partitions_json, hot } => {
            match replica.ledger.admit(frame.epoch, frame.seq) {
                Admit::Stale => None,
                Admit::Duplicate => Some(Message::Ack),
                Admit::Fresh => {
                    apply_entries(&mut replica.master, hot);
                    match serde_json::from_str::<Vec<HotColdPartition>>(partitions_json) {
                        Ok(partitions) => {
                            replica.hot = Some(HotEmbeddings::build(&replica.master, partitions));
                            Some(Message::Ack)
                        }
                        // Unparseable partitions: keep serving dense
                        // work, just decline hot shards from here on.
                        Err(_) => {
                            replica.hot = None;
                            Some(Message::Ack)
                        }
                    }
                }
            }
        }
        // Requests only a coordinator should originate.
        _ => None,
    }
}

fn reply(
    link: &mut Link,
    request: &Frame,
    msg: Message,
    write_timeout_ms: u64,
) -> Result<(), NetError> {
    let f = Frame {
        node: request.node,
        epoch: request.epoch,
        seq: request.seq,
        step: request.step,
        msg,
    };
    link.send(&f, write_timeout_ms)
}

/// Deterministic per-(node, attempt) jitter in `0..=ms/2` — SplitMix64
/// over the pair, so colliding restarts fan out without shared state.
fn jitter_ms(node_id: u32, attempt: u32, ms: u64) -> u64 {
    let mut z = (u64::from(node_id) << 32 | u64::from(attempt)).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    if ms == 0 {
        0
    } else {
        z % (ms / 2 + 1)
    }
}

/// True when the error means nothing is listening at the coordinator's
/// address any more, as opposed to a transient link failure worth
/// retrying against a live listener.
fn coordinator_gone(e: &NetError) -> bool {
    matches!(e, NetError::Io(io) if io.kind() == std::io::ErrorKind::ConnectionRefused)
}

/// The node supervisor: runs the worker, and on crash injection or link
/// loss reconnects with jittered exponential backoff (bounded by
/// `reconnect_attempts`). A `Finished` exit ends the process cleanly.
///
/// A node that was severed (partition, crash) near the end of a run may
/// find the coordinator gone before it can rejoin: the listener stays
/// open for the whole run, so a refused dial *after* a successful join
/// means the run completed without us — also a clean exit, not an
/// error. A refused dial before any join still retries, covering nodes
/// started ahead of the coordinator.
pub fn run_node(cfg: NodeConfig) -> Result<(), NetError> {
    let mut injector = FaultInjector::new(cfg.plan.clone());
    let mut attempt: u32 = 0;
    let mut joined = false;
    let mut journal = NodeJournal::new(cfg.node_id);
    loop {
        match run_worker(&cfg, &mut injector, &mut joined, &mut journal) {
            Ok(WorkerExit::Finished) => return Ok(()),
            Ok(WorkerExit::CrashInjected) => {
                // The crash has happened; a restarted node must not
                // replay it when the coordinator re-ships old steps.
                injector = FaultInjector::none();
                attempt = 0;
            }
            Err(e) => {
                if joined && coordinator_gone(&e) {
                    return Ok(());
                }
                attempt += 1;
                if attempt > cfg.net.reconnect_attempts {
                    return Err(e);
                }
            }
        }
        let base = cfg.net.reconnect_base_ms.saturating_mul(1u64 << attempt.min(8));
        let delay = base.min(cfg.net.reconnect_cap_ms);
        std::thread::sleep(Duration::from_millis(
            delay + jitter_ms(cfg.node_id, attempt, delay.max(cfg.net.reconnect_base_ms)),
        ));
    }
}
