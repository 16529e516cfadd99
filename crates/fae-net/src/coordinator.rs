//! The coordinator: a [`StepEngine`] that fans hot-batch shards out to
//! worker nodes and owns membership, failure detection and recovery.
//!
//! # Architecture
//!
//! The coordinator wraps a full [`ParallelEngine`] — `W` bit-identical
//! replicas — exactly as the single-process trainer would. The wire is
//! an *acceleration path*, never the source of truth:
//!
//! * **Hot steps** send shard `k` to live worker `k` (a `Task` frame);
//!   the worker computes against its own bit-identical replica and hot
//!   bags and replies with a `Grads` frame. Shards whose worker is dead,
//!   not yet hot-synced, or mid-failure are computed coordinator-side
//!   with the exact per-worker arithmetic ([`compute_shard`] against
//!   replica `k`), so the reduction is bit-identical either way.
//! * **Cold steps** run entirely coordinator-side (the paper keeps cold
//!   embedding access on the CPU host); workers only receive the reduced
//!   `Apply` so their replicas never drift.
//! * After every step the reduced gradient is posted (`Apply`, or
//!   `ApplyOwn` when the one worker's own reply was the gradient) and
//!   applied locally ([`ParallelEngine::apply_combined`]); its ack is
//!   collected by the next exchange on the link. At every cold→hot
//!   transition the refreshed bags ship as `HotBagSync`.
//!
//! # Failure handling
//!
//! Each RPC retries under the bounded-backoff [`RetryPolicy`], charging
//! simulated backoff seconds to the run's timeline; consecutive missed
//! deadlines feed the per-node [`FailureDetector`], and crossing the
//! suspicion threshold declares the node dead: `NodeLost` + `Reshard`
//! journal events, a [`reshard_cost`] timeline charge, and a
//! [`RecoveryAction::ReshardedToSurvivors`] in the run report. A dead
//! node's shards run coordinator-side until it reconnects; the rejoin
//! handshake (`Hello` → `Welcome`) bumps the membership epoch and ships
//! the current dense parameters plus last hot-bag snapshot. A rejoined
//! worker takes dense `Apply`s immediately but no hot shards until the
//! next `HotBagSync` proves its bags current.
//!
//! All of it surfaces to the trainer through [`NetEvents`] /
//! [`StepEngine::drain_net`], so the journal's phase-sum invariant and
//! the run report see network life exactly like any other fault domain.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use fae_core::exec::{
    compute_shard, reduce_shards, NetEvents, ParallelEngine, ShardOutput, StepEngine,
};
use fae_core::faults::{FaultInjector, FaultKind, FaultPlan, RecoveryAction, RetryPolicy};
use fae_core::replicator::HotEmbeddings;
use fae_core::trainer::AnyModel;
use fae_data::{MiniBatch, WorkloadSpec};
use fae_embed::{HotColdPartition, SparseGrad};
use fae_models::{EmbeddingSource, MasterEmbeddings, RecModel};
use fae_sysmodel::{reshard_cost, sync_cost, Phase, SystemConfig, Timeline};
use fae_telemetry::{metric, JournalEvent, PhaseSeconds, ShipLedger, StepMode, Telemetry};

use crate::deadline::Link;
use crate::detector::FailureDetector;
use crate::wire::{encode_payload, put_task, write_frame, Frame, HotEntry, Message, NetError};
use crate::{NetConfig, READ_TIMEOUT_MS, WELCOME_TIMEOUT_MS, WRITE_TIMEOUT_MS};

/// One worker slot's lifecycle.
enum Slot {
    /// Never joined (yet).
    Vacant,
    /// Connected and admitted.
    Live(Conn),
    /// Declared dead; may rejoin.
    Lost,
}

struct Conn {
    link: Link,
    /// True once this worker's hot bags were synced in the current
    /// refresh window — only then may it take hot shards.
    hot_current: bool,
}

/// The networked [`StepEngine`]. See the module docs for the protocol.
pub struct RemoteEngine {
    inner: ParallelEngine,
    spec_json: String,
    seed: u64,
    workers: usize,
    cfg: NetConfig,
    sys: SystemConfig,
    listener: TcpListener,
    slots: Vec<Slot>,
    detectors: Vec<FailureDetector>,
    epoch: u32,
    next_seq: u64,
    injector: FaultInjector,
    events: NetEvents,
    partitions: Vec<HotColdPartition>,
    partitions_json: String,
    hot_snapshot: Vec<HotEntry>,
    hot_bytes: f64,
    pending_drop: Option<usize>,
    pending_dup: Option<usize>,
    telemetry: Telemetry,
    ship: ShipLedger,
    last_step: u64,
    /// Scratch for a broadcast's payload, encoded once for all workers.
    payload: Vec<u8>,
}

/// Heartbeat every this many steps.
const HEARTBEAT_EVERY_STEPS: u64 = 8;
/// Consecutive missed deadlines before a node is declared dead.
const SUSPICION_THRESHOLD: u32 = 3;
/// How long the initial worker group has to say Hello, milliseconds.
/// Missing workers are treated as lost (their shards run
/// coordinator-side) and may join later.
const INITIAL_WAIT_MS: u64 = 10_000;
/// Per-RPC retry schedule; failed attempts charge their backoff to the
/// simulated timeline.
const RETRY: RetryPolicy =
    RetryPolicy { max_attempts: 3, base_delay_s: 0.05, multiplier: 2.0, max_delay_s: 1.0 };

/// Modeled wire bandwidth for journal shipping: the JSONL batches ride
/// the control plane, so their simulated transfer time is charged to
/// `Phase::Framework` at this rate rather than the data-plane model.
const TELEMETRY_WIRE_BYTES_PER_S: f64 = 1e9;

impl RemoteEngine {
    /// Builds the engine around an already-bound listener, then waits up
    /// to 10 s for `workers` nodes to say Hello.
    /// Workers that miss the window are treated as lost — their shards
    /// run coordinator-side — and may still join later.
    ///
    /// Hellos are held until every slot has sent one, then admitted in
    /// node-id order, so the initial group's epochs never depend on which
    /// node dialled first. A Hello is held at most half the node's
    /// Welcome deadline past the first one held.
    #[expect(
        clippy::too_many_arguments,
        reason = "the model, the workload and the node set of one run"
    )]
    pub fn new(
        model: AnyModel,
        spec: &WorkloadSpec,
        seed: u64,
        workers: usize,
        num_gpus: usize,
        listener: TcpListener,
        cfg: NetConfig,
        plan: FaultPlan,
    ) -> Result<Self, NetError> {
        let workers = workers.max(1);
        listener.set_nonblocking(true).map_err(NetError::Io)?;
        let spec_json =
            spec.to_json().map_err(|e| NetError::Protocol(format!("spec to json: {e}")))?;
        let detectors = vec![FailureDetector::new(SUSPICION_THRESHOLD); workers];
        let initial_wait = Duration::from_millis(INITIAL_WAIT_MS);
        let mut eng = Self {
            inner: ParallelEngine::from_model(model, spec, seed, workers),
            spec_json,
            seed,
            workers,
            cfg,
            sys: SystemConfig::paper_server(num_gpus),
            listener,
            slots: (0..workers).map(|_| Slot::Vacant).collect(),
            detectors,
            epoch: 0,
            next_seq: 0,
            injector: FaultInjector::new(plan),
            events: NetEvents::default(),
            partitions: Vec::new(),
            partitions_json: String::new(),
            hot_snapshot: Vec::new(),
            hot_bytes: 0.0,
            pending_drop: None,
            pending_dup: None,
            telemetry: Telemetry::disabled(),
            ship: ShipLedger::new(workers),
            last_step: 0,
            payload: Vec::new(),
        };
        let deadline = Instant::now() + initial_wait;
        let hold = Duration::from_millis(WELCOME_TIMEOUT_MS / 2);
        let mut held: Vec<(usize, Link)> = Vec::new();
        let mut held_since: Option<Instant> = None;
        loop {
            held.extend(eng.accept_hellos());
            let now = Instant::now();
            held_since = if held.is_empty() { None } else { held_since.or(Some(now)) };
            let every_slot = (0..eng.workers).all(|k| {
                matches!(eng.slots[k], Slot::Live(_)) || held.iter().any(|(n, _)| *n == k)
            });
            if every_slot || now >= deadline || held_since.is_some_and(|t| now >= t + hold) {
                eng.admit_in_order(std::mem::take(&mut held), 0);
            }
            if eng.live_count() == eng.workers || now >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(eng)
    }

    /// Live (admitted, not declared dead) worker count.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::Live(_))).count()
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    fn bump_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Accepts every pending connection and admits the nodes that said
    /// Hello. Joins are only admitted here — at a step boundary — so a
    /// crash and its rejoin can never interleave within one step's
    /// fan-out.
    fn drain_joins(&mut self, step: u64) {
        let hellos = self.accept_hellos();
        self.admit_in_order(hellos, step);
    }

    /// Every pending connection whose first frame is a Hello from a
    /// valid slot, as `(node, link)`, in accept order.
    fn accept_hellos(&mut self) -> Vec<(usize, Link)> {
        let mut hellos = Vec::new();
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let mut link = Link::new(stream);
            let Ok(hello) = link.recv(READ_TIMEOUT_MS) else { continue };
            let node = hello.node as usize;
            if matches!(hello.msg, Message::Hello) && node < self.workers {
                hellos.push((node, link));
            }
        }
        hellos
    }

    /// Admits `hellos` in node-id order, never accept order: every admit
    /// bumps the epoch, so the order is part of the journal.
    fn admit_in_order(&mut self, mut hellos: Vec<(usize, Link)>, step: u64) {
        hellos.sort_by_key(|(node, _)| *node);
        for (node, link) in hellos {
            self.admit(node, link, step);
        }
    }

    /// The join handshake after the Hello: Welcome (current params +
    /// hot-bag snapshot) out, epoch bump, journal + recovery bookkeeping.
    fn admit(&mut self, node: usize, mut link: Link, step: u64) {
        // A Hello for a slot we still believe is live means the old
        // socket is a zombie (fast crash + restart): declare the loss
        // first so NodeLost always precedes the rejoin's NodeJoin.
        if matches!(self.slots[node], Slot::Live(_)) {
            self.declare_dead(node, step, 0);
        }
        let rejoining = matches!(self.slots[node], Slot::Lost);
        let mut dense = Vec::new();
        self.inner.primary_ref().write_params(&mut dense);
        let dense_bytes = dense.len() * 4;
        let hot_bytes: usize = self.hot_snapshot.iter().map(HotEntry::wire_bytes).sum();
        let state_bytes = (dense_bytes + hot_bytes + self.partitions_json.len()) as u64;
        self.epoch += 1;
        let welcome = Frame {
            node: node as u32,
            epoch: self.epoch,
            seq: self.bump_seq(),
            step,
            msg: Message::Welcome {
                workers: self.workers as u32,
                seed: self.seed,
                spec_json: self.spec_json.clone(),
                partitions_json: self.partitions_json.clone(),
                dense,
                hot: self.hot_snapshot.clone(),
            },
        };
        if link.send(&welcome, WRITE_TIMEOUT_MS).is_err() {
            self.epoch -= 1;
            return;
        }
        // Admitted with stale bags: dense Applys flow immediately, hot
        // shards wait for the next HotBagSync.
        self.slots[node] = Slot::Live(Conn { link, hot_current: false });
        self.detectors[node].reset();
        self.events.journal.push(JournalEvent::NodeJoin {
            step,
            node: node as u64,
            epoch: self.epoch as u64,
            state_bytes,
        });
        // Shipping state to a (re)joining node is modeled like a
        // reshard: communicator re-init, parameter broadcast, bag
        // replication.
        let cost = reshard_cost(&self.sys, dense_bytes as f64, self.hot_bytes);
        self.events.journal.push(JournalEvent::Charge {
            step,
            label: "rejoin-ship".into(),
            phases: PhaseSeconds::delta(&Timeline::new(), &cost),
        });
        self.events.event_charges.merge(&cost);
        if rejoining {
            self.events.recoveries.push(RecoveryAction::NodeRejoined {
                step,
                node: node as u32,
                state_bytes,
            });
        }
        self.telemetry.counter_add(metric!("net.joins"), 1);
    }

    /// Declares worker `node` dead: severs the socket, bumps the epoch,
    /// journals the loss and the reshard, and charges the reshard to the
    /// timeline. Idempotent for already-dead slots.
    fn declare_dead(&mut self, node: usize, step: u64, suspicion: u32) {
        let Slot::Live(conn) = &self.slots[node] else { return };
        conn.link.shutdown();
        self.slots[node] = Slot::Lost;
        self.epoch += 1;
        let live = self.live_count() as u64;
        self.events.journal.push(JournalEvent::NodeLost {
            step,
            node: node as u64,
            suspicion: suspicion as u64,
        });
        let dense_bytes = (self.inner.primary_ref().dense_param_count() * 4) as f64;
        let cost = reshard_cost(&self.sys, dense_bytes, self.hot_bytes);
        self.events.journal.push(JournalEvent::Reshard {
            step,
            node: node as u64,
            live,
            phases: PhaseSeconds::delta(&Timeline::new(), &cost),
        });
        self.events.event_charges.merge(&cost);
        self.events.recoveries.push(RecoveryAction::ReshardedToSurvivors {
            step,
            node: node as u32,
            live: live as u32,
        });
        self.telemetry.counter_add(metric!("net.nodes_lost"), 1);
    }

    /// True when worker `k` may be sent work of `mode`.
    fn eligible(&self, k: usize, mode: StepMode) -> bool {
        match &self.slots[k] {
            Slot::Live(c) => !matches!(mode, StepMode::Hot) || c.hot_current,
            _ => false,
        }
    }

    /// One request/reply exchange with worker `k`, through the retry,
    /// backoff and suspicion machinery. On final failure the node may be
    /// declared dead (threshold crossing).
    fn send_rpc(&mut self, k: usize, msg: &Message, step: u64) -> Result<Option<Frame>, NetError> {
        self.exchange(k, msg.tag(), step, false, |out| encode_payload(msg, out))
    }

    /// [`RemoteEngine::send_rpc`] with the payload bytes supplied by the
    /// caller, so a broadcast can encode them once. With `post`, a frame
    /// written in full returns `Ok(None)` without awaiting its reply: the
    /// next exchange on the link skips it as a lower-`seq` reply. A frame
    /// that a `net-drop` or `net-duplicate` is armed for, or whose write
    /// fails, takes the awaited path, so faults land and charge as for
    /// any request.
    fn exchange(
        &mut self,
        k: usize,
        tag: u8,
        step: u64,
        post: bool,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Option<Frame>, NetError> {
        let drop_first = self.pending_drop == Some(k);
        if drop_first {
            self.pending_drop = None;
        }
        let dup_send = self.pending_dup == Some(k);
        if dup_send {
            self.pending_dup = None;
        }
        let seq = self.bump_seq();
        let epoch = self.epoch;
        let r = match &mut self.slots[k] {
            Slot::Live(conn) => {
                conn.link.stage(|tx| write_frame(tx, tag, k as u32, epoch, seq, step, payload));
                let armed = drop_first || dup_send;
                if post && !armed && conn.link.flush(WRITE_TIMEOUT_MS).is_ok() {
                    return Ok(None);
                }
                rpc(
                    &mut conn.link,
                    &mut self.detectors[k],
                    &mut self.events,
                    seq,
                    drop_first,
                    dup_send,
                )
                .map(Some)
            }
            _ => Err(NetError::Disconnected),
        };
        if r.is_err() && self.detectors[k].is_dead() {
            let suspicion = self.detectors[k].suspicion();
            self.declare_dead(k, step, suspicion);
        }
        r
    }

    /// Sends `msg` to every live worker, its payload encoded once, posted
    /// or awaited as [`RemoteEngine::exchange`]'s `post`; `acked` sees
    /// each connection whose worker replied.
    fn broadcast(
        &mut self,
        step: u64,
        msg: &Message,
        post: bool,
        mut acked: impl FnMut(&mut Conn),
    ) {
        if self.live_count() == 0 {
            return;
        }
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        encode_payload(msg, &mut payload);
        for k in 0..self.workers {
            if !matches!(self.slots[k], Slot::Live(_)) {
                continue;
            }
            let sent =
                self.exchange(k, msg.tag(), step, post, |out| out.extend_from_slice(&payload));
            if let (Ok(Some(_)), Slot::Live(conn)) = (sent, &mut self.slots[k]) {
                acked(conn);
            }
        }
        self.payload = payload;
    }

    /// Fires any scheduled network faults due at `step` and arms their
    /// effects. The worker-crash kind is recorded for the report only:
    /// the victim's own injector (same plan, same seed, same variation)
    /// kills the process, and this side discovers it through the reply
    /// deadline.
    fn fire_net_faults(&mut self, step: u64) {
        let w = self.workers as u64;
        if let Some(f) = self.injector.fire(FaultKind::NetDrop, step) {
            self.pending_drop = Some(self.injector.variation(&f, w) as usize);
            self.record_fault(f, step);
        }
        if let Some(f) = self.injector.fire(FaultKind::NetDuplicate, step) {
            self.pending_dup = Some(self.injector.variation(&f, w) as usize);
            self.record_fault(f, step);
        }
        if let Some(f) = self.injector.fire(FaultKind::NetDelay, step) {
            let stall = 0.005 * (1 + self.injector.variation(&f, 8)) as f64;
            self.events.step_charges.add(Phase::Framework, stall);
            self.record_fault(f, step);
        }
        if let Some(f) = self.injector.fire(FaultKind::NetPartition, step) {
            let victim = self.injector.variation(&f, w) as usize;
            self.record_fault(f, step);
            self.declare_dead(victim, step, 0);
        }
        if let Some(f) = self.injector.fire(FaultKind::WorkerCrash, step) {
            self.record_fault(f, step);
        }
    }

    fn record_fault(&mut self, f: fae_core::faults::InjectedFault, step: u64) {
        self.events.journal.push(JournalEvent::Fault { step, kind: f.kind.as_str().to_string() });
        self.events.faults.push(f);
    }

    /// Drains every live worker's buffered journal events into per-node
    /// sidecar journals. The ship ledger's ack cursor plus the worker's
    /// resend-from-ack reply make delivery exactly-once even when a
    /// poll is retried or a reply is lost; the batch's simulated
    /// transfer time is charged to `Phase::Framework`.
    fn poll_telemetry(&mut self, step: u64) {
        for k in 0..self.workers {
            if !matches!(self.slots[k], Slot::Live(_)) {
                continue;
            }
            let ack = self.ship.ack(k);
            let Ok(Some(reply)) = self.send_rpc(k, &Message::TelemetryPoll { ack }, step) else {
                continue;
            };
            let Message::Telemetry { from, events_jsonl } = reply.msg else { continue };
            let lines: Vec<&str> = events_jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
            let Some(skip) = self.ship.admit(k, from, lines.len() as u64) else { continue };
            let fresh = &lines[(skip as usize).min(lines.len())..];
            if fresh.is_empty() {
                continue;
            }
            let batch = fresh.join("\n");
            self.events
                .step_charges
                .add(Phase::Framework, batch.len() as f64 / TELEMETRY_WIRE_BYTES_PER_S);
            self.telemetry.ship_lines(k as u64, &batch);
            self.telemetry.counter_add(metric!("net.telemetry_lines"), fresh.len() as u64);
        }
    }

    /// Probes every live worker; misses feed the failure detector.
    fn heartbeat(&mut self, step: u64) {
        for k in 0..self.workers {
            if matches!(self.slots[k], Slot::Live(_)) {
                let _ = self.send_rpc(k, &Message::Heartbeat, step);
            }
        }
    }

    /// The step: remote fan-out for eligible hot shards, local
    /// [`compute_shard`] for everything else, then the worker-index-order
    /// reduction — bit-identical to [`ParallelEngine::step`]. W = 1 is
    /// the one-shard case. The flag is true when the gradient is the lone
    /// worker's `Grads` reply as received, which that worker still holds.
    fn step_sharded<E>(
        &mut self,
        emb: &E,
        batch: &MiniBatch,
        step: u64,
        mode: StepMode,
    ) -> (f32, Vec<f32>, Vec<SparseGrad>, bool)
    where
        E: EmbeddingSource + Sync,
    {
        let n = batch.len();
        let shards = batch.shards(self.workers);
        let mut outputs: Vec<Option<ShardOutput>> = Vec::new();
        outputs.resize_with(self.workers, || None);
        let mut replies = 0;
        if matches!(mode, StepMode::Hot) {
            for k in 0..self.workers {
                if shards[k].is_empty() || !self.eligible(k, mode) {
                    continue;
                }
                let task = |out: &mut Vec<u8>| put_task(out, n as u32, mode, &shards[k]);
                if let Ok(Some(reply)) = self.exchange(k, Message::TASK, step, false, task) {
                    if let Message::Grads { loss, samples, dense, sparse } = reply.msg {
                        outputs[k] =
                            Some(ShardOutput { loss, samples: samples as usize, dense, sparse });
                        replies += 1;
                    }
                }
            }
        }
        // Orphan shards (dead, stale-bagged or mid-failure workers) and
        // every cold shard: the exact per-worker arithmetic, locally.
        for (k, shard) in shards.iter().enumerate() {
            if outputs[k].is_none() && !shard.is_empty() {
                outputs[k] = Some(compute_shard(self.inner.replica_mut(k), emb, shard, n));
            }
        }
        let own = shards.len() == 1 && replies == 1;
        let (loss, dense, sparse) = reduce_shards(outputs, n, emb.num_tables(), emb.dim());
        (loss, dense, sparse, own)
    }
}

impl StepEngine for RemoteEngine {
    fn engine_step<E>(
        &mut self,
        emb: &E,
        batch: &MiniBatch,
        step: u64,
        mode: StepMode,
        lr: f32,
    ) -> (f32, Vec<SparseGrad>)
    where
        E: EmbeddingSource + Sync,
    {
        self.drain_joins(step);
        self.fire_net_faults(step);
        self.last_step = step;
        if step > 0 && step.is_multiple_of(HEARTBEAT_EVERY_STEPS) {
            self.heartbeat(step);
        }
        let tp = self.cfg.telemetry_every_steps;
        if tp > 0 && self.telemetry.enabled() && step > 0 && step.is_multiple_of(tp) {
            self.poll_telemetry(step);
        }
        let (loss, dense, mut sparse, own) = self.step_sharded(emb, batch, step, mode);
        self.inner.apply_combined(&dense, lr);
        // Post the step to every live worker so replicas stay
        // bit-identical: one `Apply`, built here and lent to each send
        // (cold steps ship the dense half only), or an `ApplyOwn` naming
        // the one worker's unreduced reply. The ack is collected by the
        // next exchange on the link. A worker whose Apply never landed
        // cannot answer that exchange either, so it is declared dead
        // before its replica is used again, which is what keeps remote
        // replicas trustworthy.
        let hot = matches!(mode, StepMode::Hot);
        let apply = if own {
            Message::ApplyOwn { mode, lr }
        } else {
            let shipped = if hot { std::mem::take(&mut sparse) } else { Vec::new() };
            Message::Apply { mode, lr, dense, sparse: shipped }
        };
        self.broadcast(step, &apply, true, |_| {});
        if let (true, Message::Apply { sparse: shipped, .. }) = (hot, apply) {
            sparse = shipped;
        }
        (loss, sparse)
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn primary(&mut self) -> &mut AnyModel {
        self.inner.primary()
    }

    fn primary_ref(&self) -> &AnyModel {
        self.inner.primary_ref()
    }

    fn broadcast_params(&mut self) {
        self.inner.broadcast_params();
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry.clone();
        self.inner.set_telemetry(telemetry);
    }

    fn on_refresh(&mut self, step: u64, master: &MasterEmbeddings, hot: &HotEmbeddings) {
        self.partitions = hot.partitions().to_vec();
        self.partitions_json = serde_json::to_string(hot.partitions()).unwrap_or_default();
        self.hot_snapshot = snapshot_entries(master, &self.partitions);
        self.hot_bytes = hot.hot_bytes() as f64;
        // Replicating the bags across the node group rides the same
        // modeled path as a schedule-transition sync.
        self.events.step_charges.merge(&sync_cost(&self.sys, self.hot_bytes));
        let sync = Message::HotBagSync {
            partitions_json: self.partitions_json.clone(),
            hot: self.hot_snapshot.clone(),
        };
        self.broadcast(step, &sync, false, |conn| conn.hot_current = true);
    }

    fn on_write_back(&mut self, _step: u64, master: &MasterEmbeddings) {
        // The trainer just folded the hot bags back into the master, so
        // re-snapshot: a worker rejoining mid-cold-phase now gets
        // current rows in its Welcome.
        if !self.partitions.is_empty() {
            self.hot_snapshot = snapshot_entries(master, &self.partitions);
        }
    }

    fn on_cold_only(&mut self, _step: u64) {
        // The run degraded to CPU-only execution: no further hot shards
        // will be fanned out, so no worker's bags can be current.
        for slot in &mut self.slots {
            if let Slot::Live(c) = slot {
                c.hot_current = false;
            }
        }
    }

    fn drain_net(&mut self) -> NetEvents {
        std::mem::take(&mut self.events)
    }
}

impl Drop for RemoteEngine {
    fn drop(&mut self) {
        // Last drain: marks buffered since the final in-step poll (end
        // of run tasks, a late rejoin) would otherwise be lost.
        if self.cfg.telemetry_every_steps > 0 && self.telemetry.enabled() {
            self.poll_telemetry(self.last_step);
        }
        for k in 0..self.workers {
            self.next_seq += 1;
            let frame = Frame {
                node: k as u32,
                epoch: self.epoch,
                seq: self.next_seq,
                step: 0,
                msg: Message::Shutdown,
            };
            if let Slot::Live(conn) = &mut self.slots[k] {
                let _ = conn.link.send(&frame, WRITE_TIMEOUT_MS);
            }
        }
    }
}

/// Extracts every hot row of every table — the payload of a
/// `HotBagSync` and the bag half of a `Welcome`.
fn snapshot_entries(master: &MasterEmbeddings, partitions: &[HotColdPartition]) -> Vec<HotEntry> {
    // Row-level reads work in both storage modes, so a tiered master
    // (never built on the distributed path today) would still snapshot
    // instead of panicking.
    let mut out = Vec::new();
    for (t, p) in partitions.iter().enumerate().take(master.num_tables()) {
        for &g in p.hot_ids() {
            out.push(HotEntry { table: t as u32, row: g, values: master.row(t, g) });
        }
    }
    out
}

/// One deadline-bounded request/reply exchange with retries over the
/// frame already staged on `link`: every failed attempt charges its
/// simulated backoff to the step's timeline and feeds the failure
/// detector; any success clears suspicion. Reply frames with a lower
/// `seq` than the request are acks of posted frames or duplicates of
/// earlier replies (lost-ack retransmits, `net-duplicate` injection) and
/// are skipped without consuming an attempt.
fn rpc(
    link: &mut Link,
    det: &mut FailureDetector,
    events: &mut NetEvents,
    seq: u64,
    drop_first_send: bool,
    duplicate_send: bool,
) -> Result<Frame, NetError> {
    let attempts = RETRY.max_attempts;
    let mut last = NetError::Timeout("rpc gave up");
    for attempt in 1..=attempts {
        let miss = |events: &mut NetEvents, det: &mut FailureDetector, e: NetError| {
            events.step_charges.add(Phase::Framework, RETRY.backoff_delay(attempt));
            det.record_timeout();
            e
        };
        if !(attempt == 1 && drop_first_send) {
            if let Err(e) = link.flush(WRITE_TIMEOUT_MS) {
                last = miss(events, det, e);
                continue;
            }
            if attempt == 1 && duplicate_send {
                // Deliver the identical frame twice: the worker-side
                // ledger must make the replay a no-op.
                let _ = link.flush(WRITE_TIMEOUT_MS);
            }
        }
        loop {
            match link.recv(READ_TIMEOUT_MS) {
                Ok(reply) if reply.seq == seq => {
                    det.record_ok();
                    return Ok(reply);
                }
                Ok(reply) if reply.seq < seq => continue,
                Ok(reply) => {
                    last = miss(
                        events,
                        det,
                        NetError::Protocol(format!(
                            "reply seq {} from the future (request {seq})",
                            reply.seq
                        )),
                    );
                    break;
                }
                Err(e) => {
                    last = miss(events, det, e);
                    break;
                }
            }
        }
    }
    Err(last)
}
