//! Deterministic fault injection for the FAE training pipeline.
//!
//! Production DLRM training runs for days; GPUs drop out of the
//! data-parallel group, hot-bag replication can exceed the memory budget
//! `L`, CPU↔GPU syncs fail transiently and artifact files get torn or
//! corrupted. This module provides the machinery to *simulate* those
//! failures reproducibly so the recovery paths in [`crate::trainer`]
//! and [`crate::artifacts`] are exercised by tests instead of discovered
//! in production:
//!
//! * [`FaultPlan`] — a declarative schedule of faults, parseable from a
//!   compact spec string (`"device-loss@120,sync-failure@300"`),
//! * [`FaultInjector`] — consumes the plan during a run; every decision
//!   (including how many retries a transient fault needs) is a pure
//!   function of the plan's seed, so an interrupted-and-resumed run
//!   observes exactly the same faults as an uninterrupted one,
//! * [`RetryPolicy`] / [`retry_with_backoff`] — bounded exponential
//!   backoff for transient failures, with the waited time reported so
//!   callers can charge it to the [`fae_sysmodel::Timeline`],
//! * [`RecoveryAction`] — the record of what the pipeline did about each
//!   fault, surfaced in `TrainReport`.

use std::fmt;
use std::str::FromStr;

use fae_telemetry::{JournalEvent, Telemetry};

/// The failure modes the injector can simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A GPU drops out of the data-parallel group at training step `at`.
    DeviceLoss,
    /// Replicating the hot bags onto the GPUs fails (budget/OOM) at step
    /// `at`; the run falls back to CPU-only cold execution.
    ReplicationOom,
    /// A hot↔cold embedding sync fails at the first transition at or
    /// after step `at` and must be retried.
    SyncFailure,
    /// The artifact file on disk is corrupted before it is loaded
    /// (`at` is ignored; the fault applies to the next load).
    ArtifactCorruption,
    /// A transient I/O error: the next I/O operation at or after step
    /// `at` fails a bounded number of times before succeeding.
    TransientIo,
    /// Network: the next coordinator→worker frame at or after step `at`
    /// is silently dropped; the reply deadline expires and the frame is
    /// retried.
    NetDrop,
    /// Network: a frame is delayed in flight at step `at`; the wire
    /// layer charges the stall to the timeline.
    NetDelay,
    /// Network: the link to one worker (chosen by
    /// [`FaultInjector::variation`]) is severed at step `at`; the worker
    /// must reconnect and rejoin.
    NetPartition,
    /// Network: a frame is delivered twice at step `at`; the epoch/seq
    /// dedup layer must make the replay a no-op.
    NetDuplicate,
    /// A whole worker process (chosen by [`FaultInjector::variation`])
    /// crashes at step `at`; the coordinator resharding + rejoin path
    /// must recover it.
    WorkerCrash,
}

impl FaultKind {
    /// Stable wire tag (checkpoint container).
    pub fn tag(self) -> u8 {
        match self {
            FaultKind::DeviceLoss => 0,
            FaultKind::ReplicationOom => 1,
            FaultKind::SyncFailure => 2,
            FaultKind::ArtifactCorruption => 3,
            FaultKind::TransientIo => 4,
            FaultKind::NetDrop => 5,
            FaultKind::NetDelay => 6,
            FaultKind::NetPartition => 7,
            FaultKind::NetDuplicate => 8,
            FaultKind::WorkerCrash => 9,
        }
    }

    /// Inverse of [`FaultKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => FaultKind::DeviceLoss,
            1 => FaultKind::ReplicationOom,
            2 => FaultKind::SyncFailure,
            3 => FaultKind::ArtifactCorruption,
            4 => FaultKind::TransientIo,
            5 => FaultKind::NetDrop,
            6 => FaultKind::NetDelay,
            7 => FaultKind::NetPartition,
            8 => FaultKind::NetDuplicate,
            9 => FaultKind::WorkerCrash,
            _ => return None,
        })
    }

    /// Spec-string name (`device-loss`, `sync-failure`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::DeviceLoss => "device-loss",
            FaultKind::ReplicationOom => "replication-oom",
            FaultKind::SyncFailure => "sync-failure",
            FaultKind::ArtifactCorruption => "artifact-corruption",
            FaultKind::TransientIo => "transient-io",
            FaultKind::NetDrop => "net-drop",
            FaultKind::NetDelay => "net-delay",
            FaultKind::NetPartition => "net-partition",
            FaultKind::NetDuplicate => "net-duplicate",
            FaultKind::WorkerCrash => "worker-crash",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultKind {
    type Err = FaultPlanError;

    fn from_str(s: &str) -> Result<Self, FaultPlanError> {
        Ok(match s {
            "device-loss" => FaultKind::DeviceLoss,
            "replication-oom" => FaultKind::ReplicationOom,
            "sync-failure" => FaultKind::SyncFailure,
            "artifact-corruption" => FaultKind::ArtifactCorruption,
            "transient-io" => FaultKind::TransientIo,
            "net-drop" => FaultKind::NetDrop,
            "net-delay" => FaultKind::NetDelay,
            "net-partition" => FaultKind::NetPartition,
            "net-duplicate" => FaultKind::NetDuplicate,
            "worker-crash" => FaultKind::WorkerCrash,
            other => return Err(FaultPlanError::UnknownKind(other.to_string())),
        })
    }
}

/// One planned fault: `kind` triggers at the first opportunity at or
/// after step `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// What fails.
    pub kind: FaultKind,
    /// Training step (or occurrence index for I/O faults) at which it
    /// becomes eligible to fire.
    pub at: u64,
}

/// Errors parsing a fault-plan spec string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// Unrecognised fault name.
    UnknownKind(String),
    /// An entry was not of the form `kind@step`.
    BadEntry(String),
    /// The step after `@` did not parse as an integer.
    BadStep(String),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownKind(k) => write!(
                f,
                "unknown fault kind '{k}' (expected device-loss | replication-oom | \
                 sync-failure | artifact-corruption | transient-io | net-drop | \
                 net-delay | net-partition | net-duplicate | worker-crash)"
            ),
            FaultPlanError::BadEntry(e) => write!(f, "bad fault entry '{e}' (expected kind@step)"),
            FaultPlanError::BadStep(s) => write!(f, "bad fault step '{s}' (expected an integer)"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative schedule of faults to inject into one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The planned faults, sorted by trigger step.
    pub events: Vec<FaultEvent>,
    /// Seed deriving every per-fault variation (retry counts, corrupted
    /// byte positions) — same seed, same faults, same recoveries.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan: nothing fails.
    pub fn none() -> Self {
        Self::default()
    }

    /// Parses a compact spec like
    /// `"device-loss@120,replication-oom@300,sync-failure@50"`.
    /// Entries are comma-separated `kind@step`; whitespace around entries
    /// is ignored; an empty string yields the empty plan.
    pub fn parse(spec: &str) -> Result<Self, FaultPlanError> {
        Self::parse_seeded(spec, 0)
    }

    /// [`FaultPlan::parse`] with an explicit variation seed.
    pub fn parse_seeded(spec: &str, seed: u64) -> Result<Self, FaultPlanError> {
        let mut events = Vec::new();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, step) =
                entry.split_once('@').ok_or_else(|| FaultPlanError::BadEntry(entry.to_string()))?;
            let kind: FaultKind = kind.trim().parse()?;
            let at: u64 =
                step.trim().parse().map_err(|_| FaultPlanError::BadStep(step.to_string()))?;
            events.push(FaultEvent { kind, at });
        }
        events.sort_by_key(|e| e.at);
        Ok(Self { events, seed })
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}@{}", e.kind, e.at)?;
        }
        Ok(())
    }
}

/// A fault that actually fired during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// What failed.
    pub kind: FaultKind,
    /// The step it was planned for.
    pub at: u64,
    /// The step at which the pipeline observed it.
    pub step: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (planned @{}, observed @{})", self.kind, self.at, self.step)
    }
}

/// What the pipeline did about a fault (or about resuming a run).
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryAction {
    /// Device loss: the data-parallel group shrank and re-sharded.
    ShrankReplicas {
        /// Step at which the group shrank.
        step: u64,
        /// Replica count before the loss.
        from: u32,
        /// Replica count after re-sharding.
        to: u32,
    },
    /// Replication/budget failure: the run fell back to CPU-only cold
    /// execution for the rest of training (FAE → baseline).
    ColdFallback {
        /// Step at which hot execution was abandoned.
        step: u64,
    },
    /// A hot↔cold sync failed and was retried with backoff.
    SyncRetried {
        /// Step of the failing transition.
        step: u64,
        /// Total attempts including the final success.
        attempts: u32,
        /// Seconds spent in backoff waits.
        waited_s: f64,
    },
    /// A transient I/O error was retried with backoff.
    RetriedIo {
        /// Total attempts including the final success.
        attempts: u32,
        /// Seconds spent in backoff waits.
        waited_s: f64,
    },
    /// The artifact file was unusable; static artifacts were rebuilt
    /// from scratch and re-saved.
    RebuiltArtifacts,
    /// Training resumed from a checkpoint taken at `step`.
    ResumedFromCheckpoint {
        /// Steps already completed at the checkpoint.
        step: u64,
    },
    /// A worker node was declared dead; its shard was re-assigned to the
    /// survivors (computed coordinator-side until the node rejoins).
    ReshardedToSurvivors {
        /// Step at which the node was declared dead.
        step: u64,
        /// The lost node's id.
        node: u32,
        /// Live workers after the reshard.
        live: u32,
    },
    /// A worker reconnected and was re-admitted: the coordinator shipped
    /// it the current model state and hot bags.
    NodeRejoined {
        /// Step at which the node rejoined.
        step: u64,
        /// The rejoining node's id.
        node: u32,
        /// Bytes of state shipped in the welcome (dense params + hot rows).
        state_bytes: u64,
    },
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::ShrankReplicas { step, from, to } => {
                write!(f, "step {step}: shrank data-parallel group {from} -> {to} and re-sharded")
            }
            RecoveryAction::ColdFallback { step } => {
                write!(f, "step {step}: hot replication failed, fell back to cold-only execution")
            }
            RecoveryAction::SyncRetried { step, attempts, waited_s } => {
                write!(f, "step {step}: embedding sync retried ({attempts} attempts, {waited_s:.3}s backoff)")
            }
            RecoveryAction::RetriedIo { attempts, waited_s } => {
                write!(f, "transient I/O retried ({attempts} attempts, {waited_s:.3}s backoff)")
            }
            RecoveryAction::RebuiltArtifacts => {
                write!(f, "artifact load failed, rebuilt static artifacts from scratch")
            }
            RecoveryAction::ResumedFromCheckpoint { step } => {
                write!(f, "resumed from checkpoint at step {step}")
            }
            RecoveryAction::ReshardedToSurvivors { step, node, live } => {
                write!(f, "step {step}: node {node} lost, resharded onto {live} live workers")
            }
            RecoveryAction::NodeRejoined { step, node, state_bytes } => {
                write!(f, "step {step}: node {node} rejoined ({state_bytes} state bytes shipped)")
            }
        }
    }
}

/// Consumes a [`FaultPlan`] during a run.
///
/// Stateless apart from which events have fired: every variation (how
/// many retries a transient fault needs, which byte corruption hits) is
/// derived by hashing `(seed, kind, at)`, never from a mutable RNG — so
/// a resumed run that fast-forwards past already-fired events makes the
/// same decisions as the uninterrupted run.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<bool>,
    log: Vec<InjectedFault>,
    telemetry: Telemetry,
}

impl FaultInjector {
    /// Builds an injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.events.len()];
        Self { plan, fired, log: Vec::new(), telemetry: Telemetry::disabled() }
    }

    /// An injector that never fires.
    pub fn none() -> Self {
        Self::new(FaultPlan::none())
    }

    /// Attaches a telemetry handle: every fired fault is journalled as a
    /// `fault` event and counted under `faults.injected.<kind>`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Fires (at most) the earliest unfired event of `kind` whose trigger
    /// step is `<= step`, recording and returning it.
    pub fn fire(&mut self, kind: FaultKind, step: u64) -> Option<InjectedFault> {
        let idx = self
            .plan
            .events
            .iter()
            .enumerate()
            .find(|(i, e)| !self.fired[*i] && e.kind == kind && e.at <= step)
            .map(|(i, _)| i)?;
        self.fired[idx] = true;
        let fault = InjectedFault { kind, at: self.plan.events[idx].at, step };
        self.log.push(fault);
        if self.telemetry.enabled() {
            self.telemetry.counter_add(&format!("faults.injected.{}", kind.as_str()), 1);
            self.telemetry.emit(&JournalEvent::Fault { step, kind: kind.as_str().to_string() });
        }
        Some(fault)
    }

    /// Deterministic per-fault variation in `[0, modulo)`, a pure
    /// function of the plan seed and the fault's identity (SplitMix64
    /// finalizer over the packed triple).
    pub fn variation(&self, fault: &InjectedFault, modulo: u64) -> u64 {
        assert!(modulo > 0, "variation modulo must be positive");
        let mut z = self
            .plan
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(fault.at.wrapping_add(1)))
            .wrapping_add(fault.kind.tag() as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % modulo
    }

    /// Resume path: restores the fired-fault log from a checkpoint and
    /// marks exactly those events as consumed (matched by kind and
    /// trigger step, one event per log entry), so the remaining plan
    /// unfolds as it would have in the uninterrupted run.
    pub fn restore(&mut self, log: Vec<InjectedFault>) {
        for f in &log {
            if let Some(idx) = self
                .plan
                .events
                .iter()
                .enumerate()
                .find(|(i, e)| !self.fired[*i] && e.kind == f.kind && e.at == f.at)
                .map(|(i, _)| i)
            {
                self.fired[idx] = true;
            }
        }
        self.log = log;
    }

    /// Every fault fired so far, in firing order.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// Number of planned events that have not fired yet.
    pub fn pending(&self) -> usize {
        self.fired.iter().filter(|f| !**f).count()
    }
}

/// Bounded exponential backoff parameters.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Wait before the first retry, seconds.
    pub base_delay_s: f64,
    /// Multiplier applied per retry.
    pub multiplier: f64,
    /// Upper bound on any single wait, seconds.
    pub max_delay_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, base_delay_s: 0.05, multiplier: 2.0, max_delay_s: 1.0 }
    }
}

impl RetryPolicy {
    /// Wait after failed attempt number `attempt` (1-based), seconds.
    pub fn backoff_delay(&self, attempt: u32) -> f64 {
        (self.base_delay_s * self.multiplier.powi(attempt.saturating_sub(1) as i32))
            .min(self.max_delay_s)
    }

    /// Total wait across `failures` failed attempts, seconds.
    pub fn total_backoff(&self, failures: u32) -> f64 {
        (1..=failures).map(|a| self.backoff_delay(a)).sum()
    }
}

/// Outcome of [`retry_with_backoff`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Retried<T> {
    /// The successful result.
    pub value: T,
    /// Total attempts made including the success.
    pub attempts: u32,
    /// Simulated seconds spent in backoff waits (not slept for real —
    /// the caller charges them to the timeline).
    pub waited_s: f64,
}

/// Runs `op(attempt)` (1-based) until it succeeds or `policy.max_attempts`
/// is exhausted, accumulating *simulated* backoff time between attempts.
/// No real sleeping happens; the waited seconds are returned so the
/// caller can charge them to the cost model.
pub fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<Retried<T>, (E, u32, f64)> {
    assert!(policy.max_attempts >= 1, "retry policy needs at least one attempt");
    let mut waited_s = 0.0;
    let mut attempt = 1;
    loop {
        match op(attempt) {
            Ok(value) => return Ok(Retried { value, attempts: attempt, waited_s }),
            Err(e) => {
                if attempt >= policy.max_attempts {
                    return Err((e, attempt, waited_s));
                }
                waited_s += policy.backoff_delay(attempt);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_and_round_trips() {
        let spec = "device-loss@120,replication-oom@300,sync-failure@50";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.events.len(), 3);
        // Sorted by step.
        assert_eq!(plan.events[0], FaultEvent { kind: FaultKind::SyncFailure, at: 50 });
        assert_eq!(plan.events[2], FaultEvent { kind: FaultKind::ReplicationOom, at: 300 });
        let redisplayed = plan.to_string();
        assert_eq!(FaultPlan::parse(&redisplayed).unwrap(), plan);
    }

    #[test]
    fn plan_accepts_whitespace_and_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
        let p = FaultPlan::parse(" device-loss @ 7 , transient-io@0 ").unwrap();
        assert_eq!(p.events.len(), 2);
    }

    #[test]
    fn plan_rejects_garbage() {
        assert!(matches!(FaultPlan::parse("gpu-melted@3"), Err(FaultPlanError::UnknownKind(_))));
        assert!(matches!(FaultPlan::parse("device-loss"), Err(FaultPlanError::BadEntry(_))));
        assert!(matches!(FaultPlan::parse("device-loss@soon"), Err(FaultPlanError::BadStep(_))));
    }

    #[test]
    fn injector_fires_once_at_or_after_trigger() {
        let plan = FaultPlan::parse("device-loss@10").unwrap();
        let mut inj = FaultInjector::new(plan);
        assert!(inj.fire(FaultKind::DeviceLoss, 9).is_none());
        let f = inj.fire(FaultKind::DeviceLoss, 12).expect("fires late");
        assert_eq!((f.at, f.step), (10, 12));
        assert!(inj.fire(FaultKind::DeviceLoss, 100).is_none(), "consumed");
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn injector_separates_kinds() {
        let plan = FaultPlan::parse("device-loss@5,sync-failure@5").unwrap();
        let mut inj = FaultInjector::new(plan);
        assert!(inj.fire(FaultKind::SyncFailure, 5).is_some());
        assert!(inj.fire(FaultKind::SyncFailure, 5).is_none());
        assert!(inj.fire(FaultKind::DeviceLoss, 5).is_some());
    }

    #[test]
    fn restore_consumes_exactly_the_logged_events() {
        let plan = FaultPlan::parse("device-loss@10,device-loss@90,sync-failure@5").unwrap();
        let mut inj = FaultInjector::new(plan);
        // The checkpointed run had seen only device-loss@10; the
        // sync-failure@5 never hit a transition before the checkpoint.
        inj.restore(vec![InjectedFault { kind: FaultKind::DeviceLoss, at: 10, step: 12 }]);
        assert_eq!(inj.log().len(), 1);
        assert!(inj.fire(FaultKind::DeviceLoss, 60).is_none(), "@10 consumed by restore");
        assert!(inj.fire(FaultKind::DeviceLoss, 95).is_some(), "@90 still live");
        assert!(
            inj.fire(FaultKind::SyncFailure, 60).is_some(),
            "unfired pre-checkpoint events must survive the restore"
        );
    }

    #[test]
    fn variation_is_deterministic_and_seed_dependent() {
        let f = InjectedFault { kind: FaultKind::SyncFailure, at: 50, step: 51 };
        let a = FaultInjector::new(FaultPlan { events: vec![], seed: 1 });
        let b = FaultInjector::new(FaultPlan { events: vec![], seed: 1 });
        let c = FaultInjector::new(FaultPlan { events: vec![], seed: 2 });
        assert_eq!(a.variation(&f, 1000), b.variation(&f, 1000));
        // Different seeds disagree for at least one of a few faults.
        let differs = (0..8).any(|at| {
            let g = InjectedFault { kind: FaultKind::SyncFailure, at, step: at };
            a.variation(&g, 1000) != c.variation(&g, 1000)
        });
        assert!(differs);
        assert!(a.variation(&f, 3) < 3);
    }

    #[test]
    fn backoff_is_bounded_and_monotone() {
        let p = RetryPolicy::default();
        assert!((p.backoff_delay(1) - 0.05).abs() < 1e-12);
        assert!((p.backoff_delay(2) - 0.10).abs() < 1e-12);
        assert!(p.backoff_delay(30) <= p.max_delay_s);
        assert!((p.total_backoff(2) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn retry_succeeds_after_failures_and_reports_wait() {
        let p = RetryPolicy::default();
        let r =
            retry_with_backoff(&p, |attempt| if attempt <= 2 { Err("flaky") } else { Ok(attempt) })
                .expect("third attempt succeeds");
        assert_eq!(r.attempts, 3);
        assert_eq!(r.value, 3);
        assert!((r.waited_s - p.total_backoff(2)).abs() < 1e-12);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let p = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut calls = 0u32;
        let r: Result<Retried<()>, _> = retry_with_backoff(&p, |_| {
            calls += 1;
            Err("down")
        });
        let (e, attempts, waited) = r.expect_err("must give up");
        assert_eq!((e, attempts, calls), ("down", 3, 3));
        assert!((waited - p.total_backoff(2)).abs() < 1e-12);
    }
}
