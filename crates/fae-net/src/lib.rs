//! Multi-node FAE over a fault-tolerant wire protocol.
//!
//! The single-process [`fae_core::ParallelEngine`] runs every simulated
//! device's shard on a local thread. This crate stretches the same
//! synchronous data-parallel step across *processes*: a coordinator owns
//! the schedule (it implements [`fae_core::exec::StepEngine`], so the FAE
//! trainer drives it unchanged) and fans hot-batch shards out to worker
//! nodes over localhost TCP, while cold batches stay coordinator-local
//! exactly as the paper keeps cold embedding access on the CPU host.
//!
//! Everything rides one compact length-prefixed binary framing
//! ([`wire`]): magic, version, message kind, node id, membership epoch,
//! sequence number, step, payload, CRC-32 trailer (the same checksum the
//! checkpoint container uses, folded in four lanes per 2 KiB block).
//! Failure handling is layered:
//!
//! * every socket read/write carries a deadline ([`deadline`] is the one
//!   blessed module that touches blocking I/O);
//! * request/reply RPCs retry under bounded exponential backoff
//!   ([`fae_core::faults::RetryPolicy`]), charging the simulated stall to
//!   the run's [`fae_sysmodel::Timeline`]; the per-step `Apply` is
//!   posted, not awaited, and its ack is skipped by the next RPC on the
//!   link, so a hot step costs one round trip per worker (one worker
//!   gets `ApplyOwn`, naming its own reply, instead of its gradient back);
//! * a heartbeat failure detector ([`detector`]) turns consecutive missed
//!   deadlines into a death verdict;
//! * messages are epoch-tagged and idempotent ([`ledger`]), so loss,
//!   duplication and replay never double-apply a gradient;
//! * membership is elastic ([`coordinator`]): a dead worker's shard is
//!   re-assigned to the survivors (computed coordinator-side with the
//!   exact per-worker arithmetic, so the model stays bit-identical), and
//!   a rejoining worker is shipped the current parameters and hot bags.
//!
//! Determinism contract: with a fixed worker count and seed, a
//! distributed run produces the **bit-identical** final model of the
//! in-process `ParallelEngine` — worker `k` computes against a replica
//! bootstrapped by replaying the coordinator's seeded RNG construction,
//! and every update it applies is the coordinator's reduced gradient.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod deadline;
pub mod detector;
pub mod ledger;
pub mod wire;
pub mod worker;

pub use coordinator::RemoteEngine;
pub use detector::FailureDetector;
pub use ledger::{Admit, Ledger};
pub use wire::{Frame, HotEntry, Message, NetError};
pub use worker::{run_node, run_worker, NodeConfig, NodeJournal, WorkerExit};

use fae_core::faults::RetryPolicy;

/// Timeouts, retry and failure-detection knobs shared by both ends of
/// the wire. Defaults are sized for localhost test clusters: deadlines
/// in the hundreds of milliseconds, so an injected fault is detected —
/// and the run recovers — within a couple of seconds of real time.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// TCP connect deadline, milliseconds.
    pub connect_timeout_ms: u64,
    /// Per-read deadline (reply/serve loop), milliseconds.
    pub read_timeout_ms: u64,
    /// Per-write deadline, milliseconds.
    pub write_timeout_ms: u64,
    /// Deadline for the Welcome reply to a Hello (state shipping can be
    /// much larger than a normal frame), milliseconds.
    pub welcome_timeout_ms: u64,
    /// Heartbeat every N steps (0 disables).
    pub heartbeat_every_steps: u64,
    /// Poll workers for journal events every N steps (0 disables).
    /// Polls only happen when the coordinator's telemetry is enabled,
    /// so plain runs carry zero shipping traffic.
    pub telemetry_every_steps: u64,
    /// Consecutive missed deadlines before a node is declared dead.
    pub suspicion_threshold: u32,
    /// Per-RPC retry/backoff schedule; failed attempts charge their
    /// backoff to the simulated timeline.
    pub retry: RetryPolicy,
    /// How long the coordinator waits for the initial worker group,
    /// milliseconds. Missing workers are treated as lost (their shards
    /// run coordinator-side) and may join later.
    pub initial_wait_ms: u64,
    /// Worker-side reconnect attempts before giving up.
    pub reconnect_attempts: u32,
    /// Worker-side reconnect backoff base, milliseconds (jittered,
    /// doubled per attempt).
    pub reconnect_base_ms: u64,
    /// Worker-side reconnect backoff cap, milliseconds.
    pub reconnect_cap_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout_ms: 1_000,
            read_timeout_ms: 400,
            write_timeout_ms: 1_000,
            welcome_timeout_ms: 4_000,
            heartbeat_every_steps: 8,
            telemetry_every_steps: 4,
            suspicion_threshold: 3,
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay_s: 0.05,
                multiplier: 2.0,
                max_delay_s: 1.0,
            },
            initial_wait_ms: 10_000,
            reconnect_attempts: 40,
            reconnect_base_ms: 50,
            reconnect_cap_ms: 500,
        }
    }
}
