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
//! The trainer's modes (the int8 cold tier, the lookahead oracle and
//! stale-skip) live beside the master on the coordinator, and workers
//! read only the exact-f32 hot rows it ships, so every mode keeps that
//! contract.

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

/// Per-read deadline (reply and serve loops), milliseconds. Deadlines
/// here and in both ends of the wire are sized for localhost clusters:
/// hundreds of milliseconds, so an injected fault is detected, and the
/// run recovers, within a couple of seconds of real time.
pub(crate) const READ_TIMEOUT_MS: u64 = 400;
/// Per-write deadline, milliseconds.
pub(crate) const WRITE_TIMEOUT_MS: u64 = 1_000;
/// Deadline for the Welcome reply to a Hello (state shipping can be much
/// larger than a normal frame), milliseconds.
pub(crate) const WELCOME_TIMEOUT_MS: u64 = 4_000;

/// What a run sets on the coordinator: telemetry shipping
/// (`--telemetry-every`). Nodes read nothing from it.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Poll workers for journal events every N steps (0 disables).
    /// Polls only happen when the coordinator's telemetry is enabled,
    /// so plain runs carry zero shipping traffic.
    pub telemetry_every_steps: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { telemetry_every_steps: 4 }
    }
}
