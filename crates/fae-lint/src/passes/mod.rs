//! The cross-file semantic passes.
//!
//! phase-balance, lock-order and wire-compat need context from more
//! than one file, so they run once per lint invocation over the whole
//! set of [`crate::Parsed`] files (each parsed exactly once) and push
//! [`crate::Finding`]s that go through the same `finalize` — test-region
//! exemption, dedupe — as every per-file rule.

pub(crate) mod lock_order;
pub(crate) mod phase_balance;
pub(crate) mod wire_compat;
