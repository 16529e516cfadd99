//! The cross-file semantic passes.
//!
//! lock-order needs context from more than one file, so it runs once
//! per lint invocation over the whole set of [`crate::Parsed`] files
//! (each parsed exactly once) and pushes [`crate::Finding`]s that go
//! through the same `finalize` — test-region exemption, dedupe — as
//! every per-file rule.

pub(crate) mod lock_order;
