//! The eager-lazy HTM execution engine.
//!
//! This crate drives per-thread [`commtm_tx::Program`]s against the
//! [`commtm_protocol::MemSystem`], implementing the paper's baseline HTM
//! (Sec. III-B1) and its CommTM extension:
//!
//! - transactions are timestamped at first begin and **retain their
//!   timestamp across retries**, so they age and eventually win
//!   timestamp-based conflict resolution (livelock freedom),
//! - aborted transactions restart after randomized exponential backoff,
//! - a transaction aborted for issuing an unlabeled access to its own
//!   speculatively-modified labeled data retries with its labeled
//!   operations demoted to conventional ones (Sec. III-B4),
//! - under [`Scheme::Baseline`] *all* labeled operations are demoted, which
//!   is exactly how the paper compares the two systems: the same program
//!   with labels ignored runs on a conventional eager-lazy HTM.
//!
//! The engine-side cycle accounting implements the paper's Fig. 17/18
//! taxonomies: every cycle is non-transactional, transactional-committed,
//! or transactional-aborted (wasted), and wasted cycles are attributed to
//! the dependency type that caused the abort.

mod engine;
mod stats;

pub use engine::{CoreExec, HtmConfig, Scheme, StepResult};
pub use stats::CoreStats;
