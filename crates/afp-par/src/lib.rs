//! # afp-par — independent jobs on scoped threads, and run control
//!
//! The workspace keeps one level of parallelism: independent jobs. Every
//! optimizer run is serial; the serve engine fans a drain round's solves out
//! over a [`PoolHandle`], whose [`map`](PoolHandle::map) claims items through
//! an atomic index on [`std::thread::scope`] threads (the caller is worker 0)
//! and returns results in input order. The crate sits at the bottom of the
//! crate graph (no dependencies).
//!
//! The [`control`] module is the workspace's run-control vocabulary:
//! [`CancelToken`] (a clonable atomic flag), [`RunControl`] (deadline /
//! budget / cancellation handle the optimizer loops poll at a deterministic
//! stride) and [`StopReason`] (the typed outcome recorded in results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod control;
mod handle;

pub use control::{CancelToken, RunControl, StopReason};
pub use handle::{PoolHandle, PoolStats};
