//! # afp-par — the persistent parked worker pool
//!
//! The workspace's only threading substrate, kept at the bottom of the crate
//! graph (no dependencies) so that the optimizers above it can use it:
//! `afp-metaheuristics` batches a generation's candidate evaluations through
//! [`WorkerPool::map_scoped`], whose per-worker state slots carry each
//! worker's `CostCache` from one generation to the next, and `afp-serve`'s
//! job engine shards a round of cache misses across the same kind of pool.
//!
//! Work is distributed lock-free: items are split into contiguous chunks and
//! workers claim chunks through a single atomic counter, writing results into
//! index-keyed slots that come back in input order — so the reduction is
//! deterministic regardless of which worker finished first. No mutex is ever
//! taken per item, so workers running short tasks do not serialize on a lock.
//!
//! Threads are spawned once, at [`WorkerPool`] construction, and parked
//! between batches, so a long-lived caller (an optimizer evaluating thousands
//! of generations) pays the spawn cost once instead of per batch.
//! [`PoolHandle`] shares one such pool between several runners — e.g.
//! several serve-layer job engines borrow the same workers instead of
//! stacking pools — with a deadlock-free inline fallback for re-entrant
//! dispatches.
//!
//! The [`control`] module is the workspace's run-control vocabulary:
//! [`CancelToken`] (a clonable atomic flag the pool observes at chunk-claim
//! boundaries via [`WorkerPool::map_scoped_cancellable`]), [`RunControl`]
//! (deadline / budget / cancellation handle the optimizer loops poll at a
//! deterministic stride) and [`StopReason`] (the typed outcome recorded in
//! results).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod control;
mod handle;
mod pool;

pub use control::{CancelToken, RunControl, StopReason};
pub use handle::PoolHandle;
pub use pool::{resolve_workers, PoolStats, WorkerPool};
