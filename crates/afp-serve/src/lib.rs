//! # afp-serve — floorplanning as a service
//!
//! The serve layer turns the repository's optimizer stack into a solve
//! *service*: callers submit jobs, the engine answers repeats from a cache
//! and shards the rest across a persistent worker pool. Five pieces:
//!
//! * [`fingerprint`] — the canonical problem [`Fingerprint`]: a 128-bit
//!   structural hash over netlist topology, shape tables, constraint set,
//!   optimizer configuration, and seed. Canonicalization (names excluded,
//!   unordered collections sorted, floats bit-normalized, non-semantic knobs
//!   dropped) guarantees that two [`JobSpec`]s hash equal exactly when their
//!   solves are bit-identical.
//! * [`cache`] — the content-addressed [`ResultCache`]: a bounded LRU map
//!   from [`Fingerprint`] to [`BaselineResult`] with hit/miss/eviction
//!   counters ([`CacheStats`]). Exact fingerprint hits return the memoized
//!   result verbatim; every miss is solved from its seed. The cloneable
//!   [`CacheHandle`] shares one store across N engines.
//! * [`engine`] — the [`JobEngine`]: typed job lifecycle
//!   ([`JobState`]: Queued → Running → Done/Cancelled/Failed), typed
//!   admission ([`RejectReason`]), per-job
//!   [`RunControl`](afp_metaheuristics::RunControl) (deadline, budget,
//!   cancel token), per-job panic isolation (each job's
//!   `catch_unwind` outcome is a `ChainOutcome`), and batch execution
//!   sharded over a process-wide [`afp_par::PoolHandle`] — with admission
//!   locks scoped so submits never block on a running batch.
//! * [`daemon`] — the [`ServeDaemon`]: a drain thread that keeps
//!   `run_pending` running as jobs stream in, with graceful shutdown and a
//!   per-job [`ShutdownReport`].
//! * [`persist`] — versioned, checksummed binary cache snapshots
//!   ([`PersistError`]), so a populated cache survives a restart; version or
//!   corruption problems degrade to a cold start, never a panic.
//!
//! The whole design leans on one property of the layers below: every solver
//! is deterministic for its inputs, at any worker count. That is what makes
//! a cached result a *correct* answer — not a stale approximation — for any
//! future request with the same fingerprint. The engine protects the
//! contract by memoizing only runs that stopped with
//! [`StopReason::Completed`](afp_metaheuristics::StopReason): a
//! deadline-truncated best-so-far is never served for a repeat. Nothing a
//! miss runs depends on what the engine solved before or on which jobs
//! share its round, so every served answer is a pure function of its
//! request. See `ARCHITECTURE.md` § "The serve layer"
//! for the full determinism argument and `docs/TUNING.md` for the cache and
//! concurrency knobs.
//!
//! # Example
//!
//! ```
//! use afp_circuit::generators;
//! use afp_metaheuristics::{Baseline, SaConfig};
//! use afp_serve::{JobEngine, JobRequest, JobSpec, ServeConfig};
//!
//! let engine = JobEngine::new(&ServeConfig { workers: 2, ..Default::default() });
//! let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 7);
//! let cold = engine.submit(JobRequest::new(spec.clone()));
//! let hot = engine.submit(JobRequest::new(spec));
//! engine.run_pending();
//!
//! let cold = engine.outcome(cold).unwrap();
//! let hot = engine.outcome(hot).unwrap();
//! assert!(hot.cache_hit && !cold.cache_hit);
//! assert_eq!(cold.result.reward.to_bits(), hot.result.reward.to_bits());
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod daemon;
pub mod engine;
pub mod fingerprint;
pub mod persist;

pub use cache::{CacheHandle, CacheStats, ResultCache};
pub use daemon::{ServeDaemon, ShutdownReport};
pub use engine::{
    JobEngine, JobId, JobOutcome, JobRequest, JobState, RejectReason, ServeConfig,
};
pub use fingerprint::{Fingerprint, FingerprintHasher, JobSpec};
pub use persist::PersistError;

// Re-exported so example code and downstream callers can name the result
// type without depending on afp-metaheuristics directly.
pub use afp_metaheuristics::BaselineResult;
