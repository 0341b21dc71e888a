//! The job engine: sharded, cancellable, cache-backed solve execution.
//!
//! [`JobEngine`] accepts [`JobRequest`]s, keys each by its canonical
//! [`Fingerprint`], and drains the queue in batches with
//! [`JobEngine::run_pending`]: exact fingerprint hits are answered from the
//! engine's [`CacheHandle`] without touching a worker, and the remaining
//! misses fan out over the engine's [`PoolHandle`] — one serial solve per item,
//! on scoped threads. Each miss runs its baseline under its own
//! [`RunControl`] (per-job deadline, evaluation budget, and [`CancelToken`])
//! inside a `catch_unwind`, so a panicking solve becomes
//! [`JobState::Failed`] for that job alone — the cache and the other jobs in
//! the batch are unaffected. Each job's run ends as a `SolveOutcome`:
//! finished, panicked, or skipped because its token was raised before it
//! started.
//!
//! Only runs that stopped with [`StopReason::Completed`] are memoized: the
//! fingerprint does not encode deadlines or budgets, so an interrupted
//! best-so-far result is *not* the canonical solve for its key and caching it
//! would break the hit ≡ cold-solve bit-identity contract.
//!
//! ## Sharing and live admission
//!
//! The engine is a cheap [`Clone`]: clones share one job table, queue,
//! cache, and pool. The cache is the engine's own: it starts empty and is
//! shared with nothing but the engine's clones. Internally the job table
//! sits behind a mutex that is held only for the serial bookkeeping phases
//! of a round — never across solver work — so [`JobEngine::try_submit`]
//! from another thread admits a job *while a batch is in flight* instead of
//! blocking until the batch ends. [`crate::daemon::ServeDaemon`] builds its
//! drain loop on exactly this property. Admission is bounded by [`ServeConfig::queue_depth`]; a
//! full queue is a typed [`RejectReason::QueueFull`], not a panic or a
//! silent drop.
//!
//! Two clones may call `run_pending` concurrently; rounds then claim
//! disjoint batches and every outcome is still bit-identical and correctly
//! counted, but the same fingerprint can cost two (identical) solves if it
//! is queued while another clone is already running it. The daemon avoids
//! this by draining from a single thread.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use afp_circuit::CircuitError;
use afp_metaheuristics::{
    Baseline, BaselineResult, CancelToken, RlSaConfig, RunControl, SaConfig, StopReason,
};
use afp_par::PoolHandle;

use crate::cache::{CacheHandle, CacheStats};
use crate::fingerprint::{Fingerprint, JobSpec};

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Jobs solved side by side in one drain round (`0` = one per available
    /// hardware thread). Ignored by [`JobEngine::with_pool`], where the
    /// handle decides.
    pub workers: usize,
    /// Result-cache capacity in entries (minimum 1).
    pub cache_capacity: usize,
    /// Maximum queued (not yet running) jobs; `0` = unbounded. When the
    /// bound is reached, [`JobEngine::try_submit`] returns
    /// [`RejectReason::QueueFull`] instead of admitting.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            cache_capacity: 64,
            queue_depth: 0,
        }
    }
}

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(usize);

impl JobId {
    /// The raw submission index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue is at its configured depth bound.
    QueueFull {
        /// Jobs currently queued.
        pending: usize,
        /// The configured [`ServeConfig::queue_depth`].
        bound: usize,
    },
    /// The daemon is shutting down and no longer admits work.
    ShuttingDown,
    /// The circuit fails [`Circuit::validate`](afp_circuit::Circuit::validate):
    /// it has no blocks, a block dimension that is not a positive finite
    /// number, or a net or constraint naming a block that does not exist.
    InvalidCircuit(CircuitError),
    /// A solver knob that sizes the search is zero, so the solver has no
    /// candidate to return (`"population"` for GA, `"particles"` for PSO)
    /// or cannot run its cooling schedule (`"moves_per_temperature"` for SA
    /// and for RL-SA's refinement stage).
    EmptySearch {
        /// The zero knob.
        knob: &'static str,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { pending, bound } => {
                write!(f, "queue full ({pending} pending, bound {bound})")
            }
            RejectReason::ShuttingDown => write!(f, "daemon is shutting down"),
            RejectReason::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
            RejectReason::EmptySearch { knob } => write!(f, "solver {knob} is zero"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// A solve request: the spec plus optional per-job run limits.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to solve.
    pub spec: JobSpec,
    /// Wall-clock deadline for this job, measured from when it starts running.
    pub deadline: Option<Duration>,
    /// Evaluation budget for this job.
    pub budget: Option<u64>,
}

impl JobRequest {
    /// An unlimited request for the given spec.
    pub fn new(spec: JobSpec) -> Self {
        JobRequest {
            spec,
            deadline: None,
            budget: None,
        }
    }
}

/// A finished job's payload.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The solve result.
    pub result: BaselineResult,
    /// Whether the result was served from the cache (no solver ran).
    pub cache_hit: bool,
    /// Always `false`: no solve is seeded from a cached winner any more.
    /// Kept only because the `benchmark/` package still reads it; the next
    /// change to that package removes it.
    pub warm_started: bool,
    /// The job's canonical fingerprint (its cache key).
    pub fingerprint: Fingerprint,
}

/// Typed job lifecycle.
// `Done` holds its outcome inline: callers match `JobState::Done(o)` by value.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobState {
    /// Submitted, not yet picked up by [`JobEngine::run_pending`].
    Queued,
    /// Claimed by the current `run_pending` batch.
    Running,
    /// Produced a result — from the cache or from a solver run (a run whose
    /// control tripped mid-flight still lands here, with
    /// [`BaselineResult::stop`] recording why it stopped early).
    Done(JobOutcome),
    /// Cancelled before producing any result.
    Cancelled,
    /// The solver panicked; the payload message is retained.
    Failed(String),
}

impl JobState {
    /// Whether the job has left the queue for good.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Cancelled | JobState::Failed(_)
        )
    }
}

#[derive(Debug)]
struct Job {
    request: JobRequest,
    fingerprint: Fingerprint,
    state: JobState,
    token: CancelToken,
}

#[derive(Debug, Default)]
struct EngineState {
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
}

/// Sharded, cancellable, cache-backed solve engine.
///
/// Cloning is cheap and clones share everything: job table, queue, cache,
/// pool. Solver work inside a batch fans out over the pool; all
/// bookkeeping happens on whichever thread calls into the engine, under a
/// short-held internal lock (see the module docs for the admission
/// guarantees this buys).
#[derive(Debug, Clone)]
pub struct JobEngine {
    pool: PoolHandle,
    cache: CacheHandle,
    state: Arc<Mutex<EngineState>>,
    queue_depth: usize,
}

/// A batch-round entry scheduled to actually run a solver.
struct Scheduled {
    job: usize,
    fingerprint: Fingerprint,
    spec: JobSpec,
    deadline: Option<Duration>,
    budget: Option<u64>,
    token: CancelToken,
}

/// What became of one scheduled miss: the outcome of one
/// [`Baseline::run_controlled`] call inside the job's own `catch_unwind`.
enum SolveOutcome {
    /// The solve returned a result (complete or control-interrupted — check
    /// [`BaselineResult::stop`]).
    Finished(Box<BaselineResult>),
    /// The solve panicked; the payload's message is retained.
    Panicked(String),
    /// The solve never started: the job's cancel token was already raised
    /// when a worker picked it up.
    Skipped,
}

impl JobEngine {
    /// Creates an engine with its own pool and cache per `config`.
    pub fn new(config: &ServeConfig) -> Self {
        JobEngine::with_pool(config, PoolHandle::new(config.workers))
    }

    /// Creates an engine with its own cache on a shared pool handle
    /// (`config.workers` ignored).
    pub fn with_pool(config: &ServeConfig, pool: PoolHandle) -> Self {
        JobEngine {
            pool,
            cache: CacheHandle::new(config.cache_capacity),
            state: Arc::new(Mutex::new(EngineState::default())),
            queue_depth: config.queue_depth,
        }
    }

    /// The engine's cache handle (for uncounted inspection).
    pub fn cache(&self) -> &CacheHandle {
        &self.cache
    }

    /// Result-cache counters (totals across every clone of this engine).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of jobs waiting for [`JobEngine::run_pending`].
    pub fn pending(&self) -> usize {
        self.lock().queue.len()
    }

    /// Enqueues a job, honoring the queue-depth bound. A request no solver
    /// can run ([`RejectReason::InvalidCircuit`],
    /// [`RejectReason::EmptySearch`]) is rejected before it is fingerprinted.
    pub fn try_submit(&self, request: JobRequest) -> Result<JobId, RejectReason> {
        validate(&request.spec)?;
        self.admit(request)
    }

    /// Enqueues a job without the admission checks, so a test can make a
    /// solver panic inside a drain round.
    #[cfg(test)]
    pub(crate) fn submit_unvalidated(&self, request: JobRequest) -> JobId {
        self.admit(request).expect("unbounded queue")
    }

    /// Fingerprints and enqueues an already validated request.
    fn admit(&self, request: JobRequest) -> Result<JobId, RejectReason> {
        let fingerprint = request.spec.fingerprint();
        let mut state = self.lock();
        if self.queue_depth != 0 && state.queue.len() >= self.queue_depth {
            return Err(RejectReason::QueueFull {
                pending: state.queue.len(),
                bound: self.queue_depth,
            });
        }
        let id = state.jobs.len();
        state.jobs.push(Job {
            request,
            fingerprint,
            state: JobState::Queued,
            token: CancelToken::new(),
        });
        state.queue.push_back(id);
        Ok(JobId(id))
    }

    /// Enqueues a job and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if admission is rejected (only possible with a nonzero
    /// [`ServeConfig::queue_depth`]) — use [`JobEngine::try_submit`] when a
    /// bound is configured.
    pub fn submit(&self, request: JobRequest) -> JobId {
        self.try_submit(request).expect("job admission rejected")
    }

    /// The job's current state (a snapshot — the engine may move on).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    pub fn state(&self, id: JobId) -> JobState {
        self.lock().jobs[id.0].state.clone()
    }

    /// The job's outcome, if it reached [`JobState::Done`].
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        match &self.lock().jobs[id.0].state {
            JobState::Done(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Snapshot of every job's `(id, state)`, in submission order.
    pub fn states(&self) -> Vec<(JobId, JobState)> {
        self.lock()
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| (JobId(i), job.state.clone()))
            .collect()
    }

    /// Raises the job's cancel token. A queued job resolves to
    /// [`JobState::Cancelled`] when the queue next drains; a job already
    /// running observes the token at its control's next poll and stops with
    /// [`StopReason::Cancelled`] (landing in [`JobState::Done`] with its
    /// best-so-far result).
    pub fn cancel(&self, id: JobId) {
        self.lock().jobs[id.0].token.cancel();
    }

    /// Raises every unfinished job's cancel token.
    pub fn cancel_all(&self) {
        for job in &mut self.lock().jobs {
            if !job.state.is_terminal() {
                job.token.cancel();
            }
        }
    }

    /// Immediately resolves every still-queued job to
    /// [`JobState::Cancelled`] and empties the queue, without touching
    /// running jobs. Returns the cancelled ids — the daemon's graceful
    /// shutdown uses this to flush the backlog before finishing the
    /// in-flight batch.
    pub fn cancel_queued(&self) -> Vec<JobId> {
        let mut state = self.lock();
        let queued: Vec<usize> = state.queue.drain(..).collect();
        let mut cancelled = Vec::with_capacity(queued.len());
        for id in queued {
            state.jobs[id].state = JobState::Cancelled;
            cancelled.push(JobId(id));
        }
        cancelled
    }

    /// Drains the queue: answers exact-fingerprint hits from the cache,
    /// fans the misses out over the pool, and memoizes completed solves.
    /// Returns the number of jobs that reached a terminal state. Runs
    /// rounds until the queue is observed empty, so jobs admitted while a
    /// batch is in flight are drained by the same call.
    ///
    /// Duplicates *within* a batch are deduplicated: only the first job with
    /// a given fingerprint runs, and when it completes the duplicates are
    /// served from its memoized result in the same round — one solve, one
    /// miss, and a counted hit per duplicate. Only if the first run is
    /// interrupted (and therefore not memoized) are the duplicates
    /// re-enqueued to run for real in a later round.
    pub fn run_pending(&self) -> usize {
        let mut resolved = 0;
        while self.run_round(&mut resolved) {}
        resolved
    }

    /// Runs one batch round. Returns `false` when the queue was empty.
    fn run_round(&self, resolved: &mut usize) -> bool {
        // Phase 1 (serial, short-locked): claim the current queue, resolve
        // cancellations and cache hits, pick one lead per fingerprint and
        // group the round's duplicates behind it. Everything a solve needs
        // is cloned out of the job table here so phase 2 runs lock-free.
        let mut to_run: Vec<Scheduled> = Vec::new();
        let mut followers: Vec<(usize, usize)> = Vec::new(); // (job, lead index)
        {
            let mut state = self.lock();
            let batch: Vec<usize> = state.queue.drain(..).collect();
            if batch.is_empty() {
                return false;
            }
            for id in batch {
                if state.jobs[id].token.is_cancelled() {
                    state.jobs[id].state = JobState::Cancelled;
                    *resolved += 1;
                    continue;
                }
                let fingerprint = state.jobs[id].fingerprint;
                if let Some(lead) = to_run.iter().position(|s| s.fingerprint == fingerprint) {
                    // In-flight duplicate: resolved in phase 3 from the
                    // lead's result. No cache lookup is counted for it yet —
                    // its one counted lookup is the hit it becomes.
                    state.jobs[id].state = JobState::Running;
                    followers.push((id, lead));
                    continue;
                }
                if let Some(result) = self.cache.get(fingerprint) {
                    state.jobs[id].state = JobState::Done(JobOutcome {
                        result,
                        cache_hit: true,
                        warm_started: false,
                        fingerprint,
                    });
                    *resolved += 1;
                    continue;
                }
                state.jobs[id].state = JobState::Running;
                to_run.push(Scheduled {
                    job: id,
                    fingerprint,
                    spec: state.jobs[id].request.spec.clone(),
                    deadline: state.jobs[id].request.deadline,
                    budget: state.jobs[id].request.budget,
                    token: state.jobs[id].token.clone(),
                });
            }
        }

        self.run_batch(resolved, to_run, followers);
        true
    }

    /// Phases 2 and 3 of one round: fan the misses out over the pool
    /// (holding no engine lock, so submissions stay admissible), then fold
    /// outcomes into job states, the cache, and the round's duplicates.
    fn run_batch(&self, resolved: &mut usize, to_run: Vec<Scheduled>, followers: Vec<(usize, usize)>) {
        // Each lead's memoized solve is also held here for the round's
        // followers: the cache copy can be LRU-evicted by later inserts in
        // the same round (a round can complete more distinct fingerprints
        // than the cache holds), so followers must never depend on it.
        let mut memoized: Vec<Option<BaselineResult>> = vec![None; to_run.len()];
        if !to_run.is_empty() {
            // Phase 2 (fanned out, lock-free): one serial solve per miss,
            // each building its own Problem/CostCache and polling its own
            // RunControl.
            let outcomes = self.pool.map(&to_run, |scheduled| {
                if scheduled.token.is_cancelled() {
                    return SolveOutcome::Skipped;
                }
                let mut control =
                    RunControl::unbounded().with_cancel_token(scheduled.token.clone());
                if let Some(after) = scheduled.deadline {
                    control = control.with_deadline(after);
                }
                if let Some(evals) = scheduled.budget {
                    control = control.with_budget(evals);
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    scheduled.spec.solver.run_controlled(
                        &scheduled.spec.circuit,
                        scheduled.spec.seed,
                        &control,
                    )
                })) {
                    Ok(result) => SolveOutcome::Finished(Box::new(result)),
                    Err(payload) => SolveOutcome::Panicked(panic_message(payload)),
                }
            });

            // Phase 3 (serial): fold outcomes back into job states and the
            // cache. Memoization happens before follower resolution so the
            // duplicates count as hits against a completed solve.
            let mut state = self.lock();
            for (idx, (scheduled, slot)) in to_run.iter().zip(outcomes).enumerate() {
                let job_state = match slot {
                    SolveOutcome::Finished(result) => {
                        let result = *result;
                        if result.stop == StopReason::Completed {
                            self.cache.insert(scheduled.fingerprint, result.clone());
                            memoized[idx] = Some(result.clone());
                        }
                        JobState::Done(JobOutcome {
                            result,
                            cache_hit: false,
                            warm_started: false,
                            fingerprint: scheduled.fingerprint,
                        })
                    }
                    SolveOutcome::Panicked(message) => JobState::Failed(message),
                    SolveOutcome::Skipped => JobState::Cancelled,
                };
                state.jobs[scheduled.job].state = job_state;
                *resolved += 1;
            }

            // The round's duplicates: a memoized lead answers them as
            // counted hits right now; an interrupted or failed lead sends
            // them back to the queue to run for real next round (their one
            // counted lookup happens then).
            for (id, lead) in followers {
                if state.jobs[id].token.is_cancelled() {
                    state.jobs[id].state = JobState::Cancelled;
                    *resolved += 1;
                } else if let Some(result) = &memoized[lead] {
                    let fingerprint = to_run[lead].fingerprint;
                    // Served from the held clone, not a cache re-fetch: the
                    // entry may already be evicted. The counted hit (and
                    // recency refresh, when resident) still happens so
                    // hits + misses == submissions reconciles exactly.
                    self.cache.count_follower_hit(fingerprint);
                    state.jobs[id].state = JobState::Done(JobOutcome {
                        result: result.clone(),
                        cache_hit: true,
                        warm_started: false,
                        fingerprint,
                    });
                    *resolved += 1;
                } else {
                    state.jobs[id].state = JobState::Queued;
                    state.queue.push_back(id);
                }
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, EngineState> {
        // Poisoning is recovered: job-table updates are single statements
        // and solver panics are caught in phase 2 before they can unwind
        // through an engine lock.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Admission checks for what would otherwise be solved into a meaningless
/// answer (an invalid circuit) or panic inside the solver (an empty search).
fn validate(spec: &JobSpec) -> Result<(), RejectReason> {
    spec.circuit
        .validate()
        .map_err(RejectReason::InvalidCircuit)?;
    let empty = |knob| Err(RejectReason::EmptySearch { knob });
    match &spec.solver {
        Baseline::Ga(cfg) if cfg.population == 0 => empty("population"),
        Baseline::Pso(cfg) if cfg.particles == 0 => empty("particles"),
        Baseline::Sa(SaConfig {
            moves_per_temperature: 0,
            ..
        })
        | Baseline::RlSa(RlSaConfig {
            refinement: SaConfig {
                moves_per_temperature: 0,
                ..
            },
            ..
        }) => empty("moves_per_temperature"),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use afp_metaheuristics::{GaConfig, SaConfig};

    fn sa_spec(seed: u64) -> JobSpec {
        JobSpec::new(generators::ota5(), Baseline::Sa(SaConfig::small()), seed)
    }

    fn engine(workers: usize) -> JobEngine {
        JobEngine::new(&ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn exact_repeat_is_a_bit_identical_cache_hit() {
        let engine = engine(2);
        let cold = engine.submit(JobRequest::new(sa_spec(7)));
        let hot = engine.submit(JobRequest::new(sa_spec(7)));
        engine.run_pending();

        let cold = engine.outcome(cold).expect("cold done");
        let hot = engine.outcome(hot).expect("hot done");
        assert!(!cold.cache_hit);
        assert!(hot.cache_hit);
        assert_eq!(cold.fingerprint, hot.fingerprint);
        assert_eq!(cold.result.reward.to_bits(), hot.result.reward.to_bits());
        assert_eq!(cold.result.floorplan, hot.result.floorplan);
        assert_eq!(cold.result.evaluations, hot.result.evaluations);
        // The in-flight duplicate is served from the completing lead, not
        // deferred into a second counted miss: exactly one solve, one miss,
        // one hit for two submissions.
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn duplicates_survive_lead_eviction_within_their_own_round() {
        // Regression: a round that completes more distinct fingerprints than
        // the cache holds LRU-evicts an early lead's entry before its
        // duplicates resolve. The duplicate must be served from the lead's
        // held result — a cache re-fetch of the evicted entry used to panic
        // and kill the daemon's drain thread.
        let engine = JobEngine::new(&ServeConfig {
            workers: 2,
            cache_capacity: 1,
            ..ServeConfig::default()
        });
        let lead = engine.submit(JobRequest::new(sa_spec(1)));
        let evictor = engine.submit(JobRequest::new(sa_spec(2)));
        let follower = engine.submit(JobRequest::new(sa_spec(1)));
        engine.run_pending();

        let lead = engine.outcome(lead).expect("lead done");
        let evictor = engine.outcome(evictor).expect("evictor done");
        let follower = engine.outcome(follower).expect("follower done");
        assert!(!lead.cache_hit);
        assert!(!evictor.cache_hit);
        assert!(follower.cache_hit);
        assert_eq!(
            lead.result.reward.to_bits(),
            follower.result.reward.to_bits()
        );
        assert_eq!(lead.result.floorplan, follower.result.floorplan);
        // The lead's entry is gone, yet the counts still reconcile:
        // three submissions, two misses, one hit.
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.insertions, stats.evictions),
            (1, 2, 2, 1)
        );
        assert_eq!(engine.cache().len(), 1);
    }

    #[test]
    fn in_flight_duplicates_of_an_interrupted_lead_rerun_instead_of_hitting() {
        let engine = engine(2);
        let spec = JobSpec::new(
            generators::ota5(),
            Baseline::Sa(SaConfig {
                iterations: 2_000_000,
                ..SaConfig::small()
            }),
            1,
        );
        let limited = |spec: &JobSpec| JobRequest {
            spec: spec.clone(),
            deadline: Some(Duration::from_millis(5)),
            budget: None,
        };
        let lead = engine.submit(limited(&spec));
        let follower = engine.submit(limited(&spec));
        engine.run_pending();
        // The lead was deadline-stopped, so nothing was memoized and the
        // follower ran for real in a follow-up round.
        let lead = engine.outcome(lead).expect("lead done");
        let follower = engine.outcome(follower).expect("follower done");
        assert_eq!(lead.result.stop, StopReason::Deadline);
        assert_eq!(follower.result.stop, StopReason::Deadline);
        assert!(!follower.cache_hit);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 2, 0));
    }

    #[test]
    fn cache_hits_survive_across_batches() {
        let engine = engine(1);
        let first = engine.submit(JobRequest::new(sa_spec(3)));
        engine.run_pending();
        let second = engine.submit(JobRequest::new(sa_spec(3)));
        engine.run_pending();
        let first = engine.outcome(first).unwrap();
        let second = engine.outcome(second).unwrap();
        assert!(second.cache_hit);
        assert_eq!(
            first.result.reward.to_bits(),
            second.result.reward.to_bits()
        );
    }

    #[test]
    fn queued_jobs_cancel_before_running() {
        let engine = engine(1);
        let keep = engine.submit(JobRequest::new(sa_spec(1)));
        let drop = engine.submit(JobRequest::new(sa_spec(2)));
        engine.cancel(drop);
        assert!(matches!(engine.state(drop), JobState::Queued));
        engine.run_pending();
        assert!(matches!(engine.state(drop), JobState::Cancelled));
        assert!(matches!(engine.state(keep), JobState::Done(_)));
        // A cancelled job must not poison the cache.
        assert_eq!(engine.cache_stats().insertions, 1);
    }

    #[test]
    fn deadline_limited_jobs_finish_but_are_not_memoized() {
        let engine = engine(1);
        let spec = JobSpec::new(
            generators::ota5(),
            Baseline::Sa(SaConfig {
                iterations: 2_000_000,
                ..SaConfig::small()
            }),
            1,
        );
        let id = engine.submit(JobRequest {
            spec: spec.clone(),
            deadline: Some(Duration::from_millis(5)),
            budget: None,
        });
        engine.run_pending();
        let outcome = engine.outcome(id).expect("done");
        assert_eq!(outcome.result.stop, StopReason::Deadline);
        assert_eq!(engine.cache_stats().insertions, 0);
        // A repeat of the same spec is therefore a miss, not a hit serving
        // the truncated result.
        let again = engine.submit(JobRequest {
            spec,
            deadline: Some(Duration::from_millis(5)),
            budget: None,
        });
        engine.run_pending();
        assert!(!engine.outcome(again).unwrap().cache_hit);
    }

    #[test]
    fn budget_limited_jobs_report_budget_stop() {
        let engine = engine(1);
        let id = engine.submit(JobRequest {
            spec: sa_spec(1),
            deadline: None,
            budget: Some(10),
        });
        engine.run_pending();
        let outcome = engine.outcome(id).expect("done");
        assert_eq!(outcome.result.stop, StopReason::Budget);
    }

    #[test]
    fn heterogeneous_batch_matches_individual_runs() {
        // Jobs sharded across workers must equal the same solves run alone.
        let engine = engine(4);
        let specs = [
            sa_spec(1),
            JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 2),
            JobSpec::new(generators::ota5(), Baseline::Ga(GaConfig::small()), 3),
            sa_spec(4),
        ];
        let ids: Vec<JobId> = specs
            .iter()
            .map(|s| engine.submit(JobRequest::new(s.clone())))
            .collect();
        engine.run_pending();
        for (spec, id) in specs.iter().zip(ids) {
            let alone = spec.solver.run(&spec.circuit, spec.seed);
            let sharded = engine.outcome(id).expect("done").result;
            assert_eq!(alone.reward.to_bits(), sharded.reward.to_bits());
            assert_eq!(alone.floorplan, sharded.floorplan);
        }
    }

    #[test]
    fn engines_share_a_pool_through_the_handle() {
        let pool = PoolHandle::new(2);
        let config = ServeConfig::default();
        let a = JobEngine::with_pool(&config, pool.clone());
        let b = JobEngine::with_pool(&config, pool.clone());
        a.submit(JobRequest::new(sa_spec(1)));
        b.submit(JobRequest::new(sa_spec(2)));
        a.run_pending();
        b.run_pending();
        assert!(pool.stats().batches >= 2);
    }

    #[test]
    fn queue_depth_bound_rejects_with_a_typed_reason() {
        let engine = JobEngine::new(&ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        });
        assert!(engine.try_submit(JobRequest::new(sa_spec(1))).is_ok());
        assert!(engine.try_submit(JobRequest::new(sa_spec(2))).is_ok());
        let rejected = engine.try_submit(JobRequest::new(sa_spec(3)));
        assert_eq!(
            rejected.unwrap_err(),
            RejectReason::QueueFull {
                pending: 2,
                bound: 2
            }
        );
        // Draining frees the queue for new admissions.
        engine.run_pending();
        assert!(engine.try_submit(JobRequest::new(sa_spec(3))).is_ok());
        let message = format!("{}", RejectReason::QueueFull { pending: 2, bound: 2 });
        assert!(message.contains("queue full"));
    }

    #[test]
    fn cancel_queued_flushes_the_backlog_without_touching_running_jobs() {
        let engine = engine(1);
        let a = engine.submit(JobRequest::new(sa_spec(1)));
        let b = engine.submit(JobRequest::new(sa_spec(2)));
        let flushed = engine.cancel_queued();
        assert_eq!(flushed, vec![a, b]);
        assert_eq!(engine.pending(), 0);
        assert!(matches!(engine.state(a), JobState::Cancelled));
        assert_eq!(engine.run_pending(), 0);
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        // `moves_per_temperature: 0` makes SA's cooling schedule divide by
        // zero (admission rejects it, so it is enqueued unvalidated); the
        // healthy job beside it must still finish and be cached.
        let engine = engine(2);
        let bad = engine.submit_unvalidated(JobRequest::new(JobSpec::new(
            generators::ota3(),
            Baseline::Sa(SaConfig {
                moves_per_temperature: 0,
                ..SaConfig::small()
            }),
            1,
        )));
        let good = engine.submit(JobRequest::new(sa_spec(1)));
        engine.run_pending();
        assert!(matches!(engine.state(bad), JobState::Failed(_)));
        assert!(matches!(engine.state(good), JobState::Done(_)));
        assert_eq!(engine.cache_stats().insertions, 1);
    }
}
