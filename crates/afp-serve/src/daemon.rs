//! The serve daemon: a continuously draining [`JobEngine`] on its own thread.
//!
//! [`ServeDaemon`] owns a drain thread that sleeps until work arrives, then
//! runs [`JobEngine::run_pending`] rounds until the queue is empty again.
//! Because the engine's admission lock is never held across solver work,
//! [`ServeDaemon::submit`] admits jobs *while a batch is in flight* — a
//! submit never blocks on a running solve, it just queues the job and nudges
//! the drain thread. Admission is bounded by the engine's
//! [`ServeConfig::queue_depth`] ([`RejectReason::QueueFull`]) and closed by
//! shutdown ([`RejectReason::ShuttingDown`]).
//!
//! ## Lifecycle
//!
//! ```text
//! spawn ──────► idle ◄───────► draining ─────► stopped
//!                ▲   submit /     │  queue       ▲
//!                │   wake         │  empty       │ shutdown / shutdown_now /
//!                └────────────────┘              └─ Drop (implicit shutdown_now)
//! ```
//!
//! - **spawn**: starts the drain thread over the engine as it is (a fresh
//!   engine's cache is empty).
//! - **shutdown** (graceful): stops admission, cancels every queued job,
//!   lets the in-flight batch finish under its own per-job deadlines, joins
//!   the drain thread, and reports what happened to every job
//!   ([`ShutdownReport`]).
//! - **shutdown_now**: like `shutdown`, but also raises every running job's
//!   cancel token, so in-flight solves stop at their next control poll with
//!   [`StopReason::Cancelled`] and land as interrupted best-so-far results.
//! - **Drop**: `shutdown_now` semantics, report discarded.
//!
//! The drain thread never dies with a job: solver panics are contained by
//! the engine's per-job `catch_unwind`, so a poisoned spec fails alone while
//! the loop, the pool, and the engine's cache keep serving.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use afp_metaheuristics::StopReason;

use crate::engine::{JobEngine, JobId, JobOutcome, JobRequest, JobState, RejectReason, ServeConfig};

/// What happened to every job, reported once by shutdown.
#[derive(Debug, Clone, Default)]
pub struct ShutdownReport {
    /// Drain rounds ([`JobEngine::run_pending`] calls) the daemon ran.
    pub rounds: u64,
    /// Jobs that reached a terminal state over the daemon's lifetime.
    pub resolved: usize,
    /// Jobs that finished with [`StopReason::Completed`] or were served from
    /// the cache.
    pub completed: usize,
    /// Jobs that produced an interrupted best-so-far result, with the
    /// per-job reason the run stopped short (deadline, budget, cancel).
    pub interrupted: Vec<(JobId, StopReason)>,
    /// Jobs cancelled before producing any result (queued at shutdown, or
    /// explicitly cancelled before running).
    pub cancelled: usize,
    /// Jobs whose solver panicked.
    pub failed: usize,
}

#[derive(Debug, Default)]
struct DaemonState {
    /// Monotone submission counter; the drain thread sleeps until it moves.
    /// A counter (not a flag) cannot miss a wakeup: a submit that lands
    /// while the drain thread is mid-round leaves `signals` ahead of the
    /// thread's `seen` marker, so the next loop iteration drains again
    /// instead of sleeping.
    signals: u64,
    /// No further admissions; the drain thread exits once the queue is flushed.
    shutting_down: bool,
    /// The drain thread is inside a `run_pending` round.
    draining: bool,
    /// The drain thread has exited.
    stopped: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<DaemonState>,
    /// Wakes the drain thread (submits, shutdown).
    wake: Condvar,
    /// Wakes waiters in [`ServeDaemon::wait_idle`] (round finished, daemon
    /// stopped).
    idle: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, DaemonState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A continuously draining serve loop around a shared [`JobEngine`].
#[derive(Debug)]
pub struct ServeDaemon {
    engine: JobEngine,
    shared: Arc<Shared>,
    drain: Mutex<Option<JoinHandle<u64>>>,
}

impl ServeDaemon {
    /// Builds an engine per `config` and starts draining it.
    pub fn spawn(config: &ServeConfig) -> Self {
        ServeDaemon::spawn_with_engine(JobEngine::new(config))
    }

    /// Starts a drain loop over an existing engine — the way to serve on a
    /// shared pool ([`JobEngine::with_pool`]): the daemon drains, while
    /// other clones of the engine keep full access to states, stats, and the
    /// cache.
    pub fn spawn_with_engine(engine: JobEngine) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(DaemonState::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let drain = {
            let engine = engine.clone();
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("afp-serve-drain".into())
                .spawn(move || drain_loop(&engine, &shared))
                .expect("spawn drain thread")
        };
        ServeDaemon {
            engine,
            shared,
            drain: Mutex::new(Some(drain)),
        }
    }

    /// The underlying engine (for states, outcomes and cache counters).
    pub fn engine(&self) -> &JobEngine {
        &self.engine
    }

    /// Admits a job into the live drain loop. Never blocks on a running
    /// batch; fails with a typed [`RejectReason`] when the queue is at its
    /// bound or the daemon is shutting down.
    pub fn submit(&self, request: JobRequest) -> Result<JobId, RejectReason> {
        if self.shared.lock().shutting_down {
            return Err(RejectReason::ShuttingDown);
        }
        let id = self.engine.try_submit(request)?;
        let mut state = self.shared.lock();
        state.signals += 1;
        drop(state);
        self.shared.wake.notify_one();
        Ok(id)
    }

    /// Convenience: the job's outcome if it reached [`JobState::Done`].
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        self.engine.outcome(id)
    }

    /// Blocks until the daemon is idle: no round in flight and nothing
    /// queued (or the daemon has stopped). On return, every job submitted
    /// *before* this call is in a terminal state.
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock();
        loop {
            if state.stopped || (!state.draining && self.engine.pending() == 0) {
                return;
            }
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Graceful shutdown: stops admission, cancels the queued backlog, lets
    /// the in-flight batch finish (under its own per-job deadlines), joins
    /// the drain thread, and reports per-job outcomes. Idempotent — a
    /// second call rebuilds the report from the engine's job table.
    pub fn shutdown(&self) -> ShutdownReport {
        self.shutdown_inner(false)
    }

    /// [`ServeDaemon::shutdown`], but running jobs are cancelled too: their
    /// tokens are raised so they stop at the next control poll with
    /// [`StopReason::Cancelled`] instead of running to completion.
    pub fn shutdown_now(&self) -> ShutdownReport {
        self.shutdown_inner(true)
    }

    fn shutdown_inner(&self, cancel_running: bool) -> ShutdownReport {
        {
            let mut state = self.shared.lock();
            state.shutting_down = true;
        }
        // Flush the backlog before waking the drain thread so the final
        // round only finishes what is already running.
        self.engine.cancel_queued();
        if cancel_running {
            self.engine.cancel_all();
        }
        self.shared.wake.notify_all();
        let handle = self.drain.lock().unwrap_or_else(|p| p.into_inner()).take();
        let rounds = match handle {
            Some(handle) => handle.join().unwrap_or(0),
            None => 0,
        };
        // Close the straggler race: a submit that passed the shutting_down
        // check before the flag landed may have queued a job the drain
        // thread never saw. It is cancelled, not solved — admission was
        // already closed from the caller's point of view.
        self.engine.cancel_queued();
        self.report(rounds)
    }

    fn report(&self, rounds: u64) -> ShutdownReport {
        let mut report = ShutdownReport {
            rounds,
            ..ShutdownReport::default()
        };
        for (id, state) in self.engine.states() {
            match state {
                JobState::Done(outcome) => {
                    report.resolved += 1;
                    if outcome.result.stop == StopReason::Completed {
                        report.completed += 1;
                    } else {
                        report.interrupted.push((id, outcome.result.stop));
                    }
                }
                JobState::Cancelled => {
                    report.resolved += 1;
                    report.cancelled += 1;
                }
                JobState::Failed(_) => {
                    report.resolved += 1;
                    report.failed += 1;
                }
                JobState::Queued | JobState::Running => {}
            }
        }
        report
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        if self.drain.lock().unwrap_or_else(|p| p.into_inner()).is_some() {
            self.shutdown_now();
        }
    }
}

/// The drain thread: sleep until signalled, drain, repeat; exit once
/// shutdown has flushed the queue. Returns the number of rounds run.
fn drain_loop(engine: &JobEngine, shared: &Arc<Shared>) -> u64 {
    let mut rounds = 0u64;
    let mut seen = 0u64;
    loop {
        {
            let mut state = shared.lock();
            while state.signals == seen && !state.shutting_down {
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
            seen = state.signals;
            state.draining = true;
        }
        rounds += 1;
        engine.run_pending();
        let mut state = shared.lock();
        state.draining = false;
        if state.shutting_down {
            // Admission is closed; anything still queued slipped in during
            // this round and shutdown wants it cancelled, not solved.
            drop(state);
            engine.cancel_queued();
            let mut state = shared.lock();
            state.stopped = true;
            drop(state);
            shared.idle.notify_all();
            return rounds;
        }
        if engine.pending() == 0 {
            drop(state);
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use afp_circuit::generators;
    use afp_metaheuristics::{Baseline, SaConfig};
    use afp_par::PoolHandle;

    use crate::fingerprint::JobSpec;

    fn sa_spec(seed: u64) -> JobSpec {
        JobSpec::new(generators::ota5(), Baseline::Sa(SaConfig::small()), seed)
    }

    /// A spec that runs effectively forever unless cancelled.
    fn endless_spec(seed: u64) -> JobSpec {
        JobSpec::new(
            generators::ota5(),
            Baseline::Sa(SaConfig {
                iterations: 50_000_000,
                ..SaConfig::small()
            }),
            seed,
        )
    }

    fn daemon(workers: usize) -> ServeDaemon {
        ServeDaemon::spawn(&ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn daemon_drains_submissions_and_reports_completions() {
        let daemon = daemon(2);
        let ids: Vec<JobId> = (1..=4)
            .map(|seed| daemon.submit(JobRequest::new(sa_spec(seed))).expect("admit"))
            .collect();
        daemon.wait_idle();
        for id in &ids {
            assert!(daemon.outcome(*id).is_some(), "job {id:?} not done");
        }
        let report = daemon.shutdown();
        assert!(report.rounds >= 1);
        assert_eq!(report.resolved, 4);
        assert_eq!(report.completed, 4);
        assert_eq!(report.cancelled, 0);
        assert!(report.interrupted.is_empty());
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn submissions_are_admitted_while_a_batch_is_in_flight() {
        let daemon = daemon(1);
        // Occupy the single worker, then submit more while it runs. The
        // admissions must return immediately (they hold no solve lock) and
        // the follow-up jobs drain in later rounds of the same loop.
        let slow = daemon
            .submit(JobRequest {
                spec: endless_spec(1),
                deadline: Some(Duration::from_millis(150)),
                budget: None,
            })
            .expect("admit slow");
        std::thread::sleep(Duration::from_millis(30));
        let live: Vec<JobId> = (2..=3)
            .map(|seed| daemon.submit(JobRequest::new(sa_spec(seed))).expect("admit live"))
            .collect();
        daemon.wait_idle();
        assert_eq!(
            daemon.outcome(slow).expect("slow done").result.stop,
            StopReason::Deadline
        );
        for id in live {
            let outcome = daemon.outcome(id).expect("live job done");
            assert_eq!(outcome.result.stop, StopReason::Completed);
        }
    }

    #[test]
    fn graceful_shutdown_cancels_queued_and_reports_per_job_reasons() {
        let daemon = daemon(1);
        let running = daemon
            .submit(JobRequest::new(endless_spec(1)))
            .expect("admit");
        std::thread::sleep(Duration::from_millis(30));
        // These queue behind the endless job on the single worker.
        let queued: Vec<JobId> = (2..=3)
            .map(|seed| {
                daemon
                    .submit(JobRequest::new(endless_spec(seed)))
                    .expect("admit")
            })
            .collect();
        let report = daemon.shutdown_now();
        // The running job stopped at its next cancel poll with a best-so-far
        // result; the queued ones never ran. (If the scheduler let a queued
        // job start before shutdown landed, it reports as interrupted too —
        // either way nothing completed and everything is accounted for.)
        assert_eq!(report.completed, 0);
        assert_eq!(report.resolved, 3);
        assert_eq!(report.cancelled + report.interrupted.len(), 3);
        assert!(report
            .interrupted
            .iter()
            .any(|(id, _)| *id == running) || matches!(daemon.engine().state(running), JobState::Cancelled));
        for (_, stop) in &report.interrupted {
            assert_eq!(*stop, StopReason::Cancelled);
        }
        let _ = queued;
    }

    #[test]
    fn shutdown_closes_admission_with_a_typed_rejection() {
        let daemon = daemon(1);
        daemon.shutdown();
        assert_eq!(
            daemon.submit(JobRequest::new(sa_spec(1))).unwrap_err(),
            RejectReason::ShuttingDown
        );
        // Idempotent: a second shutdown just rebuilds the report.
        let report = daemon.shutdown();
        assert_eq!(report.resolved, 0);
    }

    #[test]
    fn a_panicking_job_poisons_neither_the_shared_cache_nor_the_drain_loop() {
        let engine = JobEngine::with_pool(&ServeConfig::default(), PoolHandle::new(2));
        let daemon = ServeDaemon::spawn_with_engine(engine);

        // `moves_per_temperature: 0` divides by zero inside SA. Admission
        // rejects it, so it is queued on the engine unvalidated; the good
        // job's submit then wakes the drain loop for both.
        let bad = daemon.engine().submit_unvalidated(JobRequest::new(JobSpec::new(
            generators::ota3(),
            Baseline::Sa(SaConfig {
                moves_per_temperature: 0,
                ..SaConfig::small()
            }),
            1,
        )));
        let good = daemon.submit(JobRequest::new(sa_spec(1))).expect("admit good");
        daemon.wait_idle();
        assert!(matches!(daemon.engine().state(bad), JobState::Failed(_)));
        assert!(daemon.outcome(good).is_some());

        // The drain loop survived: a repeat of the good job is served as a
        // cache hit through the same daemon, from the cache its drain thread
        // shares with the daemon's engine.
        let repeat = daemon.submit(JobRequest::new(sa_spec(1))).expect("admit repeat");
        daemon.wait_idle();
        let repeat = daemon.outcome(repeat).expect("repeat done");
        assert!(repeat.cache_hit);
        assert_eq!(daemon.engine().cache_stats().insertions, 1);
        let report = daemon.shutdown();
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn dropping_a_daemon_stops_it_without_hanging() {
        let daemon = daemon(1);
        daemon
            .submit(JobRequest::new(endless_spec(1)))
            .expect("admit");
        drop(daemon); // must cancel and join, not hang
    }
}
