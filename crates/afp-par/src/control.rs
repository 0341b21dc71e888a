//! Cooperative run control: deadlines, budgets and cancellation for
//! long-running optimizer loops.
//!
//! The types here are the workspace-wide vocabulary for *stopping things*:
//!
//! * [`CancelToken`] — a clonable `AtomicBool` flag. Cloning shares the flag,
//!   so one `cancel()` is observed by every holder: the serve engine that
//!   issued a job and the optimizer loop running it.
//! * [`RunControl`] — the handle an optimizer run polls: an optional
//!   wall-clock deadline, an optional evaluation budget, the cancel token,
//!   and the polling stride.
//! * [`StopReason`] — the typed outcome recorded in every result: why the
//!   run returned when it did.
//!
//! # Determinism
//!
//! `RunControl` is designed so that an *uninterrupted* run is bit-identical
//! to a run that never held a control at all. [`RunControl::poll`] draws
//! nothing from any RNG and mutates nothing observable; the budget is
//! compared exactly on every call (a pure integer comparison, so a budget
//! stop always happens at the same evaluation count on every machine), while
//! the clock read and the cancel-flag load — whose *outcomes* are inherently
//! racy — are gated to a deterministic stride (every
//! [`stride`](RunControl::stride) ticks). An interrupted run therefore stops
//! at a stride boundary, and an uninterrupted one replays the historical
//! trajectory bit-for-bit because the control never influenced it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default polling stride of [`RunControl`]: interrupt checks (clock,
/// cancel flag) run every this-many ticks. Chosen so a ~1.5 µs SA move loop
/// pays well under 1 % overhead while still reacting within ~100 µs.
pub const DEFAULT_STRIDE: u64 = 64;

/// A clonable cooperative cancellation flag backed by an `AtomicBool`.
///
/// Clones share the flag: `cancel()` on any clone is observed by all of
/// them. Cancellation is cooperative and one-way — there is no "un-cancel".
///
/// # Examples
///
/// ```
/// use afp_par::CancelToken;
///
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; observed by every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised (by any clone).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why an optimizer run returned when it did.
///
/// `Completed` is the only "uninterrupted" reason; every other variant means
/// the result carries the best candidate found *so far*, not the best the
/// full budget would have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The run exhausted its configured move/generation budget normally.
    Completed,
    /// The wall-clock deadline passed (observed at a stride boundary).
    Deadline,
    /// The [`CancelToken`] was raised (observed at a stride boundary).
    Cancelled,
    /// The evaluation budget was exhausted (exact: always at the same
    /// evaluation count for a given budget).
    Budget,
}

impl StopReason {
    /// Whether the run was cut short (anything but [`StopReason::Completed`]).
    pub fn is_interrupted(&self) -> bool {
        !matches!(self, StopReason::Completed)
    }
}

/// A cooperative control handle threaded through optimizer runs: wall-clock
/// deadline, evaluation budget and cancellation.
///
/// Constructed with [`RunControl::unbounded`] and narrowed with the `with_*`
/// builders. Cloning shares the [`CancelToken`] (and copies the limits), so
/// one holder's `cancel()` stops every run polling a clone.
///
/// # Determinism
///
/// See the [module docs](self): the budget is checked exactly on every
/// [`poll`](RunControl::poll), interrupt sources (clock, cancel flag) only at
/// stride boundaries, and nothing here ever touches an RNG — an
/// uninterrupted run is bit-identical to an uncontrolled one.
///
/// # Examples
///
/// ```
/// use afp_par::{RunControl, StopReason};
/// use std::time::Duration;
///
/// let control = RunControl::unbounded()
///     .with_deadline(Duration::from_secs(30))
///     .with_budget(10_000);
/// // An optimizer loop polls once per move with its tick and eval counters:
/// assert_eq!(control.poll(1, 1), None);
/// assert_eq!(control.poll(2, 10_000), Some(StopReason::Budget));
/// ```
#[derive(Debug, Clone)]
pub struct RunControl {
    deadline: Option<Instant>,
    budget: Option<u64>,
    cancel: CancelToken,
    stride: u64,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl::unbounded()
    }
}

impl RunControl {
    /// A control with no deadline, no budget, a fresh token and the default
    /// stride: a run holding it behaves exactly like an uncontrolled run.
    pub fn unbounded() -> Self {
        RunControl {
            deadline: None,
            budget: None,
            cancel: CancelToken::new(),
            stride: DEFAULT_STRIDE,
        }
    }

    /// Sets a wall-clock deadline `after` from now.
    pub fn with_deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(Instant::now() + after);
        self
    }

    /// Sets an evaluation budget: the run stops (with
    /// [`StopReason::Budget`]) once its evaluation counter reaches `evals`.
    /// Exact and machine-independent — a budgeted run always stops at the
    /// same count.
    pub fn with_budget(mut self, evals: u64) -> Self {
        self.budget = Some(evals);
        self
    }

    /// Replaces the cancel token, sharing cancellation with other holders of
    /// `token`.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Sets the interrupt-polling stride (clamped to at least 1): clock and
    /// cancel-flag checks run every `stride` ticks. Smaller reacts faster,
    /// larger costs less per move; the budget check is unaffected (always
    /// exact).
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// The shared cancel token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Raises the shared cancel token (convenience for
    /// `cancel_token().cancel()`).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The interrupt-polling stride in ticks.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The evaluation budget, if one is set.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The per-move poll: `tick` is the runner's loop counter (moves for SA,
    /// generations for GA, iterations for PSO, episodes for SP-RL) and
    /// `evals` its evaluation counter.
    ///
    /// The budget is compared exactly on every call; the clock and the
    /// cancel flag are read only when `tick` is a multiple of the
    /// [`stride`](RunControl::stride). Returns `None` to continue, or the
    /// [`StopReason`] to stop with. Never touches an RNG.
    pub fn poll(&self, tick: u64, evals: u64) -> Option<StopReason> {
        if let Some(budget) = self.budget {
            if evals >= budget {
                return Some(StopReason::Budget);
            }
        }
        if tick.is_multiple_of(self.stride) {
            return self.check_interrupts();
        }
        None
    }

    /// [`poll`](RunControl::poll) without stride gating: budget, cancel flag
    /// and deadline are all checked immediately. The natural poll for
    /// coarse-grained loops (one call per GA generation / PSO iteration /
    /// RL episode, each already thousands of evaluations wide).
    pub fn poll_now(&self, evals: u64) -> Option<StopReason> {
        if let Some(budget) = self.budget {
            if evals >= budget {
                return Some(StopReason::Budget);
            }
        }
        self.check_interrupts()
    }

    /// Checks only the interrupt sources (cancel flag first, then deadline),
    /// ignoring budget and stride.
    pub fn check_interrupts(&self) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_control_never_stops() {
        let control = RunControl::unbounded();
        for tick in 0..10_000u64 {
            assert_eq!(control.poll(tick, tick), None);
        }
        assert_eq!(control.poll_now(u64::MAX), None);
    }

    #[test]
    fn budget_is_exact_and_ignores_the_stride() {
        let control = RunControl::unbounded().with_budget(100).with_stride(64);
        assert_eq!(control.poll(99, 99), None);
        // Tick 100 is not a stride boundary; the budget still fires.
        assert_eq!(control.poll(100, 100), Some(StopReason::Budget));
        assert_eq!(control.poll(101, 250), Some(StopReason::Budget));
    }

    #[test]
    fn cancellation_is_shared_across_clones_and_stride_gated() {
        let control = RunControl::unbounded().with_stride(8);
        let clone = control.clone();
        clone.cancel();
        assert!(control.cancel_token().is_cancelled());
        // Off-stride ticks do not look at the flag...
        assert_eq!(control.poll(3, 3), None);
        // ...stride boundaries do.
        assert_eq!(control.poll(8, 8), Some(StopReason::Cancelled));
        assert_eq!(control.poll_now(0), Some(StopReason::Cancelled));
    }

    #[test]
    fn expired_deadline_fires_at_a_stride_boundary() {
        let control = RunControl::unbounded()
            .with_deadline(Duration::from_secs(0))
            .with_stride(4);
        assert_eq!(control.poll(1, 1), None);
        assert_eq!(control.poll(4, 4), Some(StopReason::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let control = RunControl::unbounded().with_deadline(Duration::from_secs(3600));
        for tick in 0..1000u64 {
            assert_eq!(control.poll(tick, tick), None);
        }
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let control = RunControl::unbounded().with_deadline(Duration::from_secs(0));
        control.cancel();
        assert_eq!(control.check_interrupts(), Some(StopReason::Cancelled));
    }

    #[test]
    fn stride_is_clamped_to_one() {
        let control = RunControl::unbounded().with_stride(0);
        assert_eq!(control.stride(), 1);
    }

    #[test]
    fn stop_reasons_classify_interruption() {
        assert!(!StopReason::Completed.is_interrupted());
        for reason in [
            StopReason::Deadline,
            StopReason::Cancelled,
            StopReason::Budget,
        ] {
            assert!(reason.is_interrupted());
        }
    }
}
