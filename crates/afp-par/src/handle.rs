//! Shared ownership of a [`WorkerPool`]: a clonable handle through which
//! several runners borrow one process-wide pool instead of each owning
//! (and spawning) their own.
//!
//! ## Why a handle
//!
//! A caller that *owns* a persistent [`WorkerPool`] cannot share it: a job
//! engine whose jobs run a pooled optimizer would stack two thread
//! complements (the engine's and the runner's) and oversubscribe the
//! machine. [`PoolHandle`] makes the pool
//! a process-wide resource: the engine and every nested runner clone the same
//! handle, and whoever dispatches first holds the workers while the dispatch
//! lasts.
//!
//! ## Re-entrancy
//!
//! A nested runner may be *called from inside* a batch running on the very
//! pool it wants to borrow (a job closure that itself fans out chains). A
//! blocking lock would deadlock: the outer dispatch holds the pool until the
//! batch drains, and the batch cannot drain until the inner call returns.
//! The handle therefore takes the pool with [`Mutex::try_lock`] and, when the
//! pool is busy, falls back to the inline serial loop over `states[0]` — the
//! exact code path a 1-worker pool runs. By the workspace's bit-identity
//! contract (results are independent of worker count), the fallback changes
//! *when* work runs, never *what* comes back.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::control::CancelToken;
use crate::pool::{PoolStats, WorkerPool};

/// A clonable, shareable handle to one [`WorkerPool`].
///
/// All clones refer to the same pool; dispatches serialize on an internal
/// mutex. When the pool is already dispatching (including the re-entrant
/// case where the caller *is* one of the pool's workers), the batch runs
/// inline on the calling thread as a serial loop over `states[0]` instead of
/// blocking — deadlock-free by construction, and bit-identical by the
/// worker-count-independence contract the scoped mappers guarantee.
///
/// # Examples
///
/// ```
/// use afp_par::PoolHandle;
///
/// let handle = PoolHandle::new(4);
/// let runner = handle.clone(); // same pool, no new threads
/// let items: Vec<u64> = (0..100).collect();
/// let mut states = vec![(); 4];
/// let out = runner.map_scoped(&items, &mut states, |_, &x| x * 2);
/// assert_eq!(out[99], 198);
/// assert_eq!(handle.workers(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct PoolHandle {
    inner: Arc<Mutex<WorkerPool>>,
    /// Cached so `workers()` never has to take (or wait on) the pool lock.
    workers: usize,
}

impl PoolHandle {
    /// Creates a handle owning a fresh pool of `workers` total workers
    /// (`0` = one per hardware thread; see [`WorkerPool::new`]).
    pub fn new(workers: usize) -> Self {
        Self::from_pool(WorkerPool::new(workers))
    }

    /// Wraps an existing pool in a shared handle.
    pub fn from_pool(pool: WorkerPool) -> Self {
        let workers = pool.workers();
        PoolHandle {
            inner: Arc::new(Mutex::new(pool)),
            workers,
        }
    }

    /// Total worker count of the underlying pool (including the dispatching
    /// thread), cached at construction — never blocks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Dispatch counters of the underlying pool.
    ///
    /// Taken under the pool lock; if the pool is mid-dispatch this waits for
    /// the current batch to drain (stats are an observability surface, not a
    /// hot path). Inline-fallback batches are not visible here — they never
    /// touch the pool.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats()
    }

    /// Non-blocking variant of [`stats`](PoolHandle::stats): `None` when the
    /// pool is mid-dispatch instead of waiting for the batch to drain.
    ///
    /// Meant for monitoring surfaces that sample a live pool (the serve
    /// daemon's drain loop keeps the pool busy for seconds at a time) where
    /// a stale reading is fine but a blocked reader is not.
    pub fn try_stats(&self) -> Option<PoolStats> {
        self.try_lock().map(|pool| pool.stats())
    }

    /// [`WorkerPool::map_scoped`] through the shared handle.
    ///
    /// Takes the pool with `try_lock`; when the pool is busy (another clone
    /// is dispatching, or this call is re-entrant from inside a batch) the
    /// items run inline as the serial loop over `states[0]`. Results are in
    /// input order and bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty; propagates panics from worker closures.
    pub fn map_scoped<T, R, S, F>(&self, items: &[T], states: &mut [S], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: Send,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        assert!(
            !states.is_empty(),
            "map_scoped needs at least one worker state"
        );
        match self.try_lock() {
            Some(mut pool) => pool.map_scoped(items, states, f),
            None => {
                let state = &mut states[0];
                items.iter().map(|item| f(state, item)).collect()
            }
        }
    }

    /// [`WorkerPool::map_scoped_cancellable`] through the shared handle: the
    /// same busy-fallback as [`map_scoped`](PoolHandle::map_scoped), with the
    /// token observed per item on the inline path (the serial analogue of a
    /// chunk-claim boundary).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty; propagates panics from worker closures.
    pub fn map_scoped_cancellable<T, R, S, F>(
        &self,
        items: &[T],
        states: &mut [S],
        cancel: &CancelToken,
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        S: Send,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        assert!(
            !states.is_empty(),
            "map_scoped_cancellable needs at least one worker state"
        );
        match self.try_lock() {
            Some(mut pool) => pool.map_scoped_cancellable(items, states, cancel, f),
            None => {
                let state = &mut states[0];
                let flag = cancel.flag();
                items
                    .iter()
                    .map(|item| {
                        if flag.load(Ordering::Relaxed) {
                            None
                        } else {
                            Some(f(state, item))
                        }
                    })
                    .collect()
            }
        }
    }

    /// Blocking lock used by non-dispatch accessors. Poisoning is recovered:
    /// the pool is designed to survive worker panics (batches drain before
    /// re-raising), so a poisoned mutex still guards a usable pool.
    fn lock(&self) -> std::sync::MutexGuard<'_, WorkerPool> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn try_lock(&self) -> Option<std::sync::MutexGuard<'_, WorkerPool>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_matches_owned_pool_results() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37)).collect();
        for workers in [1usize, 2, 4] {
            let handle = PoolHandle::new(workers);
            let mut states = vec![(); workers];
            let out = handle.map_scoped(&items, &mut states, |_, &x| x.wrapping_mul(0x9E37));
            assert_eq!(out, serial, "diverged at {workers} workers");
        }
    }

    #[test]
    fn clones_share_one_pool() {
        let handle = PoolHandle::new(3);
        let clone = handle.clone();
        let items: Vec<u64> = (0..64).collect();
        let mut states = vec![(); 3];
        let _ = handle.map_scoped(&items, &mut states, |_, &x| x);
        let _ = clone.map_scoped(&items, &mut states, |_, &x| x);
        // Both dispatches landed on the same pool's counters.
        assert_eq!(handle.stats().batches, 2);
        assert_eq!(clone.stats().batches, 2);
    }

    #[test]
    fn reentrant_dispatch_falls_back_inline_without_deadlock() {
        // An outer batch whose closure dispatches on the same handle: the
        // inner call must take the inline path (the pool lock is held by the
        // outer dispatch) and still return correct, ordered results.
        let handle = PoolHandle::new(2);
        let inner_items: Vec<u64> = (0..10).collect();
        let outer_items: Vec<u64> = (0..8).collect();
        let mut states = vec![(); 2];
        let nested = handle.clone();
        let out = handle.map_scoped(&outer_items, &mut states, |_, &x| {
            let mut inner_states = vec![(); 2];
            let inner: Vec<u64> =
                nested.map_scoped(&inner_items, &mut inner_states, |_, &y| y + x);
            inner.iter().sum::<u64>()
        });
        let expected: Vec<u64> = outer_items
            .iter()
            .map(|&x| inner_items.iter().map(|&y| y + x).sum())
            .collect();
        assert_eq!(out, expected);
        // Only the outer dispatches reached the pool.
        assert_eq!(handle.stats().batches, 1);
    }

    #[test]
    fn try_stats_is_none_only_while_the_pool_is_held() {
        let handle = PoolHandle::new(2);
        let items: Vec<u64> = (0..8).collect();
        let mut states = vec![(); 2];
        let _ = handle.map_scoped(&items, &mut states, |_, &x| x);
        // Idle pool: the sample succeeds and sees the dispatch above.
        assert_eq!(handle.try_stats().expect("pool idle").batches, 1);
        // Pool held by a running batch: the sample declines instead of
        // blocking until the batch drains.
        let sampler = handle.clone();
        let out = handle.map_scoped(&[0u8], &mut states, |_, _| sampler.try_stats().is_none());
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn cancellable_through_handle_observes_the_token() {
        let handle = PoolHandle::new(2);
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u64> = (0..50).collect();
        let mut states = vec![0u64; 2];
        let out = handle.map_scoped_cancellable(&items, &mut states, &token, |s, &x| {
            *s += 1;
            x
        });
        assert!(out.iter().all(Option::is_none));
        assert_eq!(states.iter().sum::<u64>(), 0);
    }

    #[test]
    fn inline_fallback_observes_the_token_per_item() {
        // Force the fallback by holding the pool from an outer dispatch, then
        // cancel partway through the inner loop.
        let handle = PoolHandle::new(2);
        let mut states = vec![(); 2];
        let nested = handle.clone();
        let out = handle.map_scoped(&[0u8], &mut states, |_, _| {
            let token = CancelToken::new();
            let items: Vec<u64> = (0..100).collect();
            let mut inner_states = vec![(); 1];
            let inner = nested.map_scoped_cancellable(&items, &mut inner_states, &token, |_, &x| {
                if x == 5 {
                    token.cancel();
                }
                x
            });
            inner.iter().filter(|r| r.is_some()).count()
        });
        // Items 0..=5 ran (the flag is checked before each item), the rest
        // were skipped.
        assert_eq!(out, vec![6]);
    }
}
