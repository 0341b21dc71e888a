//! [`PoolHandle`]: a worker count, dispatch counters, and one scoped
//! [`map`](PoolHandle::map).
//!
//! ## Why scoped threads
//!
//! The only parallel traffic in the workspace is the serve engine's phase 2:
//! one dispatch per drain round, each item a millisecond-scale solve. A
//! thread spawn costs tens of microseconds, so parking threads between
//! rounds would save nothing measurable; `map` spawns its helpers on
//! [`std::thread::scope`] per call, which lets them borrow the items and the
//! closure directly.
//!
//! ## Determinism
//!
//! Workers claim items one at a time through an atomic index. Each result is
//! tagged with its item index and put back in input order, so the returned
//! vector does not depend on which worker ran which item.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// Dispatch counters of a [`PoolHandle`], shared by all of its clones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total [`map`](PoolHandle::map) calls (including empty ones).
    pub batches: u64,
    /// Helper threads spawned across all calls (the caller is never
    /// counted; an inline call adds nothing).
    pub threads_woken: u64,
    /// Calls with fewer items than workers, where the helper count was
    /// clamped to the item count.
    pub clamped_batches: u64,
}

#[derive(Debug, Default)]
struct Counters {
    batches: AtomicU64,
    threads_woken: AtomicU64,
    clamped_batches: AtomicU64,
}

/// A clonable worker count with shared dispatch counters.
///
/// Clones share the counters; each [`map`](PoolHandle::map) call brings its
/// own scoped threads, so concurrent and nested calls never wait on each
/// other.
///
/// # Examples
///
/// ```
/// use afp_par::PoolHandle;
///
/// let handle = PoolHandle::new(4);
/// let runner = handle.clone(); // same counters
/// let items: Vec<u64> = (0..100).collect();
/// let out = runner.map(&items, |&x| x * 2);
/// assert_eq!(out[99], 198);
/// assert_eq!(handle.workers(), 4);
/// assert_eq!(handle.stats().batches, 1);
/// ```
#[derive(Clone, Debug)]
pub struct PoolHandle {
    workers: usize,
    counters: Arc<Counters>,
}

impl PoolHandle {
    /// A handle of `workers` total workers, counting the calling thread.
    /// `0` means one per available hardware thread.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            workers
        };
        PoolHandle {
            workers,
            counters: Arc::default(),
        }
    }

    /// Total worker count, counting the calling thread as worker 0.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Dispatch counters accumulated across every clone of this handle.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            threads_woken: self.counters.threads_woken.load(Ordering::Relaxed),
            clamped_batches: self.counters.clamped_batches.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every item on up to [`workers`](PoolHandle::workers)
    /// threads and returns the results in input order.
    ///
    /// The caller runs as worker 0; `min(workers, items) − 1` helpers are
    /// spawned on a [`thread::scope`]. With one worker or one item the call
    /// runs inline and spawns nothing.
    ///
    /// # Panics
    ///
    /// If `f` panics on any worker, the remaining items still run and the
    /// first panic is re-raised after every thread has joined.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        if items.len() < self.workers {
            self.counters
                .clamped_batches
                .fetch_add(1, Ordering::Relaxed);
        }
        let active = self.workers.min(items.len());
        if active <= 1 {
            return items.iter().map(f).collect();
        }
        self.counters
            .threads_woken
            .fetch_add(active as u64 - 1, Ordering::Relaxed);

        // `Relaxed` suffices: the index publishes no data, and each
        // worker's results reach the caller through its join.
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(item)));
            }
        };
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let mut panic = None;
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..active).map(|_| scope.spawn(claim)).collect();
            let own = catch_unwind(AssertUnwindSafe(&claim));
            for joined in std::iter::once(own).chain(helpers.into_iter().map(|h| h.join())) {
                match joined {
                    Ok(done) => {
                        for (i, r) in done {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every item is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_at_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37)).collect();
        for workers in [1usize, 2, 3, 4, 8] {
            let handle = PoolHandle::new(workers);
            let out = handle.map(&items, |&x| x.wrapping_mul(0x9E37));
            assert_eq!(out, serial, "diverged at {workers} workers");
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_inline() {
        let caller = thread::current().id();
        let items: Vec<u64> = (0..16).collect();
        let single = PoolHandle::new(1);
        assert!(single
            .map(&items, |_| thread::current().id() == caller)
            .iter()
            .all(|&b| b));
        let wide = PoolHandle::new(4);
        assert_eq!(
            wide.map(&[7u64], |_| thread::current().id() == caller),
            vec![true]
        );
        assert_eq!(single.stats().threads_woken + wide.stats().threads_woken, 0);
    }

    #[test]
    fn small_batches_clamp_the_helper_count() {
        let handle = PoolHandle::new(4);
        let out = handle.map(&[1u64, 2], |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
        let full: Vec<u64> = (0..8).collect();
        let _ = handle.map(&full, |&x| x);
        let stats = handle.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.clamped_batches, 1);
        // One helper for the 2-item call, three for the 8-item one.
        assert_eq!(stats.threads_woken, 4);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let handle = PoolHandle::new(3);
        let out: Vec<u64> = handle.map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
        assert_eq!(handle.stats().batches, 1);
    }

    #[test]
    fn auto_worker_count_is_positive() {
        assert!(PoolHandle::new(0).workers() >= 1);
    }

    #[test]
    fn clones_share_counters() {
        let handle = PoolHandle::new(3);
        let clone = handle.clone();
        let items: Vec<u64> = (0..64).collect();
        let _ = handle.map(&items, |&x| x);
        let _ = clone.map(&items, |&x| x);
        assert_eq!(handle.stats().batches, 2);
        assert_eq!(clone.stats(), handle.stats());
    }

    #[test]
    fn nested_map_completes_and_matches_serial() {
        // A closure that maps on a clone of its own handle: each call brings
        // its own scoped threads, so the inner call never waits on the outer.
        let handle = PoolHandle::new(2);
        let inner_items: Vec<u64> = (0..10).collect();
        let outer_items: Vec<u64> = (0..8).collect();
        let nested = handle.clone();
        let out = handle.map(&outer_items, |&x| {
            nested.map(&inner_items, |&y| y + x).iter().sum::<u64>()
        });
        let expected: Vec<u64> = outer_items
            .iter()
            .map(|&x| inner_items.iter().map(|&y| y + x).sum())
            .collect();
        assert_eq!(out, expected);
        assert_eq!(handle.stats().batches, 1 + outer_items.len() as u64);
    }

    #[test]
    fn panic_is_reraised_after_the_other_items_run() {
        let handle = PoolHandle::new(3);
        let items: Vec<u64> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle.map(&items, |&x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = outcome.expect_err("the panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom at 5")
        );
        // Every other item ran before the panic was re-raised.
        assert_eq!(ran.load(Ordering::Relaxed), 63);
        // The handle stays usable.
        assert_eq!(handle.map(&items, |&x| x), items);
    }
}
