//! # afp-par — lock-free parallel mapping primitives
//!
//! The workspace's only threading substrate, kept at the bottom of the crate
//! graph (no dependencies) so that both ends of the stack can use it:
//! `afp-core` fans independent experiment runs out with [`parallel_map`],
//! mirroring the paper's use of 16 parallel environments to gather experience
//! (§V-A), and `afp-metaheuristics` batches a generation's candidate
//! evaluations through [`parallel_map_scoped`], whose per-worker state slots
//! carry each worker's `CostCache` from one generation to the next.
//! `afp_core::parallel` re-exports this module, so existing callers are
//! unaffected by the move.
//!
//! Work is distributed lock-free in both entry points: items are split into
//! contiguous chunks and workers claim chunks through a single atomic
//! counter, writing results into index-keyed slots that come back in input
//! order — so the reduction is deterministic regardless of which worker
//! finished first. No mutex is ever taken per item, so workers running short
//! tasks do not serialize on a lock.
//!
//! Since PR 6 the scoped path is backed by a persistent parked [`WorkerPool`]:
//! threads are spawned once and parked between batches, so a long-lived
//! caller (an optimizer evaluating thousands of generations) pays the spawn
//! cost once instead of per batch. [`PoolHandle`] (PR 8) shares one such pool
//! between several runners — e.g. several serve-layer job engines borrow the
//! same workers instead of stacking pools — with a deadlock-free inline
//! fallback for re-entrant dispatches. [`parallel_map_scoped`] remains as a
//! compatibility shim that builds a transient pool per call — same results,
//! spawn-per-call cost — and [`parallel_map`] (by-value, no worker state)
//! keeps its original scoped-spawn implementation.
//!
//! The [`control`] module is the workspace's run-control vocabulary:
//! [`CancelToken`] (a clonable atomic flag the pool observes at chunk-claim
//! boundaries via [`WorkerPool::map_scoped_cancellable`]), [`RunControl`]
//! (deadline / budget / cancellation handle the optimizer loops poll at a
//! deterministic stride) and [`StopReason`] (the typed outcome recorded in
//! results). The `fault-inject` feature adds the `fault` module — a
//! deterministic splitmix64-seeded fault plan the robustness proptests use
//! to make the Nth job panic or stall.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod control;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod handle;
mod pool;

pub use control::{CancelToken, RunControl, StopReason};
pub use handle::PoolHandle;
pub use pool::{resolve_workers, PoolStats, WorkerPool};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, distributing items across `workers` threads, and
/// returns the results in the original item order.
///
/// Items are consumed; each is handed to exactly one worker by value. When the
/// closure needs reusable per-worker state (scratch buffers, caches), use
/// [`parallel_map_scoped`] instead — this entry point gives workers no state
/// hook, so any cache built inside `f` is rebuilt per item.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }

    // Chunked claiming: more chunks than workers keeps the load balanced when
    // item costs vary, while one atomic increment per *chunk* (not per item)
    // keeps contention negligible.
    let chunk = (n / (workers * 4)).max(1);
    let num_chunks = n.div_ceil(chunk);
    let next_chunk = AtomicUsize::new(0);

    // Pre-split the items into chunk-sized batches. A worker claims a batch
    // with one atomic increment and takes ownership of it with a single,
    // uncontended `take` — the former per-item global work queue locked the
    // whole item list on every pop.
    let mut batches: Vec<std::sync::Mutex<Option<(usize, Vec<T>)>>> =
        Vec::with_capacity(num_chunks);
    {
        let mut items = items.into_iter();
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let batch: Vec<T> = items.by_ref().take(end - start).collect();
            batches.push(std::sync::Mutex::new(Some((start, batch))));
            start = end;
        }
    }

    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::with_capacity(chunk * 2);
                    loop {
                        let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let (start, batch) = batches[c]
                            .lock()
                            .expect("batch slot poisoned")
                            .take()
                            .expect("batch claimed twice");
                        for (offset, item) in batch.into_iter().enumerate() {
                            local.push((start + offset, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    merge_in_order(n, buffers)
}

/// [`parallel_map`] with borrowed items and persistent per-worker state: the
/// scoped variant the population optimizers' evaluation pool is built on.
///
/// `states` provides one state slot per worker; `states.len()` *is* the
/// worker count (clamped to the item count, so trailing slots of a short
/// batch are simply left untouched). Each spawned worker receives exclusive
/// `&mut` access to its slot for the duration of the call, and because the
/// slots are borrowed — not created inside the call — whatever a worker
/// accumulates in its state (a warm `CostCache`, scratch buffers) survives
/// into the next call. That is the point of this entry point: an optimizer
/// evaluates one generation per call, and per-worker caches must not be
/// rebuilt per generation.
///
/// Results are returned in input order regardless of which worker evaluated
/// which item, so the reduction a caller performs over the returned vector is
/// deterministic for any worker count.
///
/// With a single state slot (or a single item) no thread is spawned and the
/// call degenerates to the plain serial loop `items.iter().map(|item|
/// f(&mut states[0], item))` — byte-for-byte the code path a serial optimizer
/// runs, which is what makes "bit-identical at one worker" a trivial
/// guarantee rather than a testing burden.
///
/// This free function is the *spawn-per-call* form: each call builds a
/// transient [`WorkerPool`], which spawns and joins its threads within the
/// call. Callers that dispatch many batches should hold a [`WorkerPool`] and
/// use [`WorkerPool::map_scoped`] — identical results (same chunking, same
/// candidate-order merge), but the threads are spawned once and parked
/// between batches. The `pool_overhead` section of `BENCH_pack.json` records
/// the measured gap.
///
/// # Panics
///
/// Panics if `states` is empty; propagates panics from worker closures.
///
/// # Examples
///
/// ```
/// // Per-worker state persists across calls: here each worker counts the
/// // items it has processed over two batches.
/// let items: Vec<u64> = (0..100).collect();
/// let mut counters = vec![0usize; 4];
/// let a = afp_par::parallel_map_scoped(&items, &mut counters, |seen, &x| {
///     *seen += 1;
///     x * 2
/// });
/// let b = afp_par::parallel_map_scoped(&items, &mut counters, |seen, &x| {
///     *seen += 1;
///     x * 2
/// });
/// assert_eq!(a, b);
/// assert_eq!(counters.iter().sum::<usize>(), 200, "state survived both calls");
/// ```
pub fn parallel_map_scoped<T, R, S, F>(items: &[T], states: &mut [S], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    assert!(
        !states.is_empty(),
        "parallel_map_scoped needs at least one worker state"
    );
    // A transient pool sized to the effective worker count: `states.len()`
    // is the worker count (clamped to the item count), exactly as before the
    // persistent pool existed. Sizing the pool to the clamp means a 1-item
    // or 1-state call constructs a 1-worker pool, which spawns no thread and
    // runs the serial loop inline.
    let workers = states.len().min(items.len()).max(1);
    WorkerPool::new(workers).map_scoped(items, states, f)
}

/// Merges per-worker `(index, value)` buffers into one vector in input order.
fn merge_in_order<R>(n: usize, buffers: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for buffer in buffers {
        for (index, value) in buffer {
            results[index] = Some(value);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every item processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..20).collect();
        let out = parallel_map(items.clone(), 4, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_still_works() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map(vec![5], 16, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn uneven_chunks_cover_every_item() {
        // 1000 items over 7 workers: chunk boundaries do not divide evenly.
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(items, 7, |x| x + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn variable_cost_items_balance() {
        // Skewed workloads must still produce ordered, complete results.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(items, 4, |x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let mut states = vec![(); 4];
        let out = parallel_map_scoped(&items, &mut states, |_, &x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_single_state_is_the_serial_loop() {
        // One state slot: no threads, items visited strictly in order.
        let items: Vec<usize> = (0..50).collect();
        let mut states = vec![Vec::<usize>::new()];
        let out = parallel_map_scoped(&items, &mut states, |seen, &x| {
            seen.push(x);
            x
        });
        assert_eq!(out, items);
        assert_eq!(states[0], items, "serial path must visit items in order");
    }

    #[test]
    fn scoped_state_persists_across_calls() {
        let items: Vec<u32> = (0..32).collect();
        let mut counters = vec![0u32; 3];
        for _ in 0..5 {
            let _ = parallel_map_scoped(&items, &mut counters, |count, &x| {
                *count += 1;
                x
            });
        }
        assert_eq!(counters.iter().sum::<u32>(), 5 * 32);
    }

    #[test]
    fn scoped_clamps_workers_to_item_count() {
        // 2 items, 8 state slots: only the first 2 slots may be touched.
        let items = vec![10u64, 20];
        let mut touched = vec![false; 8];
        let out = parallel_map_scoped(&items, &mut touched, |t, &x| {
            *t = true;
            x
        });
        assert_eq!(out, items);
        assert!(touched[2..].iter().all(|&t| !t), "trailing slots untouched");
    }

    #[test]
    fn scoped_empty_input_returns_empty() {
        let mut states = vec![0u8; 2];
        let out: Vec<u8> = parallel_map_scoped(&[], &mut states, |_, &x: &u8| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker state")]
    fn scoped_rejects_empty_states() {
        let items = [1u8];
        let mut states: Vec<u8> = Vec::new();
        let _ = parallel_map_scoped(&items, &mut states, |_, &x| x);
    }

    #[test]
    fn scoped_matches_serial_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37)).collect();
        for workers in 1..=8 {
            let mut states = vec![(); workers];
            let out = parallel_map_scoped(&items, &mut states, |_, &x| x.wrapping_mul(0x9E37));
            assert_eq!(out, serial, "diverged at {workers} workers");
        }
    }
}
