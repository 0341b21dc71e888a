//! Persistent parked worker pool: OS threads spawned once, parked between
//! batches, servicing [`map_scoped`](WorkerPool::map_scoped) dispatches with
//! no per-batch spawn cost.
//!
//! ## Why a persistent pool
//!
//! A spawn-per-call scoped map pays one thread spawn-and-join per call —
//! ~50–150 µs join-to-join on a quiet Linux host. That is invisible when a batch carries hundreds of µs of work, and
//! dominant when an optimizer batches finely (a 40-candidate generation at
//! ~2 µs per evaluation is ~80 µs of work). A [`WorkerPool`] moves the spawn
//! to construction: workers block in [`std::thread::park`] between batches,
//! a dispatch is one atomic epoch store plus one `unpark` per *active*
//! worker, and the calling thread participates as worker 0 so a `workers = 1`
//! pool never creates a thread at all.
//!
//! ## Dispatch protocol
//!
//! A batch is published as a type-erased [`Job`]: a monomorphic trampoline
//! function pointer plus a pointer to a stack-allocated [`Context`] holding
//! the item slice, the per-worker state slots, the result slots and the
//! shared chunk counter. The dispatcher writes the job, then bumps each
//! active worker's epoch with a `Release` store and unparks it; workers
//! `Acquire`-load the epoch, so the job write happens-before every read of
//! it. The dispatcher blocks (parked) until the `remaining` counter drains,
//! which is what makes lending stack references to `'static` worker threads
//! sound: the context outlives every access because `map_scoped` does not
//! return while any worker can still touch it.
//!
//! ## Determinism
//!
//! Results are written into per-item slots keyed by item index, so the
//! returned vector is in input order no matter which worker claimed which
//! chunk — the same candidate-order merge contract the scoped entry points
//! have always had, and the property the evaluation pool's bit-identity
//! guarantee builds on.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};

use crate::control::CancelToken;

/// A persistent pool of parked worker threads servicing
/// [`map_scoped`](WorkerPool::map_scoped) batches.
///
/// Threads are spawned once, at construction, and parked between batches;
/// dispatching a batch costs one `unpark` per active worker instead of a
/// thread spawn (the module-level docs describe the protocol; the
/// `pool_overhead` section of `BENCH_pack.json` has measured numbers). The
/// calling thread always participates as worker 0, so a 1-worker pool spawns
/// no thread and runs batches inline — byte-for-byte the serial loop.
///
/// Batches with fewer items than workers clamp the active worker count to
/// the item count: surplus threads are simply not woken (they stay parked),
/// so a short batch never pays for the full worker complement.
///
/// # Examples
///
/// ```
/// use afp_par::WorkerPool;
///
/// let items: Vec<u64> = (0..100).collect();
/// let mut pool = WorkerPool::new(4);
/// let mut counters = vec![0usize; 4];
/// // Two batches over the same pool: no thread is spawned in between, and
/// // per-worker state persists from one batch to the next.
/// let a = pool.map_scoped(&items, &mut counters, |seen, &x| { *seen += 1; x * 2 });
/// let b = pool.map_scoped(&items, &mut counters, |seen, &x| { *seen += 1; x * 2 });
/// assert_eq!(a, b);
/// assert_eq!(counters.iter().sum::<usize>(), 200);
/// assert_eq!(pool.stats().batches, 2);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Unpark handles of the spawned threads; thread `t` (1-based worker
    /// index) lives at `threads[t - 1]`. Worker 0 is the dispatching thread.
    threads: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
    stats: PoolStats,
}

/// Dispatch counters of a [`WorkerPool`], for observability (the perf
/// snapshot records them): how many batches ran, how many were served inline
/// by the calling thread, and how many thread wake-ups were issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total `map_scoped` batches dispatched (including empty ones).
    pub batches: u64,
    /// Batches that ran entirely on the calling thread (single effective
    /// worker — a 1-worker pool, a 1-item batch, or a 1-slot state).
    pub inline_batches: u64,
    /// Batches that woke at least one parked thread.
    pub parked_dispatches: u64,
    /// Total `unpark` wake-ups issued across all batches — the pool's whole
    /// dispatch cost in units of futex wakes, where the scoped entry points
    /// would have paid a thread spawn each.
    pub threads_woken: u64,
    /// Batches whose item count was below the available worker count, where
    /// the active complement was clamped and surplus workers stayed parked.
    pub clamped_batches: u64,
}

/// The type-erased batch descriptor workers execute. Published by the
/// dispatcher before the epoch stores that release it; never mutated while a
/// worker may read it (the dispatcher blocks until `remaining` drains before
/// returning, and the next `map_scoped` needs `&mut self`).
struct Job {
    /// Monomorphic trampoline reconstructing the concrete [`Context`] type.
    run: unsafe fn(*const (), usize),
    /// Pointer to the dispatcher's stack-allocated [`Context`].
    ctx: *const (),
    /// The dispatching thread, unparked by whichever worker drains
    /// `remaining` to zero.
    caller: Thread,
}

struct Shared {
    job: UnsafeCell<Job>,
    /// Per-thread dispatch epochs (`go[t - 1]` belongs to worker `t`): a
    /// worker parks while its epoch equals the last value it processed, so
    /// waking a worker is an epoch bump plus an unpark — and workers outside
    /// a clamped batch's active set are simply left unbumped.
    go: Vec<AtomicU64>,
    /// Active workers still running the current batch (excluding worker 0).
    remaining: AtomicUsize,
    shutdown: AtomicBool,
    /// First panic payload of the batch's workers, re-thrown by the
    /// dispatcher after the batch drains.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

// SAFETY: `job` is written only by the dispatching thread while no worker is
// active (`remaining == 0` and no epoch has been bumped since), and read by
// workers only after an `Acquire` load of their epoch observes the `Release`
// store that followed the write — a happens-before edge per batch. All other
// fields are atomics or a mutex.
unsafe impl Sync for Shared {}
// SAFETY: the raw `ctx` pointer inside `job` is only dereferenced by worker
// threads during a batch, under the protocol above; sending the container
// between threads moves no aliased access.
unsafe impl Send for Shared {}

/// The concrete batch state a [`Job`] points at, monomorphized per
/// `map_scoped` call and reconstructed by [`run_batch`].
struct Context<T, R, S, F> {
    items: *const T,
    n: usize,
    /// Base of the caller's state slots; worker `t` touches only slot `t`.
    states: *mut S,
    /// Base of the result slots; slot `i` is written exactly once, by the
    /// worker that claimed the chunk containing item `i`.
    results: *mut Option<R>,
    f: *const F,
    next_chunk: AtomicUsize,
    chunk: usize,
    num_chunks: usize,
    /// Optional cancellation flag (null = none): checked with a relaxed load
    /// at every chunk-claim boundary, so a cancelled batch stops claiming new
    /// chunks while in-flight chunks drain to completion. Points at the
    /// caller's [`CancelToken`] flag, which outlives the batch because the
    /// dispatcher blocks until `remaining` drains.
    cancel: *const AtomicBool,
}

/// The monomorphic trampoline: claims chunks off the shared counter and
/// writes each item's result into its index-keyed slot.
///
/// # Safety
///
/// `ctx` must point at a live `Context<T, R, S, F>` whose slices outlive the
/// batch, and `worker` must be a unique index in `0..active_workers` (state
/// slot accesses are disjoint by worker, result slot accesses disjoint by
/// item index).
unsafe fn run_batch<T, R, S, F>(ctx: *const (), worker: usize)
where
    F: Fn(&mut S, &T) -> R,
{
    let ctx = &*(ctx as *const Context<T, R, S, F>);
    let state = &mut *ctx.states.add(worker);
    let f = &*ctx.f;
    loop {
        // Chunk-claim boundary: a raised cancel flag stops this worker from
        // claiming further chunks (the chunk being executed always runs to
        // completion — results are all-or-nothing per item, never torn).
        if !ctx.cancel.is_null() && (*ctx.cancel).load(Ordering::Relaxed) {
            break;
        }
        let c = ctx.next_chunk.fetch_add(1, Ordering::Relaxed);
        if c >= ctx.num_chunks {
            break;
        }
        let start = c * ctx.chunk;
        let end = (start + ctx.chunk).min(ctx.n);
        for i in start..end {
            let item = &*ctx.items.add(i);
            // The slot holds `None` (never dropped a value), so a raw write
            // without reading the old value is sound.
            ctx.results.add(i).write(Some(f(state, item)));
        }
    }
}

/// Placeholder job installed at construction; never executed (workers only
/// run a job after their epoch is bumped, which only `map_scoped` and the
/// shutdown path do — and shutdown breaks before running).
unsafe fn noop_job(_: *const (), _: usize) {}

fn worker_loop(shared: Arc<Shared>, t: usize) {
    let mut seen = 0u64;
    loop {
        let slot = &shared.go[t - 1];
        let mut current = slot.load(Ordering::Acquire);
        while current == seen {
            thread::park();
            current = slot.load(Ordering::Acquire);
        }
        seen = current;
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // SAFETY: the job was published before the `Release` epoch store the
        // loop above acquired, and cannot be overwritten until this worker
        // (with every other active one) decrements `remaining`.
        let (run, ctx, caller) = {
            let job = unsafe { &*shared.job.get() };
            (job.run, job.ctx, job.caller.clone())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { run(ctx, t) }));
        if let Err(payload) = outcome {
            // Keep the first payload; later ones are dropped (matching what
            // a scoped spawn's sequential joins would have propagated).
            let mut slot = shared.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
        }
        // `caller` was cloned before the decrement: after `remaining` hits
        // zero the dispatcher may immediately publish the next batch, so the
        // job must not be touched past this point.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// The workspace's one worker-count rule: `0` means one worker per available
/// hardware thread (at least 1); any other value is used as given.
///
/// # Examples
///
/// ```
/// assert_eq!(afp_par::resolve_workers(3), 3);
/// assert!(afp_par::resolve_workers(0) >= 1);
/// ```
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        workers
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` total workers (including the calling
    /// thread), spawning `workers - 1` OS threads that immediately park.
    /// `workers = 0` means one per available hardware thread; any value is
    /// clamped to at least 1. A 1-worker pool spawns nothing and runs every
    /// batch inline.
    pub fn new(workers: usize) -> Self {
        let workers = resolve_workers(workers);
        let shared = Arc::new(Shared {
            job: UnsafeCell::new(Job {
                run: noop_job,
                ctx: std::ptr::null(),
                caller: thread::current(),
            }),
            go: (1..workers).map(|_| AtomicU64::new(0)).collect(),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let handles: Vec<JoinHandle<()>> = (1..workers)
            .map(|t| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("afp-par-{t}"))
                    .spawn(move || worker_loop(shared, t))
                    .expect("spawn pool worker thread")
            })
            .collect();
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        WorkerPool {
            shared,
            threads,
            handles,
            stats: PoolStats::default(),
        }
    }

    /// Total worker count, counting the calling thread as worker 0.
    pub fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// Dispatch counters accumulated since construction.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Applies `f` to every item over the pool's parked workers, with one
    /// mutable state slot per worker, returning results in input order,
    /// without spawning a thread.
    ///
    /// The effective worker count is `min(pool workers, states.len(),
    /// items.len())`: trailing state slots of a short batch are left
    /// untouched and surplus pool threads stay parked. With one effective
    /// worker the batch runs inline on the calling thread — byte-for-byte
    /// the serial `items.iter().map(|item| f(&mut states[0], item))` loop.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty; propagates panics from worker closures
    /// (the batch still drains first, so the pool stays usable).
    pub fn map_scoped<T, R, S, F>(&mut self, items: &[T], states: &mut [S], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: Send,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        self.dispatch(items, states, None, f)
            .into_iter()
            .map(|r| r.expect("every item processed"))
            .collect()
    }

    /// [`map_scoped`](WorkerPool::map_scoped) with cooperative cancellation:
    /// once `cancel` is raised (by any clone of the token — a worker closure,
    /// another thread, a deadline watcher), workers stop claiming new chunks
    /// at the next chunk-claim boundary and the batch drains promptly.
    ///
    /// Returns one slot per item in input order: `Some(result)` for items
    /// whose chunk ran, `None` for items never claimed. An item's result is
    /// all-or-nothing — a chunk in flight when the flag rises still runs to
    /// completion, so every `Some` is a fully computed result and a re-run of
    /// the same item would be bit-identical. With the token never cancelled
    /// the call is equivalent to `map_scoped` (every slot is `Some`).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty; propagates panics from worker closures
    /// (the batch still drains first, so the pool stays usable).
    pub fn map_scoped_cancellable<T, R, S, F>(
        &mut self,
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
        self.dispatch(items, states, Some(cancel), f)
    }

    /// The shared batch engine behind [`map_scoped`](WorkerPool::map_scoped)
    /// and [`map_scoped_cancellable`](WorkerPool::map_scoped_cancellable):
    /// identical scheduling (chunking, clamping, inline path) with an
    /// optional cancel flag observed at chunk-claim boundaries.
    fn dispatch<T, R, S, F>(
        &mut self,
        items: &[T],
        states: &mut [S],
        cancel: Option<&CancelToken>,
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
            "map_scoped needs at least one worker state"
        );
        let n = items.len();
        self.stats.batches += 1;
        if n == 0 {
            return Vec::new();
        }
        let available = states.len().min(self.workers());
        if n < available {
            self.stats.clamped_batches += 1;
        }
        let workers = available.min(n);
        if workers == 1 {
            self.stats.inline_batches += 1;
            let state = &mut states[0];
            return match cancel {
                // No flag: byte-for-byte the historical serial loop.
                None => items.iter().map(|item| Some(f(state, item))).collect(),
                // Flag: per-item check (the inline analogue of a chunk-claim
                // boundary); remaining items come back `None`.
                Some(token) => {
                    let flag = token.flag();
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
            };
        }

        let chunk = (n / (workers * 4)).max(1);
        let num_chunks = n.div_ceil(chunk);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let ctx = Context::<T, R, S, F> {
            items: items.as_ptr(),
            n,
            states: states.as_mut_ptr(),
            results: results.as_mut_ptr(),
            f: &f,
            next_chunk: AtomicUsize::new(0),
            chunk,
            num_chunks,
            cancel: cancel.map_or(std::ptr::null(), |token| token.flag() as *const AtomicBool),
        };
        let ctx_ptr = &ctx as *const Context<T, R, S, F> as *const ();

        // Publish the job, then release it to exactly the active workers.
        // SAFETY: no worker is running (`remaining == 0` since the previous
        // batch drained, and `&mut self` excludes concurrent dispatch), so
        // the job slot is exclusively ours to write.
        unsafe {
            *self.shared.job.get() = Job {
                run: run_batch::<T, R, S, F>,
                ctx: ctx_ptr,
                caller: thread::current(),
            };
        }
        let woken = workers - 1;
        self.shared.remaining.store(woken, Ordering::Release);
        self.stats.parked_dispatches += 1;
        self.stats.threads_woken += woken as u64;
        for t in 1..=woken {
            self.shared.go[t - 1].fetch_add(1, Ordering::Release);
            self.threads[t - 1].unpark();
        }

        // The dispatching thread is worker 0. Its own panic is deferred:
        // returning (unwinding) while workers still hold references into the
        // stack context would be unsound, so the batch drains first either way.
        let inline_outcome =
            catch_unwind(AssertUnwindSafe(|| unsafe { run_batch::<T, R, S, F>(ctx_ptr, 0) }));
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            thread::park();
        }

        let worker_panic = self
            .shared
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = inline_outcome {
            resume_unwind(payload);
        }
        results
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for (i, thread) in self.threads.iter().enumerate() {
            self.shared.go[i].fetch_add(1, Ordering::Release);
            thread.unpark();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_matches_serial_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37)).collect();
        for workers in 1..=8 {
            let mut pool = WorkerPool::new(workers);
            let mut states = vec![(); workers];
            for round in 0..3 {
                let out = pool.map_scoped(&items, &mut states, |_, &x| x.wrapping_mul(0x9E37));
                assert_eq!(out, serial, "diverged at {workers} workers, round {round}");
            }
        }
    }

    #[test]
    fn pool_reuses_threads_across_batches_of_different_types() {
        let mut pool = WorkerPool::new(3);
        let mut sums = vec![0u64; 3];
        let numbers: Vec<u64> = (0..50).collect();
        let doubled = pool.map_scoped(&numbers, &mut sums, |sum, &x| {
            *sum += x;
            x * 2
        });
        assert_eq!(doubled[49], 98);
        // A second batch with completely different item/result/state types
        // runs on the same parked threads (the job is type-erased per batch).
        let words = vec!["a", "bb", "ccc"];
        let mut scratch = vec![String::new(); 3];
        let lens = pool.map_scoped(&words, &mut scratch, |buf, w| {
            buf.push_str(w);
            w.len()
        });
        assert_eq!(lens, vec![1, 2, 3]);
        assert_eq!(sums.iter().sum::<u64>(), (0..50).sum::<u64>());
    }

    #[test]
    fn single_worker_pool_spawns_nothing_and_runs_in_order() {
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let items: Vec<usize> = (0..50).collect();
        let mut states = vec![Vec::<usize>::new()];
        let out = pool.map_scoped(&items, &mut states, |seen, &x| {
            seen.push(x);
            x
        });
        assert_eq!(out, items);
        assert_eq!(states[0], items, "inline path must visit items in order");
        assert_eq!(pool.stats().inline_batches, 1);
        assert_eq!(pool.stats().threads_woken, 0);
    }

    #[test]
    fn small_batches_clamp_instead_of_waking_the_full_complement() {
        let mut pool = WorkerPool::new(8);
        let mut touched = vec![false; 8];
        let items = vec![10u64, 20];
        let out = pool.map_scoped(&items, &mut touched, |t, &x| {
            *t = true;
            x
        });
        assert_eq!(out, items);
        assert!(touched[2..].iter().all(|&t| !t), "trailing slots untouched");
        let stats = pool.stats();
        assert_eq!(stats.clamped_batches, 1);
        assert!(
            stats.threads_woken <= 1,
            "a 2-item batch may wake at most 1 extra worker, woke {}",
            stats.threads_woken
        );
        // A 1-item batch runs inline: no wake at all.
        let one = [7u64];
        let _ = pool.map_scoped(&one, &mut touched, |_, &x| x);
        assert_eq!(pool.stats().threads_woken, stats.threads_woken);
        assert_eq!(pool.stats().inline_batches, 1);
    }

    #[test]
    fn state_persists_across_batches() {
        let items: Vec<u32> = (0..32).collect();
        let mut pool = WorkerPool::new(3);
        let mut counters = vec![0u32; 3];
        for _ in 0..5 {
            let _ = pool.map_scoped(&items, &mut counters, |count, &x| {
                *count += 1;
                x
            });
        }
        assert_eq!(counters.iter().sum::<u32>(), 5 * 32);
        assert_eq!(pool.stats().batches, 5);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let mut pool = WorkerPool::new(4);
        let mut states = vec![0u8; 4];
        let out: Vec<u8> = pool.map_scoped(&[], &mut states, |_, &x: &u8| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker state")]
    fn rejects_empty_states() {
        let mut pool = WorkerPool::new(2);
        let items = [1u8];
        let mut states: Vec<u8> = Vec::new();
        let _ = pool.map_scoped(&items, &mut states, |_, &x| x);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let mut states = vec![(); 4];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.map_scoped(&items, &mut states, |_, &x| {
                assert!(x != 13, "boom at 13");
                x
            });
        }));
        assert!(outcome.is_err(), "panic must propagate to the dispatcher");
        // The batch drained before unwinding, so the pool is still usable.
        let out = pool.map_scoped(&items, &mut states, |_, &x| x + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_chunks_cover_every_item() {
        let items: Vec<usize> = (0..1000).collect();
        let mut pool = WorkerPool::new(7);
        let mut states = vec![(); 7];
        let out = pool.map_scoped(&items, &mut states, |_, &x| x + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = WorkerPool::new(6);
        drop(pool);
        let mut pool = WorkerPool::new(2);
        let _ = pool.map_scoped(&[1u8, 2, 3], &mut [(), ()], |_, &x| x);
        drop(pool);
    }

    #[test]
    fn repeated_panics_across_successive_batches_keep_the_pool_usable() {
        // Panic recovery beyond one shot: five consecutive batches each blow
        // up at a different item, and after every one the pool must still
        // dispatch, drain and count correctly.
        let mut pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let mut states = vec![(); 4];
        for round in 0..5u64 {
            let bomb = round * 11 + 3;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = pool.map_scoped(&items, &mut states, |_, &x| {
                    assert!(x != bomb, "boom at {bomb}");
                    x
                });
            }));
            assert!(outcome.is_err(), "round {round} must propagate its panic");
        }
        let out = pool.map_scoped(&items, &mut states, |_, &x| x + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        // Counters balance: every batch ran to a drain, none was lost.
        let stats = pool.stats();
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.inline_batches + stats.parked_dispatches, stats.batches);
    }

    #[test]
    fn panic_in_worker_zero_is_deferred_until_the_batch_drains() {
        // Worker 0 is the dispatching thread: its panic must not unwind past
        // the stack context while spawned workers may still touch it. States
        // are per-worker, so marking slot 0 targets the caller exactly. The
        // other workers hold their first item until the caller has claimed
        // one, so they cannot drain the batch before slot 0 runs at all; the
        // wait is bounded so a regression fails instead of hanging.
        let mut pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let mut states: Vec<usize> = (0..4).collect();
        let caller_ran = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.map_scoped(&items, &mut states, |slot, &x| {
                if *slot == 0 {
                    caller_ran.store(true, Ordering::Release);
                    panic!("caller-slot boom");
                }
                let waiting = std::time::Instant::now();
                while !caller_ran.load(Ordering::Acquire) {
                    assert!(
                        waiting.elapsed() < std::time::Duration::from_secs(5),
                        "the caller never claimed an item"
                    );
                    thread::yield_now();
                }
                x
            });
        }));
        let payload = outcome.expect_err("worker 0's panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("caller-slot boom"));
        let mut states = vec![(); 4];
        let out = pool.map_scoped(&items, &mut states, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(pool.stats().batches, 2);
    }

    #[test]
    fn panic_while_other_workers_are_mid_chunk_still_drains() {
        // One item panics while every other item stalls briefly, so sibling
        // workers are guaranteed to be mid-chunk when the panic lands. The
        // dispatcher must still wait for the full drain before re-raising —
        // anything else would leave workers reading a dead stack frame.
        let mut pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..32).collect();
        let mut states = vec![(); 4];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.map_scoped(&items, &mut states, |_, &x| {
                if x == 5 {
                    panic!("mid-chunk boom");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                x
            });
        }));
        assert!(outcome.is_err());
        let out = pool.map_scoped(&items, &mut states, |_, &x| x + 7);
        assert_eq!(out, (7..39).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.inline_batches + stats.parked_dispatches, stats.batches);
    }

    #[test]
    fn uncancelled_token_matches_map_scoped_exactly() {
        let items: Vec<u64> = (0..257).collect();
        let token = CancelToken::new();
        for workers in [1usize, 2, 4] {
            let mut pool = WorkerPool::new(workers);
            let mut states = vec![(); workers];
            let plain = pool.map_scoped(&items, &mut states, |_, &x| x.wrapping_mul(3));
            let gated =
                pool.map_scoped_cancellable(&items, &mut states, &token, |_, &x| {
                    x.wrapping_mul(3)
                });
            assert_eq!(gated.len(), items.len());
            assert!(gated.iter().all(Option::is_some), "{workers} workers");
            let gated: Vec<u64> = gated.into_iter().flatten().collect();
            assert_eq!(gated, plain, "{workers} workers");
        }
    }

    #[test]
    fn pre_cancelled_batch_claims_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for workers in [1usize, 3] {
            let mut pool = WorkerPool::new(workers);
            let mut states = vec![0u64; workers];
            let items: Vec<u64> = (0..100).collect();
            let out = pool.map_scoped_cancellable(&items, &mut states, &token, |s, &x| {
                *s += 1;
                x
            });
            assert_eq!(out.len(), items.len());
            assert!(out.iter().all(Option::is_none), "{workers} workers");
            assert_eq!(states.iter().sum::<u64>(), 0, "no closure may have run");
        }
    }

    #[test]
    fn mid_batch_cancellation_drains_with_partial_results() {
        // A worker closure raises the flag partway through: every returned
        // `Some` must be a complete, correct result, and at least one trailing
        // item must have been skipped (the flag rose long before the end).
        let mut pool = WorkerPool::new(2);
        let items: Vec<u64> = (0..400).collect();
        let mut states = vec![(); 2];
        let token = CancelToken::new();
        let out = pool.map_scoped_cancellable(&items, &mut states, &token, |_, &x| {
            if x == 3 {
                token.cancel();
            }
            x * 2
        });
        assert!(token.is_cancelled());
        for (i, slot) in out.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, (i as u64) * 2, "partial results must be exact");
            }
        }
        assert!(
            out.iter().any(Option::is_none),
            "cancellation at item 3 of 400 must leave unclaimed items"
        );
        // The pool survives a cancelled batch like any other.
        let clean = pool.map_scoped(&items, &mut states, |_, &x| x);
        assert_eq!(clean, items);
    }
}
