//! Content-addressed result cache and the shareable [`CacheHandle`].
//!
//! Maps [`Fingerprint`]s to solved [`BaselineResult`]s. Because equal
//! fingerprints imply bit-identical solves (the canonicalization contract of
//! [`crate::fingerprint`]), a hit can be returned verbatim in place of a
//! re-solve. Alongside each result the cache stores the winning sequence-pair
//! [`Candidate`] (when the solver exposes one) keyed by the spec's topology
//! fingerprint, so a *near*-identical request — same circuit graph, perturbed
//! sizings or solver knobs — can be seeded from a cached winner's layout
//! instead of a random start ([`ResultCache::warm_hint`]).
//!
//! The warm-start index is **K-deep**: each topology key retains the
//! [`warm_depth`](ResultCache::warm_depth) most recently inserted exact
//! fingerprints (most recent first), and an eviction removes only the evicted
//! entry from its topology's list — the other K−1 keep serving hints. At
//! `warm_depth == 1` the index degenerates to the single most-recent slot the
//! layer originally shipped with ([`ResultCache::new`]).
//!
//! The cache is bounded: inserting into a full cache evicts the
//! least-recently-used entry (recency is a logical tick bumped on every get
//! and insert, so the policy is deterministic — no wall clock involved).
//!
//! [`CacheHandle`] wraps the cache in an `Arc<Mutex<…>>` so several
//! [`JobEngine`](crate::engine::JobEngine)s (and a
//! [`ServeDaemon`](crate::daemon::ServeDaemon)'s drain thread) memoize into
//! one store. Unlike [`afp_par::PoolHandle`], whose dispatch holds its lock
//! for a whole batch and therefore needs a `try_lock` + inline-fallback
//! discipline, every cache operation is microseconds and never calls back
//! into user code, so a plain blocking lock cannot deadlock and keeps the
//! counters exact.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use afp_metaheuristics::{BaselineResult, Candidate};

use crate::fingerprint::Fingerprint;
use crate::persist::{self, PersistError};

/// Default depth of the per-topology warm-start index
/// ([`ServeConfig::warm_depth`](crate::engine::ServeConfig::warm_depth)).
pub const DEFAULT_WARM_DEPTH: usize = 4;

/// A memoized solve: the result plus the winning candidate (if the solver
/// exposes one) for warm-starting same-topology requests.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The solve result, returned verbatim on an exact fingerprint hit.
    pub result: BaselineResult,
    /// The winning candidate, used to warm-start same-topology requests.
    pub best: Option<Candidate>,
}

/// Hit/miss/eviction counters, monotone over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-fingerprint lookups that found a memoized result.
    pub hits: u64,
    /// Exact-fingerprint lookups that found nothing.
    pub misses: u64,
    /// Warm-start hints served to near-identical (same-topology) requests.
    pub warm_seeds: u64,
    /// Entries inserted (restores from a snapshot count here too).
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    solve: CachedSolve,
    topology: Fingerprint,
    last_used: u64,
}

/// Bounded, LRU-evicting, content-addressed store of solve results.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<Fingerprint, Entry>,
    /// The K most recently inserted exact fingerprints per topology
    /// fingerprint, most recent first — the warm-start index.
    by_topology: HashMap<Fingerprint, Vec<Fingerprint>>,
    capacity: usize,
    warm_depth: usize,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1) with a
    /// single-slot warm-start index — the exact behavior the serve layer
    /// originally shipped with. Use [`ResultCache::with_warm_depth`] for a
    /// deeper index.
    pub fn new(capacity: usize) -> Self {
        ResultCache::with_warm_depth(capacity, 1)
    }

    /// Creates a cache holding at most `capacity` entries (minimum 1) whose
    /// warm-start index keeps the `warm_depth` (minimum 1) most recent
    /// entries per topology key.
    pub fn with_warm_depth(capacity: usize, warm_depth: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            by_topology: HashMap::new(),
            capacity: capacity.max(1),
            warm_depth: warm_depth.max(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Warm-start entries retained per topology key.
    pub fn warm_depth(&self) -> usize {
        self.warm_depth
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up an exact fingerprint, counting a hit or miss and refreshing
    /// the entry's recency.
    pub fn get(&mut self, fingerprint: Fingerprint) -> Option<&CachedSolve> {
        self.tick += 1;
        match self.entries.get_mut(&fingerprint) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(&entry.solve)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Exact lookup without touching recency or counters (for inspection).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<&CachedSolve> {
        self.entries.get(&fingerprint).map(|e| &e.solve)
    }

    /// The cached winner for the most recent surviving entry with this
    /// topology fingerprint, if any — a warm-start seed for a near-identical
    /// request. Walks the topology's index most-recent-first and returns the
    /// first entry that exposes a candidate. Counts a `warm_seeds` stat when
    /// it returns one.
    pub fn warm_hint(&mut self, topology: Fingerprint) -> Option<Candidate> {
        let index = self.by_topology.get(&topology)?;
        let best = index.iter().find_map(|exact| {
            self.entries
                .get(exact)
                .and_then(|entry| entry.solve.best.clone())
        });
        if best.is_some() {
            self.stats.warm_seeds += 1;
        }
        best
    }

    /// Inserts (or replaces) the solve for a fingerprint, evicting the
    /// least-recently-used entry if the cache is full, and promotes the
    /// fingerprint to the front of its topology's warm-start index.
    pub fn insert(&mut self, fingerprint: Fingerprint, topology: Fingerprint, solve: CachedSolve) {
        self.tick += 1;
        if let Some(existing) = self.entries.get(&fingerprint) {
            // Replacement: if the caller re-keys the fingerprint to a new
            // topology (cannot happen for fingerprints derived from one
            // JobSpec, but the API allows it), drop the stale index entry so
            // the old topology can never serve this fingerprint's winner.
            if existing.topology != topology {
                let stale = existing.topology;
                self.unindex(stale, fingerprint);
            }
        } else if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.entries.insert(
            fingerprint,
            Entry {
                solve,
                topology,
                last_used: self.tick,
            },
        );
        let index = self.by_topology.entry(topology).or_default();
        index.retain(|fp| *fp != fingerprint);
        index.insert(0, fingerprint);
        index.truncate(self.warm_depth);
        self.stats.insertions += 1;
    }

    /// Counts a hit that was served from outside the store: an in-round
    /// duplicate answered directly from its lead's completed result. The
    /// lead's entry may already have been LRU-evicted by later inserts in
    /// the same round, so this never requires residency; when the entry is
    /// still resident its recency is refreshed, exactly as a
    /// [`ResultCache::get`] hit would.
    pub(crate) fn count_follower_hit(&mut self, fingerprint: Fingerprint) {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            entry.last_used = self.tick;
        }
        self.stats.hits += 1;
    }

    /// Entries in ascending recency order (least recently used first, ties
    /// broken by fingerprint). Re-inserting them in this order into a fresh
    /// cache reproduces the LRU eviction order and rebuilds a warm-start
    /// index keyed by recency — the canonical form the snapshot persists.
    pub(crate) fn entries_by_recency(&self) -> Vec<(Fingerprint, Fingerprint, &CachedSolve)> {
        let mut rows: Vec<(u64, Fingerprint, Fingerprint, &CachedSolve)> = self
            .entries
            .iter()
            .map(|(fp, entry)| (entry.last_used, *fp, entry.topology, &entry.solve))
            .collect();
        rows.sort_by_key(|&(tick, fp, _, _)| (tick, fp));
        rows.into_iter()
            .map(|(_, fp, topo, solve)| (fp, topo, solve))
            .collect()
    }

    /// Removes `fingerprint` from `topology`'s warm-start index, dropping the
    /// index when it empties.
    fn unindex(&mut self, topology: Fingerprint, fingerprint: Fingerprint) {
        if let Some(index) = self.by_topology.get_mut(&topology) {
            index.retain(|fp| *fp != fingerprint);
            if index.is_empty() {
                self.by_topology.remove(&topology);
            }
        }
    }

    fn evict_lru(&mut self) {
        // O(n) scan: the cache is bounded and small relative to solve cost,
        // so a heap would be complexity without payoff. Ties broken by
        // fingerprint for determinism (ticks are unique in practice).
        let victim = self
            .entries
            .iter()
            .min_by_key(|(fp, entry)| (entry.last_used, **fp))
            .map(|(fp, _)| *fp);
        if let Some(fp) = victim {
            if let Some(entry) = self.entries.remove(&fp) {
                // Eviction-aware cleanup: only the evicted entry leaves the
                // warm-start index; the topology's other entries keep
                // serving hints.
                self.unindex(entry.topology, fp);
                self.stats.evictions += 1;
            }
        }
    }
}

/// A clonable, shareable handle to one [`ResultCache`].
///
/// All clones refer to the same store, so N [`JobEngine`]s (or a
/// [`ServeDaemon`] plus ad-hoc engines) memoize into one cache and one set of
/// [`CacheStats`]. Every method takes the internal lock for the duration of
/// one cache operation only — the lock is never held across a solve, a pool
/// dispatch, or any user code, so a blocking lock is deadlock-free here (see
/// the module docs for the contrast with [`afp_par::PoolHandle`]).
///
/// [`JobEngine`]: crate::engine::JobEngine
/// [`ServeDaemon`]: crate::daemon::ServeDaemon
#[derive(Clone, Debug)]
pub struct CacheHandle {
    inner: Arc<Mutex<ResultCache>>,
}

impl CacheHandle {
    /// Creates a handle owning a fresh cache of `capacity` entries with the
    /// default warm-start depth ([`DEFAULT_WARM_DEPTH`]).
    pub fn new(capacity: usize) -> Self {
        CacheHandle::with_warm_depth(capacity, DEFAULT_WARM_DEPTH)
    }

    /// Creates a handle owning a fresh cache with an explicit warm depth.
    pub fn with_warm_depth(capacity: usize, warm_depth: usize) -> Self {
        CacheHandle::from_cache(ResultCache::with_warm_depth(capacity, warm_depth))
    }

    /// Wraps an existing cache in a shared handle.
    pub fn from_cache(cache: ResultCache) -> Self {
        CacheHandle {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    /// Lifetime counters of the shared store (totals across every engine
    /// that clones this handle).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the shared cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    /// Warm-start entries retained per topology key.
    pub fn warm_depth(&self) -> usize {
        self.lock().warm_depth()
    }

    /// Counted exact lookup ([`ResultCache::get`]), cloning the hit out of
    /// the lock scope.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<CachedSolve> {
        self.lock().get(fingerprint).cloned()
    }

    /// Uncounted exact lookup ([`ResultCache::peek`]).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<CachedSolve> {
        self.lock().peek(fingerprint).cloned()
    }

    /// Warm-start hint for a topology ([`ResultCache::warm_hint`]).
    pub fn warm_hint(&self, topology: Fingerprint) -> Option<Candidate> {
        self.lock().warm_hint(topology)
    }

    /// Inserts a solve ([`ResultCache::insert`]).
    pub fn insert(&self, fingerprint: Fingerprint, topology: Fingerprint, solve: CachedSolve) {
        self.lock().insert(fingerprint, topology, solve);
    }

    /// Counts an externally served hit ([`ResultCache::count_follower_hit`]).
    pub(crate) fn count_follower_hit(&self, fingerprint: Fingerprint) {
        self.lock().count_follower_hit(fingerprint);
    }

    /// Serializes the shared cache into the versioned binary snapshot format
    /// (see [`crate::persist`]).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        persist::snapshot_bytes(&self.lock())
    }

    /// Decodes a snapshot and inserts its entries (oldest first, so recency
    /// and the warm-start index rebuild in snapshot order) into the shared
    /// cache. Returns the number of snapshot entries actually resident
    /// afterwards — restoring into a cache with a smaller capacity than the
    /// snapshot evicts the oldest entries during the insert loop, and those
    /// are not counted. Decoding is atomic: on any [`PersistError`] the
    /// cache is left untouched — the caller falls back to cold.
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<usize, PersistError> {
        let snapshot = persist::decode_snapshot(bytes)?;
        let mut cache = self.lock();
        let keys: Vec<Fingerprint> = snapshot.entries.iter().map(|(fp, _, _)| *fp).collect();
        for (fingerprint, topology, solve) in snapshot.entries {
            cache.insert(fingerprint, topology, solve);
        }
        Ok(keys
            .iter()
            .filter(|fp| cache.peek(**fp).is_some())
            .count())
    }

    /// Writes the snapshot to `path` (via a sibling temp file + rename, so a
    /// crash mid-write never leaves a truncated snapshot behind).
    pub fn persist(&self, path: &Path) -> Result<(), PersistError> {
        let bytes = self.snapshot_bytes();
        persist::write_snapshot_file(path, &bytes)
    }

    /// Reads and restores a snapshot from `path`. Typed-error counterpart of
    /// [`CacheHandle::restore_or_cold`].
    pub fn restore(&self, path: &Path) -> Result<usize, PersistError> {
        let bytes = std::fs::read(path).map_err(PersistError::Io)?;
        self.restore_bytes(&bytes)
    }

    /// Reads and restores a snapshot from `path`, treating every failure —
    /// missing file, truncation, corruption, version mismatch — as a cold
    /// start. Returns the number of entries restored (0 on any failure).
    /// Never panics: a damaged snapshot costs re-solves, not the process.
    pub fn restore_or_cold(&self, path: &Path) -> usize {
        self.restore(path).unwrap_or(0)
    }

    /// Poisoning is recovered: the cache's own invariants hold after every
    /// statement, and the serve layer isolates solver panics before they can
    /// unwind through a cache call anyway.
    fn lock(&self) -> MutexGuard<'_, ResultCache> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use afp_metaheuristics::{Baseline, RunControl, SaConfig};

    use crate::fingerprint::JobSpec;

    fn fp(words: [u64; 2]) -> Fingerprint {
        Fingerprint(words)
    }

    fn solve() -> CachedSolve {
        let circuit = generators::ota3();
        let (result, best) = Baseline::Sa(SaConfig::small()).run_controlled(
            &circuit,
            3,
            &RunControl::unbounded(),
            None,
        );
        CachedSolve { result, best }
    }

    /// A solve whose candidate is tagged recognizably by rotating the first
    /// `tag` positions of the positive sequence.
    fn tagged_solve(tag: usize) -> CachedSolve {
        let mut s = solve();
        if let Some(best) = &mut s.best {
            let len = best.positive.len().max(1);
            best.positive.rotate_left(tag % len);
        }
        s
    }

    #[test]
    fn hit_returns_the_inserted_result_and_counts() {
        let mut cache = ResultCache::new(4);
        let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 3);
        let key = spec.fingerprint();
        let topo = spec.topology_fingerprint();
        assert!(cache.get(key).is_none());
        let solve = solve();
        cache.insert(key, topo, solve.clone());
        let hit = cache.get(key).expect("hit");
        assert_eq!(hit.result.reward.to_bits(), solve.result.reward.to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = ResultCache::new(2);
        let s = solve();
        cache.insert(fp([1, 1]), fp([10, 10]), s.clone());
        cache.insert(fp([2, 2]), fp([20, 20]), s.clone());
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(cache.get(fp([1, 1])).is_some());
        cache.insert(fp([3, 3]), fp([30, 30]), s);
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(fp([1, 1])).is_some());
        assert!(cache.peek(fp([2, 2])).is_none());
        assert!(cache.peek(fp([3, 3])).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // Entry 2's warm-start index went with it.
        assert!(cache.warm_hint(fp([20, 20])).is_none());
        assert!(cache.warm_hint(fp([30, 30])).is_some());
    }

    #[test]
    fn warm_hint_follows_the_most_recent_same_topology_entry() {
        let mut cache = ResultCache::new(4);
        let topo = fp([10, 10]);
        let older = solve();
        let mut newer = older.clone();
        if let Some(best) = &mut newer.best {
            best.positive.swap(0, 1);
        }
        cache.insert(fp([1, 1]), topo, older);
        cache.insert(fp([2, 2]), topo, newer.clone());
        let hint = cache.warm_hint(topo).expect("hint");
        assert_eq!(hint.positive, newer.best.unwrap().positive);
        assert_eq!(cache.stats().warm_seeds, 1);
        assert!(cache.warm_hint(fp([99, 99])).is_none());
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let mut cache = ResultCache::new(1);
        let s = solve();
        cache.insert(fp([1, 1]), fp([10, 10]), s.clone());
        cache.insert(fp([1, 1]), fp([10, 10]), s.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        cache.insert(fp([2, 2]), fp([20, 20]), s);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_floor_is_one() {
        let cache = ResultCache::new(0);
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.warm_depth(), 1);
        assert_eq!(ResultCache::with_warm_depth(4, 0).warm_depth(), 1);
    }

    #[test]
    fn warm_index_keeps_the_remaining_k_minus_one_entries_after_eviction() {
        // Three same-topology entries at depth 2: the index holds the two
        // most recent. Evicting the front one must fall back to the other —
        // the single-slot index (warm_depth 1) loses the topology entirely.
        let topo = fp([10, 10]);
        let mut cache = ResultCache::with_warm_depth(2, 2);
        cache.insert(fp([1, 1]), topo, tagged_solve(0));
        cache.insert(fp([2, 2]), topo, tagged_solve(1)); // index: [2, 1]
        cache.insert(fp([3, 3]), topo, tagged_solve(2)); // evicts 1; index: [3, 2]
        assert_eq!(cache.stats().evictions, 1);

        // Make entry 3 (the front of the warm index) the LRU victim.
        assert!(cache.get(fp([2, 2])).is_some());
        cache.insert(fp([4, 4]), fp([40, 40]), tagged_solve(3)); // evicts 3
        assert_eq!(cache.stats().evictions, 2);

        let hint = cache.warm_hint(topo).expect("K-1 entries keep serving");
        assert_eq!(
            hint.positive,
            tagged_solve(1).best.expect("sa exposes a winner").positive,
            "hint must come from the surviving second-most-recent entry"
        );
    }

    #[test]
    fn warm_depth_one_reproduces_the_single_slot_index() {
        // Same eviction sequence as the K-deep test, at depth 1: evicting
        // the most recent same-topology entry loses the topology's hint even
        // though an older same-topology entry survives — exactly the
        // original single-slot behavior ResultCache::new pins.
        let topo = fp([10, 10]);
        let mut cache = ResultCache::new(2);
        cache.insert(fp([2, 2]), topo, tagged_solve(1));
        cache.insert(fp([3, 3]), topo, tagged_solve(2)); // index: [3]
        assert!(cache.get(fp([2, 2])).is_some());
        cache.insert(fp([4, 4]), fp([40, 40]), tagged_solve(3)); // evicts 3
        assert!(
            cache.warm_hint(topo).is_none(),
            "depth-1 index must not fall back to older same-topology entries"
        );
        // The older entry is still an exact hit — only the hint is gone.
        assert!(cache.peek(fp([2, 2])).is_some());
    }

    #[test]
    fn warm_index_depth_bounds_the_per_topology_list() {
        let topo = fp([10, 10]);
        let mut cache = ResultCache::with_warm_depth(8, 2);
        for i in 1..=4u64 {
            cache.insert(fp([i, i]), topo, tagged_solve(i as usize));
        }
        // All four entries live, but the index only tracks the two newest:
        // evicting both must leave the topology hint-less even though
        // entries 1 and 2 survive.
        cache.with_warm_hint_victims(topo);
    }

    impl ResultCache {
        /// Test helper: assert the warm index for `topo` holds exactly the
        /// two newest entries (4, then 3) and nothing older.
        fn with_warm_hint_victims(&mut self, topo: Fingerprint) {
            let index = self.by_topology.get(&topo).expect("indexed").clone();
            assert_eq!(index, vec![fp_raw(4), fp_raw(3)]);
        }
    }

    fn fp_raw(i: u64) -> Fingerprint {
        Fingerprint([i, i])
    }

    #[test]
    fn follower_hits_count_and_refresh_recency_without_requiring_residency() {
        let mut cache = ResultCache::new(2);
        // An already-evicted lead is still a counted hit for its follower.
        cache.count_follower_hit(fp([9, 9]));
        assert_eq!(cache.stats().hits, 1);
        let s = solve();
        cache.insert(fp([1, 1]), fp([10, 10]), s.clone());
        cache.insert(fp([2, 2]), fp([20, 20]), s.clone());
        // A resident lead is refreshed exactly like a `get` hit, so entry 2
        // becomes the LRU victim.
        cache.count_follower_hit(fp([1, 1]));
        cache.insert(fp([3, 3]), fp([30, 30]), s);
        assert!(cache.peek(fp([1, 1])).is_some());
        assert!(cache.peek(fp([2, 2])).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 0));
    }

    #[test]
    fn restore_reports_resident_entries_when_capacity_shrinks() {
        let donor = CacheHandle::new(4);
        let s = solve();
        donor.insert(fp([1, 1]), fp([10, 10]), s.clone());
        donor.insert(fp([2, 2]), fp([20, 20]), s.clone());
        donor.insert(fp([3, 3]), fp([30, 30]), s);
        let bytes = donor.snapshot_bytes();

        // Restoring three entries into a capacity-1 cache evicts the two
        // oldest during the insert loop; the reported count is what is
        // actually resident, not the snapshot's length.
        let small = CacheHandle::new(1);
        assert_eq!(small.restore_bytes(&bytes).expect("restore"), 1);
        assert_eq!(small.len(), 1);
        // Snapshot order is oldest-first, so the most recent entry survives.
        assert!(small.peek(fp([3, 3])).is_some());
    }

    #[test]
    fn handle_clones_share_one_store_and_its_stats() {
        let handle = CacheHandle::with_warm_depth(4, 2);
        let clone = handle.clone();
        let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 3);
        let key = spec.fingerprint();
        let topo = spec.topology_fingerprint();
        assert!(handle.get(key).is_none());
        clone.insert(key, topo, solve());
        let hit = handle.get(key).expect("hit through the other clone");
        assert_eq!(
            hit.result.reward.to_bits(),
            clone.peek(key).unwrap().result.reward.to_bits()
        );
        let stats = handle.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(clone.stats(), stats);
        assert_eq!(handle.len(), 1);
        assert!(!handle.is_empty());
        assert_eq!(handle.capacity(), 4);
        assert_eq!(handle.warm_depth(), 2);
        assert!(handle.warm_hint(topo).is_some());
    }
}
