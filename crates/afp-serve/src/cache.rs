//! Content-addressed result cache and the shareable [`CacheHandle`].
//!
//! Maps [`Fingerprint`]s to solved [`BaselineResult`]s. Because equal
//! fingerprints imply bit-identical solves (the canonicalization contract of
//! [`crate::fingerprint`]), a hit can be returned verbatim in place of a
//! re-solve. The cache holds nothing else: a miss always runs the solver from
//! its seed, so every answer — hit or miss — is a pure function of its
//! request.
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

use afp_metaheuristics::BaselineResult;

use crate::fingerprint::Fingerprint;
use crate::persist::{self, PersistError};

/// Hit/miss/eviction counters, monotone over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-fingerprint lookups that found a memoized result.
    pub hits: u64,
    /// Exact-fingerprint lookups that found nothing.
    pub misses: u64,
    /// Always `0`: the cache no longer seeds solves from cached winners. Kept
    /// only because the `benchmark/` package still reads it for its
    /// `serve.warm_seed_rate` row; the next change to that package removes
    /// both.
    pub warm_seeds: u64,
    /// Entries inserted (restores from a snapshot count here too).
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    result: BaselineResult,
    last_used: u64,
}

/// Bounded, LRU-evicting, content-addressed store of solve results.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<Fingerprint, Entry>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
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
    pub fn get(&mut self, fingerprint: Fingerprint) -> Option<&BaselineResult> {
        self.tick += 1;
        match self.entries.get_mut(&fingerprint) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(&entry.result)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Exact lookup without touching recency or counters (for inspection).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<&BaselineResult> {
        self.entries.get(&fingerprint).map(|e| &e.result)
    }

    /// Inserts (or replaces) the result for a fingerprint, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&mut self, fingerprint: Fingerprint, result: BaselineResult) {
        self.tick += 1;
        if !self.entries.contains_key(&fingerprint) && self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.entries.insert(
            fingerprint,
            Entry {
                result,
                last_used: self.tick,
            },
        );
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
    /// cache reproduces the LRU eviction order — the canonical form the
    /// snapshot persists.
    pub(crate) fn entries_by_recency(&self) -> Vec<(Fingerprint, &BaselineResult)> {
        let mut rows: Vec<(u64, Fingerprint, &BaselineResult)> = self
            .entries
            .iter()
            .map(|(fp, entry)| (entry.last_used, *fp, &entry.result))
            .collect();
        rows.sort_by_key(|&(tick, fp, _)| (tick, fp));
        rows.into_iter()
            .map(|(_, fp, result)| (fp, result))
            .collect()
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
            self.entries.remove(&fp);
            self.stats.evictions += 1;
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
    /// Creates a handle owning a fresh cache of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        CacheHandle::from_cache(ResultCache::new(capacity))
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

    /// Counted exact lookup ([`ResultCache::get`]), cloning the hit out of
    /// the lock scope.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<BaselineResult> {
        self.lock().get(fingerprint).cloned()
    }

    /// Uncounted exact lookup ([`ResultCache::peek`]).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<BaselineResult> {
        self.lock().peek(fingerprint).cloned()
    }

    /// Inserts a result ([`ResultCache::insert`]).
    pub fn insert(&self, fingerprint: Fingerprint, result: BaselineResult) {
        self.lock().insert(fingerprint, result);
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
    /// rebuilds in snapshot order) into the shared cache. Returns the number
    /// of snapshot entries actually resident afterwards — restoring into a
    /// cache with a smaller capacity than the snapshot evicts the oldest
    /// entries during the insert loop, and those are not counted. Decoding
    /// is atomic: on any [`PersistError`] the cache is left untouched — the
    /// caller falls back to cold.
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<usize, PersistError> {
        let snapshot = persist::decode_snapshot(bytes)?;
        let mut cache = self.lock();
        let keys: Vec<Fingerprint> = snapshot.entries.iter().map(|(fp, _)| *fp).collect();
        for (fingerprint, result) in snapshot.entries {
            cache.insert(fingerprint, result);
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
    use afp_metaheuristics::{Baseline, SaConfig};

    use crate::fingerprint::JobSpec;

    fn fp(words: [u64; 2]) -> Fingerprint {
        Fingerprint(words)
    }

    fn solve() -> BaselineResult {
        Baseline::Sa(SaConfig::small()).run(&generators::ota3(), 3)
    }

    #[test]
    fn hit_returns_the_inserted_result_and_counts() {
        let mut cache = ResultCache::new(4);
        let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 3);
        let key = spec.fingerprint();
        assert!(cache.get(key).is_none());
        let solve = solve();
        cache.insert(key, solve.clone());
        let hit = cache.get(key).expect("hit");
        assert_eq!(hit.reward.to_bits(), solve.reward.to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = ResultCache::new(2);
        let s = solve();
        cache.insert(fp([1, 1]), s.clone());
        cache.insert(fp([2, 2]), s.clone());
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(cache.get(fp([1, 1])).is_some());
        cache.insert(fp([3, 3]), s);
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(fp([1, 1])).is_some());
        assert!(cache.peek(fp([2, 2])).is_none());
        assert!(cache.peek(fp([3, 3])).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let mut cache = ResultCache::new(1);
        let s = solve();
        cache.insert(fp([1, 1]), s.clone());
        cache.insert(fp([1, 1]), s.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        cache.insert(fp([2, 2]), s);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_floor_is_one() {
        assert_eq!(ResultCache::new(0).capacity(), 1);
    }

    #[test]
    fn follower_hits_count_and_refresh_recency_without_requiring_residency() {
        let mut cache = ResultCache::new(2);
        // An already-evicted lead is still a counted hit for its follower.
        cache.count_follower_hit(fp([9, 9]));
        assert_eq!(cache.stats().hits, 1);
        let s = solve();
        cache.insert(fp([1, 1]), s.clone());
        cache.insert(fp([2, 2]), s.clone());
        // A resident lead is refreshed exactly like a `get` hit, so entry 2
        // becomes the LRU victim.
        cache.count_follower_hit(fp([1, 1]));
        cache.insert(fp([3, 3]), s);
        assert!(cache.peek(fp([1, 1])).is_some());
        assert!(cache.peek(fp([2, 2])).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 0));
    }

    #[test]
    fn restore_reports_resident_entries_when_capacity_shrinks() {
        let donor = CacheHandle::new(4);
        let s = solve();
        donor.insert(fp([1, 1]), s.clone());
        donor.insert(fp([2, 2]), s.clone());
        donor.insert(fp([3, 3]), s);
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
        let handle = CacheHandle::new(4);
        let clone = handle.clone();
        let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 3);
        let key = spec.fingerprint();
        assert!(handle.get(key).is_none());
        clone.insert(key, solve());
        let hit = handle.get(key).expect("hit through the other clone");
        assert_eq!(
            hit.reward.to_bits(),
            clone.peek(key).unwrap().reward.to_bits()
        );
        let stats = handle.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(clone.stats(), stats);
        assert_eq!(handle.len(), 1);
        assert!(!handle.is_empty());
        assert_eq!(handle.capacity(), 4);
    }
}
