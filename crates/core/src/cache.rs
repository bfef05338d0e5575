//! The concurrent decision memo — layer 2 of the serving stack.
//!
//! The paper's runtime memoises one shape (§III-C) inside a single-client
//! class; a shared service needs the same idea to survive many clients
//! hammering it at once. [`DecisionCache`] stripes the memo across
//! power-of-two [`RwLock`] shards keyed by a hash of the full
//! `(routine, precision, dims)` [`OpShape`], so concurrent lookups of
//! different shapes rarely contend. Each shard keeps
//! the paper's last-shape fast path (checked before the hash map, under
//! the shared read lock) plus a bounded all-shapes map.
//!
//! The capacity bound matters for serving: an adversarial or merely
//! diverse shape stream must not grow the memo without limit, so a full
//! shard evicts an arbitrary resident entry before inserting. Evicting is
//! harmless for correctness — a re-miss just re-runs the model sweep,
//! which produces the identical decision.
//!
//! Hit/miss/eviction counters are relaxed atomics; `hits + misses` equals
//! the number of `get` calls exactly, which the concurrency stress test
//! asserts.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use adsala_gemm::OpShape;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::bundle::PlanDecision;

/// The default decision key: routine, precision, and the routine's
/// logical dimensions. An f32 GEMM and an f64 GEMM of the same dimensions
/// are distinct entries, as are a GEMM and the SYRK that maps onto the
/// same feature-space point. Layers that decide under additional context
/// instantiate [`DecisionCache`] with a wider key instead (the service
/// keys on `(OpShape, thread cap)`).
pub type ShapeKey = OpShape;

/// A point-in-time snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from a shard (fast path or map).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Decisions currently resident.
    pub entries: u64,
    /// Maximum resident decisions across all shards.
    pub capacity: u64,
    /// Number of lock stripes.
    pub shards: u64,
}

impl CacheStats {
    /// Total lookups: every `get` is exactly one hit or one miss.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the memo (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Debug)]
struct ShardState<K> {
    /// The shard's last-decided key — the §III-C fast path.
    last: Option<(K, PlanDecision)>,
    map: HashMap<K, PlanDecision>,
}

impl<K> Default for ShardState<K> {
    fn default() -> Self {
        Self { last: None, map: HashMap::new() }
    }
}

/// A sharded, capacity-bounded, concurrent memo of plan decisions.
///
/// Generic over the key: the plain [`ShapeKey`] for context-free
/// decisions, or any `Hash + Eq + Copy` composite (like the service's
/// `(OpShape, cap)`) when the decision depends on more than the shape.
#[derive(Debug)]
pub struct DecisionCache<K: Hash + Eq + Copy = ShapeKey> {
    shards: Box<[RwLock<ShardState<K>>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: usize,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default total capacity (decisions, across all shards).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;
/// Default number of lock stripes.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

impl<K: Hash + Eq + Copy> Default for DecisionCache<K> {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_SHARDS, DEFAULT_CACHE_CAPACITY)
    }
}

impl<K: Hash + Eq + Copy> DecisionCache<K> {
    /// Build a cache with `shards` stripes (rounded up to a power of two,
    /// at least 1). The per-shard bound is `capacity` divided across the
    /// shards, rounded up to at least one each — so the effective total
    /// bound, reported by [`DecisionCache::capacity`], can exceed the
    /// requested `capacity` by up to one decision per shard.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(ShardState::default())).collect(),
            shard_mask: shards - 1,
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: K) -> &RwLock<ShardState<K>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[hasher.finish() as usize & self.shard_mask]
    }

    /// Look a shape up, counting exactly one hit or one miss. A hit is
    /// flagged [`PlanDecision::memoised`].
    pub fn get(&self, key: K) -> Option<PlanDecision> {
        let shard = self.shard_for(key);
        let found = {
            let state = shard.read();
            let decision = match &state.last {
                Some((last_key, decision)) if *last_key == key => Some(decision),
                _ => state.map.get(&key),
            };
            decision.map(|d| PlanDecision { memoised: true, ..*d })
        };
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert (or refresh) a decision, evicting an arbitrary resident
    /// entry if the shard is at capacity. Also refreshes the shard's
    /// last-shape fast path.
    pub fn insert(&self, key: K, decision: PlanDecision) {
        let shard = self.shard_for(key);
        let mut state = shard.write();
        if !state.map.contains_key(&key) && state.map.len() >= self.per_shard_capacity {
            if let Some(&victim) = state.map.keys().next() {
                state.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.map.insert(key, decision);
        state.last = Some((key, decision));
    }

    /// Decisions currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// `true` when no decision is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident decisions (per-shard bound × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Drop every resident decision (counters are preserved).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut state = shard.write();
            state.last = None;
            state.map.clear();
        }
    }

    /// Snapshot the counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity() as u64,
            shards: self.shards.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_gemm::Precision;

    fn decision(threads: u32) -> PlanDecision {
        PlanDecision {
            plan: adsala_gemm::plan::ExecutionPlan::with_threads(threads),
            predicted_runtime_s: 1e-3,
            memoised: false,
        }
    }

    fn key(m: u64, k: u64, n: u64) -> ShapeKey {
        OpShape::gemm(Precision::F32, m, k, n)
    }

    #[test]
    fn get_after_insert_hits_and_is_memoised() {
        let cache = DecisionCache::new(4, 64);
        assert!(cache.get(key(1, 2, 3)).is_none());
        cache.insert(key(1, 2, 3), decision(8));
        let hit = cache.get(key(1, 2, 3)).expect("resident");
        assert_eq!(hit.threads(), 8);
        assert!(hit.memoised, "cache replay must be flagged memoised");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.lookups(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn routine_and_precision_are_part_of_the_key() {
        let cache = DecisionCache::new(4, 64);
        cache.insert(OpShape::gemm(Precision::F32, 8, 8, 8), decision(2));
        cache.insert(OpShape::gemm(Precision::F64, 8, 8, 8), decision(4));
        // SYRK(8,8) maps to the same feature point as GEMM(8,8,8) but is a
        // distinct cache entry.
        cache.insert(OpShape::syrk(Precision::F32, 8, 8), decision(6));
        assert_eq!(cache.get(OpShape::gemm(Precision::F32, 8, 8, 8)).unwrap().threads(), 2);
        assert_eq!(cache.get(OpShape::gemm(Precision::F64, 8, 8, 8)).unwrap().threads(), 4);
        assert_eq!(cache.get(OpShape::syrk(Precision::F32, 8, 8)).unwrap().threads(), 6);
        assert!(cache.get(OpShape::gemv(Precision::F32, 8, 8)).is_none());
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        let cache = DecisionCache::new(2, 8);
        assert_eq!(cache.capacity(), 8);
        for i in 0..1000u64 {
            cache.insert(key(i, i, i), decision(4));
        }
        let stats = cache.stats();
        assert!(stats.entries <= stats.capacity, "{stats:?}");
        assert!(stats.evictions >= 1000 - stats.capacity, "{stats:?}");
        assert_eq!(cache.len(), stats.entries as usize);
    }

    #[test]
    fn last_shape_fast_path_survives_eviction_of_others() {
        let cache = DecisionCache::new(1, 1);
        cache.insert(key(1, 1, 1), decision(2));
        cache.insert(key(2, 2, 2), decision(4));
        // (1,1,1) was evicted by the 1-entry bound; (2,2,2) is `last`.
        assert!(cache.get(key(1, 1, 1)).is_none());
        assert_eq!(cache.get(key(2, 2, 2)).unwrap().threads(), 4);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = DecisionCache::default();
        cache.insert(key(1, 2, 3), decision(8));
        cache.get(key(1, 2, 3));
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert!(cache.get(key(1, 2, 3)).is_none(), "cleared entries must miss");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = DecisionCache::<ShapeKey>::new(5, 100);
        assert_eq!(cache.stats().shards, 8);
        let one = DecisionCache::<ShapeKey>::new(0, 0);
        assert_eq!(one.stats().shards, 1);
        assert_eq!(one.capacity(), 1);
    }

    #[test]
    fn concurrent_hammering_keeps_counters_consistent() {
        let cache = DecisionCache::new(8, 128);
        let calls_per_thread = 5000u64;
        let threads = 4u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..calls_per_thread {
                        let key = key(i % 37, t % 2, 7);
                        if cache.get(key).is_none() {
                            cache.insert(key, decision((key.dims[0] + 1) as u32));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), threads * calls_per_thread);
        assert!(stats.hits > 0 && stats.misses > 0);
        assert!(stats.entries <= stats.capacity);
    }
}
