//! Sharded, capacity-bounded LRU strategy cache.
//!
//! The cache is split into `shards` independent maps, each behind its
//! own mutex, with a key routed to a shard by its precomputed 64-bit
//! fingerprint. Concurrent lookups on different shards never contend;
//! under uniform fingerprints, contention drops by the shard factor.
//!
//! Within a shard, entries are keyed *by fingerprint first*: the map
//! goes from fingerprint to a (nearly always singleton) bucket of
//! `(key, entry)` pairs, and the full key is only compared to confirm
//! the match. That layout is what lets the wire fast path probe the
//! cache straight from a borrowed binary frame — [`ShardedCache::
//! get_with`] takes the fingerprint plus a key *predicate*, so a hit
//! can be confirmed against the frame bytes without ever materialising
//! an owned key.
//!
//! Each shard is a true LRU bounded at `capacity / shards` entries:
//! entries carry a monotone "last used" tick and the oldest entry is
//! evicted on overflow. Eviction scans the shard (`O(shard size)`),
//! which for the intended capacities (≤ a few thousand entries per
//! shard) is cheaper and simpler than an intrusive list, and happens
//! only on insert after the shard is full.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use crate::metrics::Counter;

/// A sharded LRU map from plan keys to cached plans.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: usize,
    evictions: Counter,
}

#[derive(Debug)]
struct Shard<K, V> {
    /// Fingerprint → entries sharing it. Buckets are singletons unless
    /// two distinct keys collide on the full 64-bit fingerprint.
    map: HashMap<u64, Vec<(K, Entry<V>)>>,
    tick: u64,
    /// Total entries across all buckets (kept so capacity checks don't
    /// walk the map).
    len: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> ShardedCache<K, V> {
    /// Creates a cache of at most `capacity` entries spread over
    /// `shards` shards (both forced to at least 1).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> ShardedCache<K, V> {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        len: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            evictions: Counter::default(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entries evicted since creation.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Current total entry count (sums shard sizes; racy but accurate
    /// at rest).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, fingerprint: u64) -> &Mutex<Shard<K, V>> {
        // High bits: the low bits of sequential fingerprints may
        // correlate with the hash mixer's tail.
        let idx = (fingerprint >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up `key` (routed by `fingerprint`), refreshing its LRU
    /// position on a hit.
    #[must_use]
    pub fn get(&self, fingerprint: u64, key: &K) -> Option<Arc<V>> {
        self.get_with(fingerprint, |candidate| candidate == key)
    }

    /// Looks up an entry by fingerprint, confirming the hit with a key
    /// *predicate* instead of an owned key, and refreshing its LRU
    /// position.
    ///
    /// This is the wire fast path's entry point: the caller compares
    /// the candidate key field-by-field against a borrowed request
    /// frame, so a steady-state cache hit allocates nothing. The
    /// predicate sees only keys whose fingerprint matched, which is
    /// almost always exactly one candidate.
    #[must_use]
    pub fn get_with(
        &self,
        fingerprint: u64,
        mut matches: impl FnMut(&K) -> bool,
    ) -> Option<Arc<V>> {
        let mut shard = self
            .shard_for(fingerprint)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        let bucket = shard.map.get_mut(&fingerprint)?;
        let (_, entry) = bucket.iter_mut().find(|(k, _)| matches(k))?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Inserts `key → value`, evicting the least-recently-used entry
    /// of the target shard if it is full. Returns the stored handle.
    pub fn insert(&self, fingerprint: u64, key: K, value: Arc<V>) -> Arc<V> {
        let mut shard = self
            .shard_for(fingerprint)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        let stored = Arc::clone(&value);
        let entry = Entry {
            value,
            last_used: tick,
        };
        if let Some(bucket) = shard.map.get_mut(&fingerprint) {
            if let Some((_, existing)) = bucket.iter_mut().find(|(k, _)| *k == key) {
                *existing = entry;
                return stored;
            }
        }
        if shard.len >= self.per_shard_capacity && Self::evict_oldest(&mut shard) {
            self.evictions.inc();
        }
        shard.map.entry(fingerprint).or_default().push((key, entry));
        shard.len += 1;
        stored
    }

    /// Removes the shard's least-recently-used entry. Returns whether
    /// anything was evicted.
    fn evict_oldest(shard: &mut Shard<K, V>) -> bool {
        let mut oldest: Option<(u64, usize, u64)> = None;
        for (&fp, bucket) in &shard.map {
            for (i, (_, entry)) in bucket.iter().enumerate() {
                if oldest.is_none_or(|(_, _, last)| entry.last_used < last) {
                    oldest = Some((fp, i, entry.last_used));
                }
            }
        }
        let Some((fp, index, _)) = oldest else {
            return false;
        };
        if let Some(bucket) = shard.map.get_mut(&fp) {
            bucket.remove(index);
            if bucket.is_empty() {
                shard.map.remove(&fp);
            }
        }
        shard.len -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(k: u64) -> u64 {
        // Spread test keys across shards like real fingerprints do.
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn get_and_insert_round_trip() {
        let cache: ShardedCache<u64, String> = ShardedCache::new(64, 4);
        assert!(cache.get(fp(1), &1).is_none());
        cache.insert(fp(1), 1, Arc::new("one".into()));
        assert_eq!(cache.get(fp(1), &1).unwrap().as_str(), "one");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_with_confirms_by_predicate() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(64, 4);
        cache.insert(fp(9), 9, Arc::new(90));
        // The predicate sees only fingerprint-matched candidates.
        assert_eq!(*cache.get_with(fp(9), |k| *k == 9).unwrap(), 90);
        assert!(cache.get_with(fp(9), |k| *k == 8).is_none());
        assert!(cache.get_with(fp(8), |_| true).is_none());
    }

    #[test]
    fn colliding_fingerprints_disambiguate_by_key() {
        // Two distinct keys sharing one fingerprint must coexist and
        // resolve by full-key comparison.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(64, 4);
        cache.insert(7, 1, Arc::new(10));
        cache.insert(7, 2, Arc::new(20));
        assert_eq!(*cache.get(7, &1).unwrap(), 10);
        assert_eq!(*cache.get(7, &2).unwrap(), 20);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        // Single shard so LRU order is global and deterministic.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(3, 1);
        for k in 0..3 {
            cache.insert(fp(k), k, Arc::new(k));
        }
        // Touch 0 and 2 so 1 is the LRU victim.
        assert!(cache.get(fp(0), &0).is_some());
        assert!(cache.get(fp(2), &2).is_some());
        cache.insert(fp(3), 3, Arc::new(3));
        assert!(cache.get(fp(1), &1).is_none(), "LRU entry evicted");
        assert!(cache.get(fp(0), &0).is_some());
        assert!(cache.get(fp(3), &3).is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(2, 1);
        cache.insert(fp(1), 1, Arc::new(10));
        cache.insert(fp(2), 2, Arc::new(20));
        cache.insert(fp(1), 1, Arc::new(11));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(*cache.get(fp(1), &1).unwrap(), 11);
        assert_eq!(*cache.get(fp(2), &2).unwrap(), 20);
    }

    #[test]
    fn capacity_is_bounded_under_churn() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(100, 8);
        for k in 0..10_000u64 {
            cache.insert(fp(k), k, Arc::new(k));
        }
        // Per-shard capacity is ceil(100/8); total stays bounded.
        assert!(cache.len() <= 13 * 8, "len {} over bound", cache.len());
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(256, 8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let k = (t * 37 + i) % 512;
                        if let Some(v) = cache.get(fp(k), &k) {
                            assert_eq!(*v, k);
                        } else {
                            cache.insert(fp(k), k, Arc::new(k));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 256 + 8);
    }
}
