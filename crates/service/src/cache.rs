//! A sharded LRU cache for compiled schedules, keyed by request
//! [`Fingerprint`].
//!
//! Q-Pilot's routers are deterministic functions of
//! `(circuit, architecture, options)`, so a schedule compiled once can be
//! served to every later identical request. The cache stores the
//! *serialised* schedule (`Arc<str>` of the canonical
//! `qpilot.schedule/v1` JSON): hits hand back a reference-count bump, no
//! re-serialisation, which is what makes the warm path orders of
//! magnitude faster than a cold compile.
//!
//! Sharding: entries map to one of N shards by the fingerprint's leading
//! 64 bits, each shard a `Mutex<LruShard>` with its own strict-LRU list,
//! so concurrent connection handlers contend only 1/N of the time.
//! Hit/miss/evict counters are atomics surfaced by the protocol's
//! `stats` request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qpilot_circuit::Fingerprint;
use qpilot_core::ScheduleStats;

/// A cached compilation result.
#[derive(Debug)]
pub struct CacheEntry {
    /// Canonical `qpilot.schedule/v1` JSON of the compiled schedule.
    pub schedule_json: Arc<str>,
    /// The schedule's aggregate statistics.
    pub stats: ScheduleStats,
    /// Wall-clock seconds the original compilation took (compile +
    /// serialise), echoed on hits so clients can see what they saved;
    /// 0 for an entry recovered from the persistent store, whose blob
    /// does not record it.
    pub compile_s: f64,
}

/// Monotonic cache counters (a snapshot; see [`ScheduleCache::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hit rate in `[0, 1]` (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded LRU cache: `Fingerprint` → [`CacheEntry`].
#[derive(Debug)]
pub struct ScheduleCache {
    shards: Box<[Mutex<LruShard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ScheduleCache {
    /// Creates a cache holding at most `capacity` entries spread over
    /// `shards` shards (both floored at 1). Capacity splits evenly; the
    /// remainder goes to the first shards, so total capacity is exact.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let base = capacity.max(1) / shards;
        let extra = capacity.max(1) % shards;
        let shard_vec: Vec<Mutex<LruShard>> = (0..shards)
            .map(|i| Mutex::new(LruShard::new(base + usize::from(i < extra))))
            .collect();
        ScheduleCache {
            shards: shard_vec.into_boxed_slice(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &Fingerprint) -> &Mutex<LruShard> {
        let idx = (key.prefix_u64() % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &Fingerprint) -> Option<Arc<CacheEntry>> {
        let found = self.shard(key).lock().expect("cache shard lock").get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// [`ScheduleCache::get`] without touching the hit/miss counters —
    /// for internal re-probes (the worker's duplicate-suppression check)
    /// that would otherwise double-count one request.
    pub fn get_untracked(&self, key: &Fingerprint) -> Option<Arc<CacheEntry>> {
        self.shard(key).lock().expect("cache shard lock").get(key)
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// entry of the target shard if it is full. Returns the evicted
    /// entry's key so a persistent mirror (the daemon's `--store`) can
    /// drop the matching blob.
    pub fn insert(&self, key: Fingerprint, entry: Arc<CacheEntry>) -> Option<Fingerprint> {
        let evicted = self
            .shard(&key)
            .lock()
            .expect("cache shard lock")
            .insert(key, entry);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Number of currently cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Total resident bytes of cached schedule JSON — the dominant
    /// memory cost (keys and recency nodes are O(1) per entry). This is
    /// what an operator sizes `--cache` against when tuning the
    /// degradation ladder.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").resident_bytes())
            .sum()
    }

    /// Returns `true` if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Index into an [`LruShard`]'s node slab.
type NodeIdx = usize;
const NIL: NodeIdx = usize::MAX;

#[derive(Debug)]
struct Node {
    key: Fingerprint,
    value: Arc<CacheEntry>,
    prev: NodeIdx,
    next: NodeIdx,
}

/// One shard: a hash map into an intrusive doubly-linked recency list
/// (head = most recent). All operations are O(1).
#[derive(Debug)]
struct LruShard {
    capacity: usize,
    map: HashMap<Fingerprint, NodeIdx>,
    nodes: Vec<Node>,
    free: Vec<NodeIdx>,
    head: NodeIdx,
    tail: NodeIdx,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            capacity: capacity.max(1),
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.map
            .values()
            .map(|&idx| self.nodes[idx].value.schedule_json.len() as u64)
            .sum()
    }

    fn unlink(&mut self, idx: NodeIdx) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: NodeIdx) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn get(&mut self, key: &Fingerprint) -> Option<Arc<CacheEntry>> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(Arc::clone(&self.nodes[idx].value))
    }

    /// Returns the key of an unrelated entry evicted to make room.
    fn insert(&mut self, key: Fingerprint, value: Arc<CacheEntry>) -> Option<Fingerprint> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "full shard has a tail");
            self.unlink(lru);
            let lru_key = self.nodes[lru].key;
            self.map.remove(&lru_key);
            self.free.push(lru);
            evicted = Some(lru_key);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.nodes.push(Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> Fingerprint {
        let mut bytes = [0u8; 16];
        bytes[0] = n;
        Fingerprint(bytes)
    }

    fn entry(tag: &str) -> Arc<CacheEntry> {
        Arc::new(CacheEntry {
            schedule_json: tag.into(),
            stats: ScheduleStats::default(),
            compile_s: 0.001,
        })
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ScheduleCache::new(8, 2);
        cache.insert(key(1), entry("a"));
        assert_eq!(cache.get(&key(1)).unwrap().schedule_json.as_ref(), "a");
        assert!(cache.get(&key(2)).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn resident_bytes_track_inserts_and_evictions() {
        let cache = ScheduleCache::new(2, 1);
        assert_eq!(cache.bytes(), 0);
        cache.insert(key(1), entry("aaaa"));
        cache.insert(key(2), entry("bb"));
        assert_eq!(cache.bytes(), 6);
        // Capacity 2: the third insert evicts the oldest (4 bytes).
        cache.insert(key(3), entry("ccc"));
        assert_eq!(cache.bytes(), 5);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard so recency order is global.
        let cache = ScheduleCache::new(2, 1);
        cache.insert(key(1), entry("a"));
        cache.insert(key(2), entry("b"));
        cache.get(&key(1)); // refresh 1; 2 becomes LRU
        cache.insert(key(3), entry("c"));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "2 was evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = ScheduleCache::new(2, 1);
        cache.insert(key(1), entry("a"));
        cache.insert(key(2), entry("b"));
        cache.insert(key(1), entry("a2"));
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.get(&key(1)).unwrap().schedule_json.as_ref(), "a2");
        // 2 is now LRU.
        cache.insert(key(3), entry("c"));
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn eviction_slots_are_reused() {
        let cache = ScheduleCache::new(1, 1);
        for i in 0..100u8 {
            cache.insert(key(i), entry("x"));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().evictions, 99);
        // The slab should not have grown past capacity.
        let shard = cache.shards[0].lock().unwrap();
        assert_eq!(shard.nodes.len(), 1);
    }

    #[test]
    fn capacity_splits_exactly_across_shards() {
        let cache = ScheduleCache::new(5, 3);
        let total: usize = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().capacity)
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn shards_never_exceed_capacity_when_fewer_than_requested() {
        // capacity 1 with 16 requested shards must not create 16 one-entry
        // shards (that would make effective capacity 16).
        let cache = ScheduleCache::new(1, 16);
        assert_eq!(cache.shards.len(), 1);
    }

    #[test]
    fn untracked_gets_leave_counters_alone() {
        let cache = ScheduleCache::new(4, 1);
        cache.insert(key(1), entry("a"));
        assert!(cache.get_untracked(&key(1)).is_some());
        assert!(cache.get_untracked(&key(2)).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (0, 0));
    }

    #[test]
    fn hit_rate_counts() {
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        // Capacity exceeds the distinct key space (u8 tags → ≤256), so no
        // eviction can race the insert/get pairs below.
        let cache = Arc::new(ScheduleCache::new(512, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u8 {
                        let k = key(i.wrapping_add(t * 50));
                        cache.insert(k, entry("x"));
                        assert!(cache.get(&k).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(cache.len() <= 256);
    }
}
