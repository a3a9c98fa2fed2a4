//! The in-memory cache map seam: swappable concurrent map adapters
//! behind a stable [`CacheMap`]/[`CacheMapHandle`] trait pair.
//!
//! The serving hot path is warm-hit dominated: at scale, almost every
//! request resolves to an in-memory lookup, so the map's lock discipline
//! *is* the throughput ceiling. This module isolates that choice behind
//! an adapter seam (the `Collection`/`CollectionHandle` pattern from
//! map-bench) so implementations can be swapped and raced against each
//! other without touching [`crate::store::SynthesisCache`] callers:
//!
//! * [`MutexLruMap`] — the original single-`Mutex` exact LRU, kept as the
//!   baseline adapter (and the reference for eviction semantics);
//! * [`ShardedLruMap`] — the default: lock-striped shards, each a small
//!   LRU with its own lock and its own atomic hit/miss counters, so
//!   concurrent warm hits on different shards never serialize. Eviction
//!   is *approximately* global: each shard evicts locally at
//!   `ceil(capacity / shards)` records, bounding total residency at
//!   roughly the configured capacity without any global bookkeeping.
//!
//! Per-shard counters are plain atomics aggregated on read
//! ([`CacheMap::map_stats`]) — there is no stats lock to race against
//! the map lock, which closes the split-lock divergence the old
//! `Mutex<Lru>` + `Mutex<CacheStats>` pair allowed.

use crate::record::CacheRecord;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregated per-shard operation counters, read without locking.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapStats {
    /// Lookups answered from memory.
    pub found: u64,
    /// Lookups that missed in memory.
    pub not_found: u64,
    /// Inserts (fresh or overwriting).
    pub puts: u64,
    /// Number of lock stripes in the adapter (1 for the mutex baseline).
    pub shards: usize,
}

/// A swappable in-memory record map (map-bench `Collection` style).
///
/// Object-safe on purpose: [`crate::store::SynthesisCache`] holds a
/// `Box<dyn CacheMap>` so the adapter is a runtime choice, and the shared
/// `get`/`put` entry points go straight at the adapter without the
/// per-call allocation a pinned handle would cost. [`CacheMap::pin`]
/// exists for benchmark loops that want the map-bench per-thread-handle
/// shape explicitly.
pub trait CacheMap: Send + Sync {
    /// Adapter name, for reports and benchmarks.
    fn name(&self) -> &'static str;
    /// Pins a per-thread handle (map-bench `Collection::pin`).
    fn pin(&self) -> Box<dyn CacheMapHandle + '_>;
    /// Looks up `key`, promoting it in the adapter's recency order.
    fn get(&self, key: &str) -> Option<Arc<CacheRecord>>;
    /// Inserts (or refreshes) `key`, evicting per adapter policy.
    /// Returns whether it replaced a record resident under `key`.
    fn put(&self, key: &str, rec: Arc<CacheRecord>) -> bool;
    /// Records currently resident in memory.
    fn resident(&self) -> usize;
    /// Aggregates the adapter's atomic counters.
    fn map_stats(&self) -> MapStats;
}

/// Per-thread view of a [`CacheMap`] (map-bench `CollectionHandle`
/// style). Benchmarks pin one per worker thread and hammer it in a
/// loop.
pub trait CacheMapHandle {
    /// Looks up `key`.
    fn get(&mut self, key: &str) -> Option<Arc<CacheRecord>>;
    /// Inserts (or refreshes) `key`.
    fn put(&mut self, key: &str, rec: Arc<CacheRecord>);
}

/// Tiny exact-capacity LRU; each shard's working set is small (records
/// are a few KB) so a scan-based list beats a linked-map here.
pub(crate) struct Lru {
    cap: usize,
    entries: Vec<(String, Arc<CacheRecord>)>,
}

impl Lru {
    pub(crate) fn new(cap: usize) -> Self {
        Lru {
            cap,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<CacheRecord>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let rec = entry.1.clone();
        self.entries.insert(0, entry);
        Some(rec)
    }

    fn put(&mut self, key: String, rec: Arc<CacheRecord>) -> bool {
        let pos = self.entries.iter().position(|(k, _)| *k == key);
        if let Some(pos) = pos {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, rec));
        self.entries.truncate(self.cap);
        pos.is_some()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The baseline adapter: one global `Mutex` around an exact LRU — the
/// pre-seam behavior, kept for A/B benchmarking and as the semantic
/// reference (its eviction order is exact).
pub struct MutexLruMap {
    inner: Mutex<Lru>,
    found: AtomicU64,
    not_found: AtomicU64,
    puts: AtomicU64,
}

impl MutexLruMap {
    /// A mutex-LRU map holding at most `cap` records.
    pub fn new(cap: usize) -> Self {
        MutexLruMap {
            inner: Mutex::new(Lru::new(cap.max(1))),
            found: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        }
    }
}

impl CacheMap for MutexLruMap {
    fn name(&self) -> &'static str {
        "mutex_lru"
    }

    fn pin(&self) -> Box<dyn CacheMapHandle + '_> {
        Box::new(SharedHandle(self))
    }

    fn get(&self, key: &str) -> Option<Arc<CacheRecord>> {
        let rec = self.inner.lock().get(key);
        match rec.is_some() {
            true => self.found.fetch_add(1, Ordering::Relaxed),
            false => self.not_found.fetch_add(1, Ordering::Relaxed),
        };
        rec
    }

    fn put(&self, key: &str, rec: Arc<CacheRecord>) -> bool {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().put(key.to_string(), rec)
    }

    fn resident(&self) -> usize {
        self.inner.lock().len()
    }

    fn map_stats(&self) -> MapStats {
        MapStats {
            found: self.found.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            shards: 1,
        }
    }
}

/// One lock stripe: a small LRU plus its own counters, padded to a cache
/// line so neighboring shards' locks and counters never false-share.
#[repr(align(64))]
struct Shard {
    lru: Mutex<Lru>,
    found: AtomicU64,
    not_found: AtomicU64,
    puts: AtomicU64,
}

/// The default adapter: lock-striped shards with per-shard LRUs and
/// approximate global eviction (each shard caps at `ceil(cap / shards)`).
pub struct ShardedLruMap {
    shards: Box<[Shard]>,
    mask: u64,
}

impl ShardedLruMap {
    /// A sharded map with an explicit shard count (rounded up to a power
    /// of two) and a total capacity split evenly across shards.
    pub fn new(cap: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let cap = cap.max(1);
        let per_shard = cap.div_ceil(shards).max(1);
        let shards: Vec<Shard> = (0..shards)
            .map(|_| Shard {
                lru: Mutex::new(Lru::new(per_shard)),
                found: AtomicU64::new(0),
                not_found: AtomicU64::new(0),
                puts: AtomicU64::new(0),
            })
            .collect();
        let mask = shards.len() as u64 - 1;
        ShardedLruMap {
            shards: shards.into_boxed_slice(),
            mask,
        }
    }

    /// Shard count scaled to the capacity: one stripe per ~8 resident
    /// records, capped at 64. Tiny caches get a single shard, which makes
    /// eviction exact (identical to [`MutexLruMap`]).
    pub fn auto(cap: usize) -> Self {
        let shards = (cap.max(1) / 8).clamp(1, 64);
        ShardedLruMap::new(cap, shards)
    }

    fn shard(&self, key: &str) -> &Shard {
        // FNV-1a over the key; cheap and well-mixed for hex fingerprints
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // fold the high bits in so the low-bit mask sees the whole hash
        &self.shards[((h ^ (h >> 32)) & self.mask) as usize]
    }
}

impl CacheMap for ShardedLruMap {
    fn name(&self) -> &'static str {
        "sharded_lru"
    }

    fn pin(&self) -> Box<dyn CacheMapHandle + '_> {
        Box::new(SharedHandle(self))
    }

    fn get(&self, key: &str) -> Option<Arc<CacheRecord>> {
        let shard = self.shard(key);
        let rec = shard.lru.lock().get(key);
        match rec.is_some() {
            true => shard.found.fetch_add(1, Ordering::Relaxed),
            false => shard.not_found.fetch_add(1, Ordering::Relaxed),
        };
        rec
    }

    fn put(&self, key: &str, rec: Arc<CacheRecord>) -> bool {
        let shard = self.shard(key);
        shard.puts.fetch_add(1, Ordering::Relaxed);
        shard.lru.lock().put(key.to_string(), rec)
    }

    fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lru.lock().len()).sum()
    }

    fn map_stats(&self) -> MapStats {
        let mut stats = MapStats {
            shards: self.shards.len(),
            ..MapStats::default()
        };
        for s in &self.shards {
            stats.found += s.found.load(Ordering::Relaxed);
            stats.not_found += s.not_found.load(Ordering::Relaxed);
            stats.puts += s.puts.load(Ordering::Relaxed);
        }
        stats
    }
}

/// The one handle shape both adapters need: adapters are internally
/// locked, so a pinned handle is just a borrow.
struct SharedHandle<'a, M: CacheMap + ?Sized>(&'a M);

impl<M: CacheMap + ?Sized> CacheMapHandle for SharedHandle<'_, M> {
    fn get(&mut self, key: &str) -> Option<Arc<CacheRecord>> {
        self.0.get(key)
    }

    fn put(&mut self, key: &str, rec: Arc<CacheRecord>) {
        self.0.put(key, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RECORD_SCHEMA;
    use crate::test_support::tiny_plan;
    use tce_solver::CANON_VERSION;

    fn record(tag: u64) -> Arc<CacheRecord> {
        Arc::new(CacheRecord {
            schema: RECORD_SCHEMA.to_string(),
            canon_version: CANON_VERSION.to_string(),
            fingerprint: format!("{tag:016x}"),
            canonical_point: vec![tag as i64],
            objective: tag as f64,
            feasible: true,
            evals: tag,
            iterations: tag,
            report: None,
            solve_wall_s: 0.5,
            plan: serde::Serialize::to_value(&tiny_plan()),
        })
    }

    fn adapters(cap: usize) -> Vec<Box<dyn CacheMap>> {
        vec![
            Box::new(MutexLruMap::new(cap)),
            Box::new(ShardedLruMap::new(cap, 4)),
            Box::new(ShardedLruMap::auto(cap)),
        ]
    }

    #[test]
    fn all_adapters_round_trip_and_count() {
        for map in adapters(16) {
            assert!(map.get("a").is_none());
            map.put("a", record(1));
            map.put("b", record(2));
            assert_eq!(map.get("a").expect("hit a").evals, 1);
            assert_eq!(map.get("b").expect("hit b").evals, 2);
            assert_eq!(map.resident(), 2, "{}", map.name());
            let stats = map.map_stats();
            assert_eq!((stats.found, stats.not_found, stats.puts), (2, 1, 2));
            assert!(stats.shards >= 1);
        }
    }

    #[test]
    fn pinned_handles_see_shared_state() {
        for map in adapters(16) {
            let mut h1 = map.pin();
            h1.put("k", record(9));
            drop(h1);
            let mut h2 = map.pin();
            assert_eq!(h2.get("k").expect("hit").evals, 9, "{}", map.name());
        }
    }

    #[test]
    fn sharded_eviction_is_bounded_near_capacity() {
        let map = ShardedLruMap::new(32, 8);
        for i in 0..1000u64 {
            map.put(&format!("{i:016x}"), record(i));
        }
        // approximate global eviction: per-shard caps bound residency at
        // shards * ceil(cap/shards) = 32 here
        assert!(
            map.resident() <= 32,
            "resident {} exceeds bound",
            map.resident()
        );
        assert!(map.resident() >= 8, "suspiciously empty map");
    }

    #[test]
    fn single_shard_matches_exact_lru_semantics() {
        // shards=1 degrades to the exact-LRU baseline
        let sharded = ShardedLruMap::new(2, 1);
        sharded.put("a", record(1));
        sharded.put("b", record(2));
        assert!(sharded.get("a").is_some()); // touch a → b is LRU
        sharded.put("c", record(3));
        assert_eq!(sharded.resident(), 2);
        assert!(sharded.get("b").is_none(), "b evicted");
        assert!(sharded.get("a").is_some());
        assert!(sharded.get("c").is_some());
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let map = ShardedLruMap::new(256, 16);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let key = format!("{:016x}", (t * 1000 + i) % 64);
                        if i % 10 == 0 {
                            map.put(&key, record(i));
                        } else {
                            let _ = map.get(&key);
                        }
                    }
                });
            }
        });
        let stats = map.map_stats();
        assert_eq!(stats.found + stats.not_found, 4 * 450);
        assert_eq!(stats.puts, 4 * 50);
        assert!(map.resident() <= 256);
    }

    #[test]
    fn constructors_build_the_right_adapter() {
        assert_eq!(MutexLruMap::new(8).name(), "mutex_lru");
        assert_eq!(ShardedLruMap::auto(64).name(), "sharded_lru");
        assert_eq!(ShardedLruMap::auto(64).map_stats().shards, 8);
        assert_eq!(ShardedLruMap::auto(2).map_stats().shards, 1);
        assert_eq!(ShardedLruMap::new(64, 3).map_stats().shards, 4); // pow2
    }
}
