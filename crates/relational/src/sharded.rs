//! A sharded concurrent hash map — the workspace's one `Send + Sync` map:
//! the storage of every [`EpochMap`](crate::epochmap::EpochMap) (the plan
//! and privacy caches) and of the `Bound` memos in `provabs-core`.
//!
//! Keys are routed to one of a fixed number of shards by their hash; each
//! shard is an independent `RwLock<HashMap>`. Concurrent readers of
//! different keys (and of the same key) never contend on a shard's write
//! lock, and writers of different shards proceed in parallel — which is
//! what the parallel abstraction search needs: privacy evaluations of
//! different candidates mostly touch disjoint concretizations, with heavy
//! read sharing on the ones they have in common.

use provabs_sched::sync::RwLock;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Shard count. A power of two so routing is a mask; 16 is plenty for the
/// worker counts the search uses (contention is per-key-group, not global).
const SHARDS: usize = 16;

/// Shard routing uses an *unkeyed* SipHash (`DefaultHasher::default`), not
/// `RandomState`: routing must be a pure function of the key bytes so the
/// schedule-enumeration harness sees an identical lock-acquisition sequence
/// — and hence an identical, gateable schedule count — on every run of a
/// scenario, on every machine. HashDoS keying buys nothing here (which of 16
/// in-process locks a key lands on is not an attack surface).
type ShardHasher = BuildHasherDefault<DefaultHasher>;

/// A hash map split into independently locked shards.
///
/// The shard locks are `provabs_sched` shims: plain `std` rwlocks in
/// production, scheduling points under the model checker. All shards share
/// the `sharded.shard` lock-order label — the map acquires one shard at
/// a time, never two, so the label can never appear on both sides of a
/// held-while-acquiring edge from this type itself.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    hasher: ShardHasher,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::labeled("sharded.shard")
    }
}

impl<K, V> ShardedMap<K, V> {
    /// A map whose shard locks carry `label` in schedule traces and in the
    /// lock-order audit graph. Maps that nest (one acquired while a shard of
    /// another is held — e.g. an [`EpochMap`](crate::epochmap::EpochMap)
    /// reading its fences from inside an entry `update`) must use distinct
    /// labels so the audit sees the hierarchy instead of a self-edge.
    pub fn labeled(label: &'static str) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| RwLock::labeled(label, HashMap::new()))
                .collect(),
            hasher: ShardHasher::default(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// A clone of the value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_borrowed(key)
    }

    /// [`ShardedMap::get`] through a borrowed form of the key (e.g. probe a
    /// `Vec<u32>`-keyed map with a `&[u32]`), so hot-path lookups allocate
    /// nothing. Sound because `Borrow` guarantees the borrowed form hashes
    /// and compares identically — shard routing and the inner map agree.
    pub fn get_borrowed<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.read(key, V::clone)
    }

    /// Inserts `value` under `key`. If another thread inserted first, the
    /// existing value wins (memoized computations are deterministic, so
    /// both values are equal anyway) and is returned.
    pub fn insert(&self, key: K, value: V) -> V {
        self.shard(&key)
            .write()
            .expect("shard lock poisoned")
            .entry(key)
            .or_insert(value)
            .clone()
    }
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    /// Runs `f` on the value under `key` without cloning it, holding the
    /// shard read lock for the duration. Returns `None` when the key is
    /// absent. The closure must not touch the map (it runs under the lock).
    pub fn read<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key)
            .read()
            .expect("shard lock poisoned")
            .get(key)
            .map(f)
    }

    /// Upserts in place: inserts `default()` when `key` is absent, then
    /// runs `f` on the value under the shard write lock. Unlike
    /// [`ShardedMap::insert`] this supports values that accumulate (e.g.
    /// version vectors) — racing writers serialize on the shard lock, so
    /// each sees the other's completed mutation.
    pub fn update<R>(&self, key: K, default: impl FnOnce() -> V, f: impl FnOnce(&mut V) -> R) -> R {
        let mut shard = self.shard(&key).write().expect("shard lock poisoned");
        f(shard.entry(key).or_insert_with(default))
    }

    /// Visits every entry, shard by shard, under shard read locks. The
    /// closure must not touch the map.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().expect("shard lock poisoned").iter() {
                f(k, v);
            }
        }
    }

    /// Visits every entry mutably, shard by shard, under shard write
    /// locks. The closure must not touch the map.
    pub fn for_each_mut(&self, mut f: impl FnMut(&K, &mut V)) {
        for shard in &self.shards {
            for (k, v) in shard.write().expect("shard lock poisoned").iter_mut() {
                f(k, v);
            }
        }
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn insert_get_roundtrip() {
        let m: ShardedMap<String, usize> = ShardedMap::default();
        assert!(m.is_empty());
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get(&"a".into()), Some(1));
        assert_eq!(m.get(&"c".into()), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn first_insert_wins() {
        let m: ShardedMap<u32, u32> = ShardedMap::default();
        assert_eq!(m.insert(7, 70), 70);
        assert_eq!(m.insert(7, 71), 70);
        assert_eq!(m.get(&7), Some(70));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn update_accumulates_in_place() {
        let m: ShardedMap<u32, Vec<u32>> = ShardedMap::default();
        for i in 0..5 {
            m.update(1, Vec::new, |v| v.push(i));
        }
        assert_eq!(m.read(&1, |v| v.len()), Some(5));
        assert_eq!(m.read(&2, |v| v.len()), None);
        let mut total = 0;
        m.for_each(|_, v| total += v.len());
        assert_eq!(total, 5);
        m.for_each_mut(|_, v| v.retain(|&x| x % 2 == 0));
        assert_eq!(m.get(&1), Some(vec![0, 2, 4]));
    }

    /// Model-checked: two writers inserting (one shared key, one distinct
    /// key each) racing a reader — across every schedule the first insert
    /// wins, reads are torn-free, and no shard is ever acquired while
    /// another shard is held (lock-order audit comes back acyclic).
    #[test]
    fn sched_insert_race_is_linearizable_across_all_schedules() {
        use provabs_sched as sched;
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let m: std::sync::Arc<ShardedMap<u32, u32>> =
                std::sync::Arc::new(ShardedMap::default());
            let m1 = std::sync::Arc::clone(&m);
            let m2 = std::sync::Arc::clone(&m);
            let w1 = sched::thread::spawn(move || {
                m1.insert(7, 70);
                m1.insert(1, 10);
            });
            let w2 = sched::thread::spawn(move || {
                m2.insert(7, 71);
                m2.insert(2, 20);
            });
            // Reader: any observed value of key 7 is one of the two writes.
            if let Some(v) = m.get(&7) {
                assert!(v == 70 || v == 71, "torn read: {v}");
            }
            w1.join().unwrap();
            w2.join().unwrap();
            let v = m.get(&7).expect("key 7 present after both writers");
            assert!(v == 70 || v == 71);
            assert_eq!(m.get(&1), Some(10));
            assert_eq!(m.get(&2), Some(20));
            assert_eq!(m.len(), 3);
        });
        outcome.expect_clean();
        assert!(outcome.schedules >= 2, "outcome: {outcome:?}");
        assert!(
            outcome.lock_cycle().is_none(),
            "sharded map must be cycle-free: {:?}",
            outcome.lock_edges
        );
    }

    /// Model-checked: `update` accumulation racing a `for_each_mut` pass
    /// (the shape of an epoch-map retirement racing an insert) never loses
    /// a completed mutation and never deadlocks, in any schedule.
    #[test]
    fn sched_update_vs_for_each_mut_has_no_lost_mutations() {
        use provabs_sched as sched;
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let m: std::sync::Arc<ShardedMap<u32, Vec<u32>>> =
                std::sync::Arc::new(ShardedMap::default());
            m.update(1, Vec::new, |v| v.push(0));
            let m1 = std::sync::Arc::clone(&m);
            let t = sched::thread::spawn(move || {
                m1.update(1, Vec::new, |v| v.push(1));
            });
            m.for_each_mut(|_, v| v.iter_mut().for_each(|x| *x += 10));
            t.join().unwrap();
            // The pass lands exactly once on the seed value, and on the
            // racing push exactly when the push ran first.
            let v = m.get(&1).unwrap();
            assert!(
                v == vec![10, 1] || v == vec![10, 11],
                "lost mutation: {v:?}"
            );
        });
        outcome.expect_clean();
        assert!(outcome.lock_cycle().is_none());
    }

    #[test]
    fn concurrent_inserts_land() {
        let m: ShardedMap<usize, usize> = ShardedMap::default();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (m, hits) = (&m, &hits);
                s.spawn(move || {
                    for i in 0..100 {
                        m.insert(i, i * 10);
                        if m.get(&((i + t) % 100)).is_some() {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(m.len(), 100);
        assert!(hits.load(Ordering::Relaxed) > 0);
        for i in 0..100 {
            assert_eq!(m.get(&i), Some(i * 10));
        }
    }
}
