//! One epoch-versioned cache map: the snapshot-sharing protocol of the
//! [`PlanCache`](crate::PlanCache) and of `provabs-core`'s `PrivacyCache`.
//!
//! Sessions pinned to different snapshot epochs share one cache. Every
//! cached value is a version stamped `born`/`dead`, valid for epochs
//! `born <= e < dead`, and every key names the dependencies its value was
//! computed from (the relations a plan reads, the annotations a
//! concretization resolves through). A writer committing a delta as epoch
//! `e` calls [`EpochMap::retire`] with the dependencies it touched
//! **before** publishing `e`: nothing is evicted, so readers pinned before
//! `e` keep hitting their versions bit-for-bit, while no reader at `e` or
//! later is served a value computed before the delta.
//!
//! The rule is written once, here:
//!
//! * [`EpochMap::retire`] first records a fence `e` for every touched
//!   dependency — whether or not any entry names it yet — and then clamps
//!   `dead` to `e` on every version born before `e` whose entry depends on
//!   a touched dependency.
//! * [`EpochMap::insert`] reads the fences while it holds the key's shard
//!   lock and lets a version born at `b` die at the earliest fence after
//!   `b`. A reader pinned at an old epoch that inserts late therefore
//!   either sees the fence or lands before the clamp pass reaches its
//!   shard, which then bounds it.
//! * Lock order: entry shard, then fence shard, never the reverse (the
//!   schedule-enumeration lock-order audit checks it). Until the first
//!   fence exists an insert skips the fence probe entirely.
//!
//! Determinism contract: versions and retirement counts are pure functions
//! of the operation sequence (no time, no capacity eviction, no RNG).

use crate::sharded::ShardedMap;
use provabs_sched::sync::atomic::{AtomicBool, Ordering};
use std::hash::Hash;

/// One cached value version: valid for epochs `born <= e < dead`
/// (`dead == u64::MAX` means still live).
#[derive(Debug)]
struct Stamped<V> {
    born: u64,
    dead: u64,
    value: V,
}

/// The dependencies a key's value was computed from, plus its versions.
#[derive(Debug)]
struct Entry<D, V> {
    deps: Vec<D>,
    versions: Vec<Stamped<V>>,
}

/// The version of `vs` visible at `epoch`. Versions overlap when a pinned
/// old-epoch reader inserts after later versions exist; max-born picks
/// deterministically (overlapping versions were computed from the same
/// snapshot state, so they hold equal values).
fn version_at<V: Clone>(vs: &[Stamped<V>], epoch: u64) -> Option<V> {
    vs.iter()
        .filter(|s| s.born <= epoch && epoch < s.dead)
        .max_by_key(|s| s.born)
        .map(|s| s.value.clone())
}

/// A sharded map from `K` to epoch-stamped versions of `V`, retired by
/// dependency `D` (see the module docs). `Send + Sync`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct EpochMap<K, D, V> {
    entries: ShardedMap<K, Entry<D, V>>,
    /// Sorted retirement epochs per dependency.
    fences: ShardedMap<D, Vec<u64>>,
    /// Set by the first [`EpochMap::retire`]: until then no fence exists.
    fenced: AtomicBool,
}

impl<K, D, V> Default for EpochMap<K, D, V> {
    fn default() -> Self {
        Self {
            entries: ShardedMap::labeled("epochmap.entries"),
            fences: ShardedMap::labeled("epochmap.fences"),
            fenced: AtomicBool::labeled("epochmap.fenced", false),
        }
    }
}

impl<K: Eq + Hash, D: Ord + Hash + Clone, V: Clone> EpochMap<K, D, V> {
    /// Keys with at least one version.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Versions across all keys, retired ones included.
    pub fn versions(&self) -> usize {
        let mut n = 0;
        self.entries.for_each(|_, e| n += e.versions.len());
        n
    }

    /// The max-born version of `key` with `born <= epoch < dead`.
    pub fn get(&self, key: &K, epoch: u64) -> Option<V> {
        self.entries
            .read(key, |e| version_at(&e.versions, epoch))
            .flatten()
    }

    /// Stores `value` for `key` as seen at `epoch` and returns the stored
    /// value: the first insert per epoch wins. The version dies at the
    /// earliest fence after `epoch` over `deps`, which name what the value
    /// was computed from (kept from the key's first insert only).
    pub fn insert(&self, key: K, deps: Vec<D>, epoch: u64, value: V) -> V {
        let new = || Entry {
            deps,
            versions: Vec::new(),
        };
        self.entries.update(key, new, |e| {
            if let Some(stored) = version_at(&e.versions, epoch) {
                return stored;
            }
            let dead = self.retirement_after(&e.deps, epoch);
            e.versions.push(Stamped {
                born: epoch,
                dead,
                value: value.clone(),
            });
            value
        })
    }

    /// Retires, for epochs `>= epoch`, every version born before `epoch`
    /// whose key depends on a dependency in `touched`; returns how many
    /// versions it retired. Call it **before** publishing `epoch`.
    pub fn retire(&self, touched: impl IntoIterator<Item = D>, epoch: u64) -> u64 {
        let mut touched: Vec<D> = touched.into_iter().collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            return 0;
        }
        for d in &touched {
            self.fences.update(d.clone(), Vec::new, |rs| {
                if rs.last() != Some(&epoch) {
                    rs.push(epoch);
                }
            });
        }
        // Release pairs with the Acquire in `retirement_after`: an insert
        // that sees the flag finds these fences in their shards.
        self.fenced.store(true, Ordering::Release);
        let mut retired = 0;
        self.entries.for_each_mut(|_, e| {
            if !e.deps.iter().any(|d| touched.binary_search(d).is_ok()) {
                return;
            }
            for s in &mut e.versions {
                if s.born < epoch && s.dead > epoch {
                    s.dead = epoch;
                    retired += 1;
                }
            }
        });
        retired
    }

    /// The earliest fence strictly after `epoch` over `deps` (`u64::MAX`
    /// when there is none). Runs under the caller's entry shard lock.
    fn retirement_after(&self, deps: &[D], epoch: u64) -> u64 {
        if !self.fenced.load(Ordering::Acquire) {
            return u64::MAX;
        }
        deps.iter()
            .filter_map(|d| {
                self.fences
                    .read(d, |rs| rs.iter().copied().find(|&r| r > epoch))
                    .flatten()
            })
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = EpochMap<&'static str, u32, u32>;

    #[test]
    fn retire_hides_old_versions_from_later_epochs_only() {
        let m = Map::default();
        assert_eq!(m.insert("a", vec![1], 0, 10), 10);
        assert_eq!(
            m.insert("a", vec![1], 0, 11),
            10,
            "first insert per epoch wins"
        );
        m.insert("b", vec![2], 0, 20);
        assert_eq!(m.retire([1, 7], 1), 1, "only the version of `a` retires");
        assert_eq!(m.get(&"a", 0), Some(10), "pinned readers keep hitting");
        assert_eq!(m.get(&"a", 1), None);
        assert_eq!(m.get(&"b", 1), Some(20), "disjoint deps survive");
        assert_eq!(m.retire([1], 1), 0, "a repeated fence retires nothing");
        m.insert("a", vec![1], 1, 12);
        assert_eq!((m.get(&"a", 0), m.get(&"a", 5)), (Some(10), Some(12)));
        assert_eq!((m.len(), m.versions()), (2, 3), "retire, never evict");
    }

    #[test]
    fn late_insert_by_pinned_reader_respects_later_fences() {
        let m = Map::default();
        // The fence at epoch 2 is recorded before any key depends on it.
        m.retire([1], 2);
        m.insert("a", vec![1], 0, 10);
        // The late insert is valid at epochs 0 and 1 but dead at 2.
        assert_eq!(m.get(&"a", 1), Some(10));
        assert_eq!(m.get(&"a", 2), None);
        // A version born after every fence lives on.
        m.insert("a", vec![1], 2, 12);
        assert_eq!(m.get(&"a", 9), Some(12));
    }

    /// Model-checked: an insert by a reader at epoch 0 racing a retirement
    /// at epoch 1 on a cold map never leaves the epoch-0 value visible at
    /// epoch 1, and the lock order stays entry shard → fence shard.
    #[test]
    fn sched_cold_insert_racing_retire_never_outlives_the_fence() {
        use provabs_sched as sched;
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let m = std::sync::Arc::new(Map::default());
            let m2 = std::sync::Arc::clone(&m);
            let w = sched::thread::spawn(move || {
                m2.retire([1], 1);
            });
            m.insert("a", vec![1], 0, 10);
            w.join().unwrap();
            assert_eq!(m.get(&"a", 0), Some(10));
            assert_eq!(m.get(&"a", 1), None, "epoch-0 value outlived the fence");
        });
        outcome.expect_clean();
        assert!(outcome.complete, "sweep must be exhaustive: {outcome:?}");
        assert!(outcome.lock_cycle().is_none(), "{:?}", outcome.lock_edges);
    }
}
