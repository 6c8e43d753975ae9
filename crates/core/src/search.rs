//! Algorithm 2: finding an optimal abstraction.
//!
//! Given a bound K-example and a privacy threshold `k`, find the abstraction
//! meeting the threshold with minimal loss of information. The search
//! enumerates abstractions in increasing number of tree edges used, ties
//! broken by LOI (§4.1 "Sorting abstractions"), evaluates LOI before privacy
//! (§4.1 "Prioritizing loss of information"), and stops early through a
//! monotone lower bound: `minLOI(e)` — the least possible LOI of any
//! abstraction using `e` edges — is non-decreasing in `e` (lifting fewer
//! edges never increases any occurrence's term), so once
//! `minLOI(e) ≥ l_best` no later bucket can improve the optimum.
//!
//! # One engine for every worker count
//!
//! Candidate *enumeration* (cheap, microseconds per candidate) is separated
//! from candidate *evaluation* (each privacy computation runs Algorithm 1 —
//! milliseconds to seconds). Each sorted bucket's eligible prefix is
//! claimed index by index by [`SearchConfig::parallelism`] workers sharing
//! the [`PrivacyCache`]; one worker runs the claim loop on the calling
//! thread, more run it in scoped threads. Every privacy computation goes
//! through one candidate step, which the dual search shares. The paper's
//! semantics are preserved exactly: sorted order, LOI-before-privacy
//! pruning against the incumbent, and the monotone `minLOI(e)` barrier
//! between buckets all still hold, because the winning candidate of a bucket
//! is defined positionally (first eligible success in sorted order), not by
//! arrival time. See [`find_optimal_abstraction`] for the determinism
//! contract.

use crate::loi::{loss_of_information, occurrence_loi, LoiDistribution};
use crate::privacy::{compute_privacy, PrivacyCache, PrivacyConfig, PrivacyStats};
use crate::{Abstraction, Bound};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of the optimal-abstraction search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Privacy-evaluation settings (threshold `k` lives here).
    pub privacy: PrivacyConfig,
    /// §4.1 component 1: enumerate by edge count, ties by LOI. Disabled =
    /// plain odometer order (the brute-force baseline).
    pub sort_abstractions: bool,
    /// §4.1 component 2: skip the privacy computation when the abstraction
    /// cannot improve on the best LOI found.
    pub prioritize_loi: bool,
    /// Stop when the monotone LOI lower bound exceeds the best LOI.
    pub early_termination: bool,
    /// Hard cap on abstractions enumerated (the search space is
    /// `Π (depth_i + 1)`, exponential in the occurrence count).
    pub max_candidates: usize,
    /// Wall-clock budget in milliseconds; `None` disables. Exceeding it
    /// stops the search with `truncated` set (the incumbent, if any, is
    /// still a valid — possibly non-optimal — answer).
    pub time_budget_ms: Option<u64>,
    /// The loss-of-information distribution.
    pub distribution: LoiDistribution,
    /// Worker threads evaluating candidates: `None` uses every available
    /// core, `Some(n)` pins the pool size. One worker (`Some(0)` counts as
    /// `Some(1)`) runs the claim loop on the calling thread and evaluates
    /// candidates one at a time in the paper's order: the Figure 19
    /// ablation baseline.
    ///
    /// The search result is **deterministic regardless of thread count**:
    /// the optimum returned for `None`, `Some(1)` and any `Some(n)` is the
    /// same abstraction with the same LOI and privacy (ties between
    /// equal-LOI candidates resolve to enumeration order). Only the work
    /// counters in [`SearchStats`] may differ, because parallel workers
    /// evaluate a bounded number of candidates speculatively.
    ///
    /// A search that exhausts [`SearchConfig::time_budget_ms`] is the one
    /// exception: it stops wherever the clock ran out and returns the
    /// incumbent found so far with `truncated` set. Even then, a bucket
    /// never commits a success past a candidate the deadline left
    /// unevaluated, so the incumbent is always one the one-worker order
    /// could also have produced.
    ///
    /// ```
    /// use provabs_core::privacy::PrivacyConfig;
    /// use provabs_core::search::{find_optimal_abstraction, SearchConfig};
    /// use provabs_core::{fixtures, Bound};
    ///
    /// let fx = fixtures::running_example();
    /// let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    /// let cfg = |parallelism| SearchConfig {
    ///     parallelism,
    ///     privacy: PrivacyConfig { threshold: 2, ..Default::default() },
    ///     ..Default::default()
    /// };
    /// let sequential = find_optimal_abstraction(&bound, &cfg(Some(1))).best.unwrap();
    /// let parallel = find_optimal_abstraction(&bound, &cfg(None)).best.unwrap();
    /// assert_eq!(sequential.abstraction, parallel.abstraction);
    /// assert_eq!(sequential.privacy, parallel.privacy);
    /// assert!((sequential.loi - parallel.loi).abs() < 1e-12);
    /// ```
    pub parallelism: Option<usize>,
    /// Route abstraction application through the bound's interned memo
    /// ([`Bound::apply_abstraction_cached`]): each distinct
    /// `(row provenance, per-row lifts)` pair is materialized once per
    /// bound, across buckets, workers and warm restarts. Disabled, every
    /// privacy-evaluated candidate re-abstracts every row from scratch —
    /// the owned-polynomial baseline the `micro_intern` bench and the
    /// `BENCH_3.json` perf gate compare against. Results are identical
    /// either way; only [`SearchStats::rows_abstracted`] moves.
    pub memoize_abstractions: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            privacy: PrivacyConfig::default(),
            sort_abstractions: true,
            prioritize_loi: true,
            early_termination: true,
            max_candidates: 1_000_000,
            time_budget_ms: None,
            distribution: LoiDistribution::Uniform,
            parallelism: None,
            memoize_abstractions: true,
        }
    }
}

impl SearchConfig {
    /// The worker count this configuration resolves to: `parallelism` (at
    /// least one), or every available core when `None`.
    pub fn effective_parallelism(&self) -> usize {
        self.parallelism
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1)
    }
}

/// Counters of one search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Abstractions generated.
    pub abstractions_enumerated: usize,
    /// LOI evaluations.
    pub loi_evaluations: usize,
    /// Privacy evaluations (the expensive part). With more than one worker
    /// this may exceed the one-worker count by a bounded amount of
    /// speculation.
    pub privacy_evaluations: usize,
    /// Rows actually (re-)abstracted — symbol lists materialized. With
    /// [`SearchConfig::memoize_abstractions`] this counts memo misses only;
    /// without it, every privacy-evaluated candidate pays
    /// `bound.num_rows()`. The "derivations re-abstracted" counter of the
    /// `BENCH_3.json` perf gate.
    pub rows_abstracted: usize,
    /// Abstraction applications answered from the bound's memo in O(1).
    pub abs_cache_hits: usize,
    /// Whether `max_candidates` (or an inner cap) was hit.
    pub truncated: bool,
    /// Whether a warm-start incumbent seeded the search (see
    /// [`find_optimal_abstraction_incremental`]).
    pub warm_start_used: bool,
    /// Aggregated privacy counters.
    pub privacy_stats: PrivacyStats,
}

impl SearchStats {
    /// Merges counters from another search, worker or warm start.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.abstractions_enumerated += other.abstractions_enumerated;
        self.loi_evaluations += other.loi_evaluations;
        self.privacy_evaluations += other.privacy_evaluations;
        self.rows_abstracted += other.rows_abstracted;
        self.abs_cache_hits += other.abs_cache_hits;
        self.truncated |= other.truncated;
        self.warm_start_used |= other.warm_start_used;
        self.privacy_stats.absorb(&other.privacy_stats);
    }
}

/// A satisfying abstraction and its metrics.
#[derive(Debug, Clone)]
pub struct BestAbstraction {
    /// The abstraction function.
    pub abstraction: Abstraction,
    /// Its loss of information.
    pub loi: f64,
    /// Its privacy (number of CIM queries, ≥ the threshold).
    pub privacy: usize,
    /// Tree edges used (the paper's "optimal abstraction size").
    pub edges_used: u32,
}

impl BestAbstraction {
    /// A winner; `edges_used` is read off the abstraction.
    pub(crate) fn new(abstraction: Abstraction, loi: f64, privacy: usize) -> Self {
        Self {
            edges_used: abstraction.edges_used(),
            abstraction,
            loi,
            privacy,
        }
    }
}

/// The result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The optimal abstraction, or `None` when no abstraction meets the
    /// threshold (within the caps).
    pub best: Option<BestAbstraction>,
    /// Counters.
    pub stats: SearchStats,
}

/// The enumerable abstraction space of a bound example: per-occurrence lift
/// ranges and LOI increments.
pub(crate) struct AbstractionSpace {
    /// Flat occurrences `(row, index)`.
    pub occs: Vec<(usize, usize)>,
    /// Per occurrence: maximal lift.
    pub max_lift: Vec<u32>,
    /// Per occurrence, per lift `0..=max`: the LOI increment under the
    /// search's distribution (Prop. 3.5 decomposes total LOI into exactly
    /// these terms).
    pub loi_table: Vec<Vec<f64>>,
}

impl AbstractionSpace {
    pub fn new(bound: &Bound<'_>, dist: &LoiDistribution) -> Self {
        let occs = bound.occurrences();
        let max_lift: Vec<u32> = occs.iter().map(|&(r, i)| bound.max_lift(r, i)).collect();
        let loi_table: Vec<Vec<f64>> = occs
            .iter()
            .zip(&max_lift)
            .map(|(&(r, i), &max)| {
                (0..=max)
                    .map(|c| occurrence_loi(bound, r, i, c, dist))
                    .collect()
            })
            .collect();
        Self {
            occs,
            max_lift,
            loi_table,
        }
    }

    /// The LOI of a candidate by table lookup — no tree walks, no
    /// `Abstraction` materialization. Summed in flat-occurrence order, which
    /// is exactly the nested row/occurrence order of
    /// [`loss_of_information`], so the two agree bit for bit.
    pub fn loi_of(&self, lifts: &[u32]) -> f64 {
        lifts
            .iter()
            .zip(&self.loi_table)
            .map(|(&l, table)| table[l as usize])
            .sum()
    }

    /// Total lift budget `Σ max_lift`.
    pub fn total_edges(&self) -> u32 {
        self.max_lift.iter().sum()
    }

    /// Materializes an abstraction from flat lifts.
    pub fn to_abstraction(&self, bound: &Bound<'_>, lifts: &[u32]) -> Abstraction {
        let mut abs = Abstraction::identity(bound);
        for (&(r, i), &l) in self.occs.iter().zip(lifts) {
            abs.lifts[r][i] = l;
        }
        abs
    }

    /// `minLOI[e]`: the minimum LOI (under the space's distribution) over
    /// all abstractions using exactly `e` edges. Non-decreasing in `e` (each
    /// occurrence's LOI term is non-decreasing in its lift).
    pub fn min_loi_by_edges(&self) -> Vec<f64> {
        let total = self.total_edges() as usize;
        let mut dp = vec![f64::INFINITY; total + 1];
        dp[0] = 0.0;
        for (j, table) in self.loi_table.iter().enumerate() {
            let cap = self.max_lift[j] as usize;
            let mut ndp = vec![f64::INFINITY; total + 1];
            for (e, &cur) in dp.iter().enumerate() {
                if !cur.is_finite() {
                    continue;
                }
                for (c, &g) in table.iter().enumerate().take(cap + 1) {
                    let ne = e + c;
                    if ne <= total && cur + g < ndp[ne] {
                        ndp[ne] = cur + g;
                    }
                }
            }
            dp = ndp;
        }
        // Enforce monotonicity explicitly for safety against fp noise.
        for e in 1..dp.len() {
            if dp[e] < dp[e - 1] {
                dp[e] = dp[e - 1];
            }
        }
        dp
    }

    /// Enumerates the lift vectors using exactly `e` edges; `f` returns
    /// `false` to abort. Returns `false` when aborted.
    pub fn for_each_with_edges(&self, e: u32, f: &mut impl FnMut(&[u32]) -> bool) -> bool {
        let mut lifts = vec![0u32; self.max_lift.len()];
        // Suffix budget: the maximum edges assignable to occurrences j..
        let mut suffix = vec![0u32; self.max_lift.len() + 1];
        for j in (0..self.max_lift.len()).rev() {
            suffix[j] = suffix[j + 1] + self.max_lift[j];
        }
        self.rec_budget(e, 0, &suffix, &mut lifts, f)
    }

    /// Enumerates bucket `e`'s candidates whose LOI passes `keep` (table
    /// lookups — the enumeration hot loop materializes no `Abstraction`),
    /// keeping at most `budget` of them, and sorts them stably by LOI (the
    /// tie-break of Algorithm 2 line 2). Returns the bucket and whether
    /// enumeration ran to completion; a zero budget enumerates nothing.
    pub fn sorted_bucket(
        &self,
        e: u32,
        budget: usize,
        keep: impl Fn(f64) -> bool,
    ) -> (Vec<(f64, Vec<u32>)>, bool) {
        let mut bucket: Vec<(f64, Vec<u32>)> = Vec::new();
        let complete = budget > 0
            && self.for_each_with_edges(e, &mut |lifts| {
                let loi = self.loi_of(lifts);
                if keep(loi) {
                    bucket.push((loi, lifts.to_vec()));
                }
                bucket.len() < budget
            });
        bucket.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        (bucket, complete)
    }

    fn rec_budget(
        &self,
        left: u32,
        j: usize,
        suffix: &[u32],
        lifts: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32]) -> bool,
    ) -> bool {
        if j == self.max_lift.len() {
            return left != 0 || f(lifts);
        }
        if left > suffix[j] {
            return true; // infeasible branch
        }
        let hi = left.min(self.max_lift[j]);
        for c in 0..=hi {
            lifts[j] = c;
            if !self.rec_budget(left - c, j + 1, suffix, lifts, f) {
                lifts[j] = 0;
                return false;
            }
        }
        lifts[j] = 0;
        true
    }

    /// Enumerates every lift vector in odometer order (the brute-force
    /// order); `f` returns `false` to abort.
    pub fn for_each_unsorted(&self, f: &mut impl FnMut(&[u32]) -> bool) -> bool {
        let mut lifts = vec![0u32; self.max_lift.len()];
        self.rec_all(0, &mut lifts, f)
    }

    fn rec_all(&self, j: usize, lifts: &mut Vec<u32>, f: &mut impl FnMut(&[u32]) -> bool) -> bool {
        if j == self.max_lift.len() {
            return f(lifts);
        }
        for c in 0..=self.max_lift[j] {
            lifts[j] = c;
            if !self.rec_all(j + 1, lifts, f) {
                lifts[j] = 0;
                return false;
            }
        }
        lifts[j] = 0;
        true
    }
}

/// The candidate step: abstracts the example's rows under `abs` (through
/// the bound's memo when `memoize`, else every row from scratch) and runs
/// Algorithm 1 on them, adding the work to `stats`. Returns the privacy
/// when it meets `privacy.threshold`.
pub(crate) fn evaluate_candidate(
    bound: &Bound<'_>,
    abs: &Abstraction,
    privacy: &PrivacyConfig,
    memoize: bool,
    cache: &PrivacyCache,
    stats: &mut SearchStats,
) -> Option<usize> {
    let (rows, misses, hits) = if memoize {
        let (ex, misses, hits) = bound.apply_abstraction_cached(abs);
        (ex.rows, misses, hits)
    } else {
        (abs.apply(bound).rows, bound.num_rows(), 0)
    };
    stats.privacy_evaluations += 1;
    stats.rows_abstracted += misses;
    stats.abs_cache_hits += hits;
    let out = compute_privacy(bound, &rows, privacy, cache);
    stats.privacy_stats.absorb(&out.stats);
    out.privacy
}

/// Algorithm 2: finds an abstraction with privacy ≥ `cfg.privacy.threshold`
/// minimizing loss of information.
///
/// Candidates are evaluated by [`SearchConfig::parallelism`] workers (the
/// default uses every core) sharing one [`PrivacyCache`]; the optimum is
/// identical for every worker count.
pub fn find_optimal_abstraction(bound: &Bound<'_>, cfg: &SearchConfig) -> SearchOutcome {
    let cache = PrivacyCache::new();
    find_optimal_abstraction_with_cache(bound, cfg, &cache)
}

/// [`find_optimal_abstraction`] with an externally owned privacy cache
/// (reused across searches by the experiment harness; shared by the worker
/// pool during one search).
pub fn find_optimal_abstraction_with_cache(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
) -> SearchOutcome {
    search_with_incumbent(bound, cfg, cache, None)
}

/// Warm-restarted Algorithm 2 for the incremental-update engine: re-score
/// the previous winner on the (updated) bound, and when it still meets the
/// privacy threshold start the search with it as the incumbent.
///
/// A valid incumbent makes the LOI-before-privacy pruning and the monotone
/// `minLOI(e)` barrier bite from the very first bucket: under small deltas
/// the previous optimum is usually still optimal and the search terminates
/// after verifying no bucket can beat it — no privacy evaluation beyond the
/// incumbent's own. The returned optimum has the same LOI and privacy the
/// cold search would find; when several abstractions tie at the optimal
/// LOI, ties resolve to the incumbent instead of the first in enumeration
/// order.
///
/// Pass the [`PrivacyCache`] already fenced for the delta
/// ([`PrivacyCache::invalidate_at`] with the delta's epoch) and search at
/// that epoch (`cfg.privacy.epoch`), or a fresh cache; `warm` abstractions
/// that no longer fit the bound (row or occurrence shape changed) are
/// ignored.
pub fn find_optimal_abstraction_incremental(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
    warm: Option<&BestAbstraction>,
) -> SearchOutcome {
    let mut warm_stats = SearchStats::default();
    // Re-score on the updated bound: the tree and example may map the same
    // lifts to different LOI, and the delta may have changed the
    // concretization space behind the privacy value.
    let incumbent = warm
        .filter(|prev| prev.abstraction.validate(bound))
        .and_then(|prev| {
            let abs = &prev.abstraction;
            warm_stats.loi_evaluations += 1;
            let loi = loss_of_information(bound, abs, &cfg.distribution);
            let memoize = cfg.memoize_abstractions;
            let privacy =
                evaluate_candidate(bound, abs, &cfg.privacy, memoize, cache, &mut warm_stats)?;
            Some(BestAbstraction::new(abs.clone(), loi, privacy))
        });
    warm_stats.warm_start_used = incumbent.is_some();
    let mut outcome = search_with_incumbent(bound, cfg, cache, incumbent);
    outcome.stats.absorb(&warm_stats);
    outcome
}

/// The search engine, from an optional incumbent.
///
/// In a LOI-sorted bucket only candidates with `loi < l_best` can improve
/// the incumbent, and the *first* success prunes the rest of the bucket
/// (everything after it has an equal or larger LOI). A bucket's outcome is
/// therefore fully determined by *positions*, not timing: the winner is the
/// least-indexed eligible candidate whose privacy meets the threshold.
/// Claimants take indices from an atomic counter, publish successes through
/// a `fetch_min` index, and stop claiming past the least published success;
/// the least success is committed after every claimant has finished, so the
/// result is the same for every worker count. Speculation past the winner
/// is bounded by the pool size (each worker holds at most one in-flight
/// candidate). With one worker the claim loop runs on the calling thread
/// and evaluates exactly the candidates the paper's sequential loop does.
fn search_with_incumbent(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
    incumbent: Option<BestAbstraction>,
) -> SearchOutcome {
    let space = AbstractionSpace::new(bound, &cfg.distribution);
    let mut stats = SearchStats::default();
    let mut best = incumbent;
    let deadline = cfg
        .time_budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let out_of_time = || deadline.is_some_and(|d| Instant::now() >= d);
    let step = |lifts: &[u32], stats: &mut SearchStats| {
        let abs = space.to_abstraction(bound, lifts);
        let memoize = cfg.memoize_abstractions;
        evaluate_candidate(bound, &abs, &cfg.privacy, memoize, cache, stats)
    };

    if !cfg.sort_abstractions {
        // The brute-force ablation: odometer order, one candidate at a time
        // against the live incumbent.
        let complete = cfg.max_candidates > 0
            && space.for_each_unsorted(&mut |lifts| {
                if out_of_time() {
                    return false;
                }
                stats.abstractions_enumerated += 1;
                stats.loi_evaluations += 1;
                let loi = space.loi_of(lifts);
                let l_best = best.as_ref().map_or(f64::INFINITY, |b| b.loi);
                if !cfg.prioritize_loi || loi < l_best {
                    if let Some(p) = step(lifts, &mut stats).filter(|_| loi < l_best) {
                        let abs = space.to_abstraction(bound, lifts);
                        best = Some(BestAbstraction::new(abs, loi, p));
                    }
                }
                stats.abstractions_enumerated < cfg.max_candidates
            });
        stats.truncated |= !complete;
        return SearchOutcome { best, stats };
    }

    let workers = cfg.effective_parallelism();
    let min_loi = if cfg.early_termination {
        space.min_loi_by_edges()
    } else {
        Vec::new()
    };
    for e in 0..=space.total_edges() {
        if out_of_time() {
            stats.truncated = true;
            break;
        }
        if cfg.early_termination && best.as_ref().is_some_and(|b| min_loi[e as usize] >= b.loi) {
            break;
        }
        let budget = cfg
            .max_candidates
            .saturating_sub(stats.abstractions_enumerated);
        let (bucket, complete) = space.sorted_bucket(e, budget, |_| true);
        stats.abstractions_enumerated += bucket.len();
        stats.loi_evaluations += bucket.len();
        // The candidates that get a privacy evaluation: the prefix with
        // `loi < l_best`, or all of them under the `prioritize_loi: false`
        // ablation.
        let l_best = best.as_ref().map_or(f64::INFINITY, |b| b.loi);
        let eval_len = if cfg.prioritize_loi {
            bucket.partition_point(|(loi, _)| *loi < l_best)
        } else {
            bucket.len()
        };

        let next = AtomicUsize::new(0);
        let first_success = AtomicUsize::new(usize::MAX);
        // Lowest index claimed but abandoned on the deadline. A success
        // above this floor must not be committed: the abandoned candidate
        // could have been the positional winner.
        let timeout_floor = AtomicUsize::new(usize::MAX);
        // The claim loop over indices below `end`. Returns the claimant's
        // counters and its least success `(index, privacy)`.
        let claim = |end: usize| {
            let mut stats = SearchStats::default();
            let mut success = None;
            while let Ok(i) = next.fetch_update(Ordering::AcqRel, Ordering::Acquire, |i| {
                (i < end).then_some(i + 1)
            }) {
                // Indices only grow, so once a success below `i` exists
                // nothing this claimant can take will ever win.
                if cfg.prioritize_loi && first_success.load(Ordering::Acquire) < i {
                    break;
                }
                if out_of_time() {
                    timeout_floor.fetch_min(i, Ordering::AcqRel);
                    break;
                }
                if let Some(p) = step(&bucket[i].1, &mut stats) {
                    success.get_or_insert((i, p));
                    first_success.fetch_min(i, Ordering::AcqRel);
                }
            }
            (stats, success)
        };
        // The first eligible candidate runs alone: whenever it succeeds (or
        // meets the deadline) it decides the bucket, so starting the pool,
        // and its speculation, would be waste.
        let mut claims = Vec::new();
        if cfg.prioritize_loi {
            claims.push(claim(eval_len.min(1)));
        }
        let undecided = first_success.load(Ordering::Acquire) == usize::MAX
            && timeout_floor.load(Ordering::Acquire) == usize::MAX;
        let pool = if undecided {
            workers.min(eval_len - next.load(Ordering::Acquire))
        } else {
            0
        };
        match pool {
            0 => {}
            1 => claims.push(claim(eval_len)),
            pool => std::thread::scope(|s| {
                let handles: Vec<_> = (0..pool).map(|_| s.spawn(|| claim(eval_len))).collect();
                claims.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("search worker panicked")),
                );
            }),
        }

        for (claim_stats, _) in &claims {
            stats.absorb(claim_stats);
        }
        // The least success wins if it improves on the incumbent (only the
        // no-pruning ablation evaluates candidates that cannot) and no
        // candidate below it went unevaluated.
        let floor = timeout_floor.load(Ordering::Acquire);
        let winner = claims.iter().filter_map(|(_, success)| *success).min();
        if let Some((i, privacy)) = winner.filter(|&(i, _)| bucket[i].0 < l_best && i < floor) {
            let (loi, lifts) = &bucket[i];
            let abs = space.to_abstraction(bound, lifts);
            best = Some(BestAbstraction::new(abs, *loi, privacy));
        }
        // An incomplete bucket means the candidate cap was reached.
        if !complete || floor != usize::MAX {
            stats.truncated = true;
            break;
        }
    }
    SearchOutcome { best, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use crate::privacy::PrivacyConfig;
    use crate::Sym;

    fn search_with(cfg: SearchConfig) -> SearchOutcome {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        find_optimal_abstraction(&b, &cfg)
    }

    #[test]
    fn example_3_15_optimal_abstraction() {
        // Threshold 2: the optimal abstraction is A1_T with LOI ln 15.
        let out = search_with(SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        let best = out.best.expect("abstraction exists");
        assert!((best.loi - 15f64.ln()).abs() < 1e-9, "loi = {}", best.loi);
        assert_eq!(best.privacy, 2);
        assert_eq!(best.edges_used, 2);
        // The abstraction must map h1 and h2 one level up (Facebook/LinkedIn).
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let rows = best.abstraction.apply(&b).rows;
        let labels: Vec<&str> = rows
            .iter()
            .flat_map(|r| r.syms.iter())
            .filter_map(|s| match s {
                Sym::Abs(n) => Some(fx.db.annotations().name(fx.tree.label(*n))),
                Sym::Leaf(_) => None,
            })
            .collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"Facebook_src"));
        assert!(labels.contains(&"LinkedIn_src"));
    }

    #[test]
    fn brute_force_agrees_with_optimized() {
        let mk = |sort, prioritize, early| SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            sort_abstractions: sort,
            prioritize_loi: prioritize,
            early_termination: early,
            parallelism: Some(1),
            ..Default::default()
        };
        let optimized = search_with(mk(true, true, true));
        let brute = search_with(mk(false, false, false));
        let (o, b) = (optimized.best.unwrap(), brute.best.unwrap());
        assert!((o.loi - b.loi).abs() < 1e-9);
        // The optimized search evaluates privacy far less often.
        assert!(optimized.stats.privacy_evaluations < brute.stats.privacy_evaluations);
    }

    #[test]
    fn parallel_matches_sequential_trace() {
        // The determinism contract: every thread count returns the same
        // optimum (abstraction identity included, not just its metrics).
        let mk = |parallelism| SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            parallelism,
            ..Default::default()
        };
        let seq = search_with(mk(Some(1))).best.unwrap();
        for threads in [Some(2), Some(4), Some(8), None] {
            let par = search_with(mk(threads)).best.unwrap();
            assert_eq!(par.abstraction, seq.abstraction, "threads = {threads:?}");
            assert_eq!(par.privacy, seq.privacy);
            assert_eq!(par.edges_used, seq.edges_used);
            assert!((par.loi - seq.loi).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential_without_pruning_flags() {
        // The ablation configurations keep the contract too (the unsorted
        // baseline always runs sequentially, so only sorted variants differ).
        for (prioritize, early) in [(true, false), (false, true), (false, false)] {
            let mk = |parallelism| SearchConfig {
                privacy: PrivacyConfig {
                    threshold: 2,
                    ..Default::default()
                },
                prioritize_loi: prioritize,
                early_termination: early,
                parallelism,
                ..Default::default()
            };
            let seq = search_with(mk(Some(1))).best.unwrap();
            let par = search_with(mk(Some(4))).best.unwrap();
            assert_eq!(
                par.abstraction, seq.abstraction,
                "prioritize={prioritize} early={early}"
            );
            assert_eq!(par.privacy, seq.privacy);
        }
    }

    #[test]
    fn parallel_unreachable_threshold_returns_none() {
        let out = search_with(SearchConfig {
            privacy: PrivacyConfig {
                threshold: 1000,
                ..Default::default()
            },
            parallelism: Some(4),
            ..Default::default()
        });
        assert!(out.best.is_none());
    }

    #[test]
    fn warm_restart_returns_the_same_optimum_with_fewer_evaluations() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let cfg = SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            parallelism: Some(1),
            ..Default::default()
        };
        let cache = PrivacyCache::new();
        let cold = find_optimal_abstraction_with_cache(&b, &cfg, &cache);
        assert!(!cold.stats.warm_start_used);
        let cold_best = cold.best.as_ref().unwrap();
        // Unchanged database: the incumbent is verified once and every
        // bucket is pruned against it.
        let warm = find_optimal_abstraction_incremental(&b, &cfg, &cache, cold.best.as_ref());
        assert!(warm.stats.warm_start_used);
        let warm_best = warm.best.unwrap();
        assert!((warm_best.loi - cold_best.loi).abs() < 1e-12);
        assert_eq!(warm_best.privacy, cold_best.privacy);
        assert_eq!(warm_best.edges_used, cold_best.edges_used);
        assert!(
            warm.stats.privacy_evaluations <= cold.stats.privacy_evaluations,
            "warm {} vs cold {}",
            warm.stats.privacy_evaluations,
            cold.stats.privacy_evaluations
        );
    }

    #[test]
    fn warm_restart_still_finds_improvements() {
        // Seed with a deliberately bad (but threshold-meeting) incumbent:
        // the search must still return the true optimum.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let cfg = SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            parallelism: Some(1),
            ..Default::default()
        };
        let cache = PrivacyCache::new();
        let cold_best = find_optimal_abstraction_with_cache(&b, &cfg, &cache)
            .best
            .unwrap();
        // Lift h1 and h2 all the way to the root's child: strictly worse
        // LOI than the optimum, still privacy >= 2.
        let mut abs = Abstraction::identity(&b);
        for r in 0..b.num_rows() {
            for i in 0..b.row_occurrences(r).len() {
                if b.max_lift(r, i) >= 3 {
                    abs.lifts[r][i] = 3;
                }
            }
        }
        let bad = BestAbstraction {
            edges_used: abs.edges_used(),
            abstraction: abs,
            loi: f64::INFINITY, // stale value: re-scored inside
            privacy: 0,
        };
        for parallelism in [Some(1), Some(4)] {
            let cfg = SearchConfig {
                parallelism,
                ..cfg.clone()
            };
            let warm = find_optimal_abstraction_incremental(&b, &cfg, &cache, Some(&bad));
            let best = warm.best.unwrap();
            assert!(
                (best.loi - cold_best.loi).abs() < 1e-12,
                "warm restart missed the optimum ({} vs {}) at {parallelism:?}",
                best.loi,
                cold_best.loi
            );
        }
    }

    #[test]
    fn warm_restart_ignores_invalid_incumbents() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let cfg = SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            parallelism: Some(1),
            ..Default::default()
        };
        let cache = PrivacyCache::new();
        // Wrong shape: one row too few.
        let stale = BestAbstraction {
            abstraction: Abstraction {
                lifts: vec![vec![0; 3]],
            },
            loi: 0.0,
            privacy: 5,
            edges_used: 0,
        };
        let out = find_optimal_abstraction_incremental(&b, &cfg, &cache, Some(&stale));
        assert!(!out.stats.warm_start_used);
        let cold = find_optimal_abstraction_with_cache(&b, &cfg, &cache);
        assert!((out.best.unwrap().loi - cold.best.unwrap().loi).abs() < 1e-12);
    }

    #[test]
    fn threshold_one_needs_no_abstraction() {
        let out = search_with(SearchConfig {
            privacy: PrivacyConfig {
                threshold: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let best = out.best.unwrap();
        assert_eq!(best.loi, 0.0);
        assert_eq!(best.edges_used, 0);
        assert_eq!(best.privacy, 1);
    }

    #[test]
    fn unreachable_threshold_returns_none() {
        let out = search_with(SearchConfig {
            privacy: PrivacyConfig {
                threshold: 1000,
                ..Default::default()
            },
            ..Default::default()
        });
        assert!(out.best.is_none());
    }

    #[test]
    fn min_loi_is_monotone() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let space = AbstractionSpace::new(&b, &LoiDistribution::Uniform);
        let dp = space.min_loi_by_edges();
        assert_eq!(dp[0], 0.0);
        for e in 1..dp.len() {
            assert!(dp[e] >= dp[e - 1]);
        }
        // Total budget: h1, h2, i2 at depth 3; i1 at depth 2 under WikiLeaks.
        assert_eq!(space.total_edges(), 11);
    }

    #[test]
    fn bucket_enumeration_counts() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let space = AbstractionSpace::new(&b, &LoiDistribution::Uniform);
        // e = 0: exactly one abstraction (identity).
        let mut n0 = 0;
        space.for_each_with_edges(0, &mut |_| {
            n0 += 1;
            true
        });
        assert_eq!(n0, 1);
        // e = 1: one per tree occurrence (4).
        let mut n1 = 0;
        space.for_each_with_edges(1, &mut |_| {
            n1 += 1;
            true
        });
        assert_eq!(n1, 4);
        // Total across all budgets = (3+1)(2+1)(3+1)(3+1) = 192 (i1 has
        // depth 2, the rest depth 3).
        let mut total = 0;
        for e in 0..=space.total_edges() {
            space.for_each_with_edges(e, &mut |_| {
                total += 1;
                true
            });
        }
        assert_eq!(total, 192);
        let mut unsorted = 0;
        space.for_each_unsorted(&mut |_| {
            unsorted += 1;
            true
        });
        assert_eq!(unsorted, total);
    }

    #[test]
    fn max_candidates_truncates() {
        let out = search_with(SearchConfig {
            privacy: PrivacyConfig {
                threshold: 50,
                ..Default::default()
            },
            max_candidates: 10,
            ..Default::default()
        });
        assert!(out.stats.truncated);
        assert!(out.stats.abstractions_enumerated <= 11);
    }

    #[test]
    fn max_candidates_truncates_in_parallel_like_sequential() {
        let mk = |parallelism| SearchConfig {
            privacy: PrivacyConfig {
                threshold: 50,
                ..Default::default()
            },
            max_candidates: 10,
            parallelism,
            ..Default::default()
        };
        let seq = search_with(mk(Some(1)));
        let par = search_with(mk(Some(4)));
        assert!(seq.stats.truncated && par.stats.truncated);
        assert_eq!(
            par.stats.abstractions_enumerated,
            seq.stats.abstractions_enumerated
        );
        assert!(par.best.is_none() && seq.best.is_none());
    }

    #[test]
    fn zero_candidate_cap_enumerates_nothing_at_every_worker_count() {
        for parallelism in [Some(0), Some(1), Some(4)] {
            for sort_abstractions in [true, false] {
                let out = search_with(SearchConfig {
                    privacy: PrivacyConfig {
                        threshold: 1,
                        ..Default::default()
                    },
                    sort_abstractions,
                    max_candidates: 0,
                    parallelism,
                    ..Default::default()
                });
                let at = format!("{parallelism:?} sorted={sort_abstractions}");
                assert_eq!(out.stats.abstractions_enumerated, 0, "{at}");
                assert_eq!(out.stats.privacy_evaluations, 0, "{at}");
                assert!(out.stats.truncated && out.best.is_none(), "{at}");
            }
        }
    }
}
