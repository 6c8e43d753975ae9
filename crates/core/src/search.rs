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
//! # Parallel evaluation
//!
//! Candidate *enumeration* (cheap, microseconds per candidate) is separated
//! from candidate *evaluation* (each privacy computation runs Algorithm 1 —
//! milliseconds to seconds). With [`SearchConfig::parallelism`] above one,
//! each sorted bucket's eligible prefix is evaluated by a pool of scoped
//! worker threads sharing the [`PrivacyCache`] and a lock-free incumbent;
//! see [`find_optimal_abstraction`] for the determinism contract. The
//! paper's semantics are preserved exactly: sorted order, LOI-before-privacy
//! pruning against the incumbent, and the monotone `minLOI(e)` barrier
//! between buckets all still hold, because the winning candidate of a bucket
//! is defined positionally (first eligible success in sorted order), not by
//! arrival time.

use crate::loi::{loss_of_information, occurrence_loi, LoiDistribution};
use crate::privacy::{compute_privacy, PrivacyCache, PrivacyConfig, PrivacyStats};
use crate::{AbsRow, Abstraction, Bound};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// core, `Some(1)` reproduces the sequential trace (bit-identical
    /// stats, the Figure 19 ablation baseline), `Some(n)` pins the pool
    /// size.
    ///
    /// The search result is **deterministic regardless of thread count**:
    /// the optimum returned for `None`, `Some(1)` and any `Some(n)` is the
    /// same abstraction with the same LOI and privacy (ties between
    /// equal-LOI candidates resolve to the sequential enumeration order).
    /// Only the work counters in [`SearchStats`] may differ, because
    /// parallel workers evaluate a bounded number of candidates
    /// speculatively.
    ///
    /// A search that exhausts [`SearchConfig::time_budget_ms`] is the one
    /// exception: it stops wherever the clock ran out — inherently
    /// wall-clock-dependent for the sequential trace too — and returns the
    /// incumbent found so far with `truncated` set. Even then, a parallel
    /// bucket never commits a success past a candidate the deadline left
    /// unevaluated, so the incumbent is always one the sequential order
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
    /// The worker count this configuration resolves to: `parallelism`, or
    /// every available core when `None`.
    pub fn effective_parallelism(&self) -> usize {
        self.parallelism.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }
}

/// Counters of one search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Abstractions generated.
    pub abstractions_enumerated: usize,
    /// LOI evaluations.
    pub loi_evaluations: usize,
    /// Privacy evaluations (the expensive part). In parallel runs this may
    /// exceed the sequential count by a bounded amount of speculation.
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

/// One worker's bucket report: successes as `(candidate index, privacy)`,
/// the worker's accumulated privacy counters, its evaluation count, and its
/// abstraction-application `(misses, hits)`.
struct WorkerReport {
    successes: Vec<(usize, usize)>,
    privacy_stats: PrivacyStats,
    evals: usize,
    rows_abstracted: usize,
    abs_cache_hits: usize,
}

/// Materializes the abstracted rows of a candidate, memoized or from
/// scratch per [`SearchConfig::memoize_abstractions`]. Returns the rows and
/// the `(misses, hits)` accounting — the uncached path re-abstracts every
/// row (all misses, by definition).
fn abstracted_rows(
    bound: &Bound<'_>,
    abs: &Abstraction,
    cfg: &SearchConfig,
) -> (Vec<AbsRow>, usize, usize) {
    if cfg.memoize_abstractions {
        let (ex, misses, hits) = bound.apply_abstraction_cached(abs);
        (ex.rows, misses, hits)
    } else {
        (abs.apply(bound).rows, bound.num_rows(), 0)
    }
}

/// Enumerates bucket `e` with per-candidate LOIs (table lookups — the
/// enumeration hot loop materializes no `Abstraction`), capped by the
/// `max_candidates` accounting, and sorts by LOI (the tie-break of
/// Algorithm 2 line 2). Returns the bucket and whether enumeration ran to
/// completion. Shared by the sequential and parallel paths — their
/// equivalence proof depends on both seeing the identical candidate order
/// and cap behavior.
fn collect_sorted_bucket(
    space: &AbstractionSpace,
    cfg: &SearchConfig,
    e: u32,
    enumerated_so_far: usize,
) -> (Vec<(f64, Vec<u32>)>, bool) {
    let mut bucket: Vec<(f64, Vec<u32>)> = Vec::new();
    let complete = space.for_each_with_edges(e, &mut |lifts| {
        bucket.push((space.loi_of(lifts), lifts.to_vec()));
        bucket.len() + enumerated_so_far < cfg.max_candidates
    });
    bucket.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    (bucket, complete)
}

/// The atomically-shared incumbent: the lowest committed LOI, stored as
/// `f64` bits in an `AtomicU64`. LOI is always non-negative, and IEEE-754
/// orders non-negative floats identically to their bit patterns, so a
/// lock-free `fetch_min` on the bits is a `fetch_min` on the values.
struct SharedIncumbent(AtomicU64);

impl SharedIncumbent {
    fn new() -> Self {
        Self(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// The current best LOI (`f64::INFINITY` before any commit).
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Lowers the incumbent to `loi` if it improves on the current value.
    fn publish_min(&self, loi: f64) {
        debug_assert!(loi >= 0.0);
        self.0.fetch_min(loi.to_bits(), Ordering::AcqRel);
    }
}

/// Algorithm 2: finds an abstraction with privacy ≥ `cfg.privacy.threshold`
/// minimizing loss of information.
///
/// With [`SearchConfig::parallelism`] resolving to more than one worker (the
/// default uses every core), candidate batches are evaluated across a scoped
/// thread pool sharing one [`PrivacyCache`]; the result is identical to the
/// sequential search for every thread count.
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
/// Pass the [`PrivacyCache`] already invalidated for the delta
/// ([`PrivacyCache::invalidate`]); `warm` abstractions that no longer fit
/// the bound (row or occurrence shape changed) are ignored.
pub fn find_optimal_abstraction_incremental(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
    warm: Option<&BestAbstraction>,
) -> SearchOutcome {
    let mut incumbent = None;
    let mut warm_stats = SearchStats::default();
    if let Some(prev) = warm {
        if prev.abstraction.validate(bound) {
            // Re-score on the updated bound: the tree and example may map
            // the same lifts to different LOI, and the delta may have
            // changed the concretization space behind the privacy value.
            let loi = loss_of_information(bound, &prev.abstraction, &cfg.distribution);
            let (rows, misses, hits) = abstracted_rows(bound, &prev.abstraction, cfg);
            warm_stats.rows_abstracted += misses;
            warm_stats.abs_cache_hits += hits;
            warm_stats.privacy_evaluations += 1;
            warm_stats.loi_evaluations += 1;
            let out = compute_privacy(bound, &rows, &cfg.privacy, cache);
            warm_stats.privacy_stats.absorb(&out.stats);
            if let Some(privacy) = out.privacy {
                warm_stats.warm_start_used = true;
                incumbent = Some(BestAbstraction {
                    abstraction: prev.abstraction.clone(),
                    loi,
                    privacy,
                    edges_used: prev.abstraction.edges_used(),
                });
            }
        }
    }
    let mut outcome = search_with_incumbent(bound, cfg, cache, incumbent);
    outcome.stats.privacy_evaluations += warm_stats.privacy_evaluations;
    outcome.stats.loi_evaluations += warm_stats.loi_evaluations;
    outcome.stats.rows_abstracted += warm_stats.rows_abstracted;
    outcome.stats.abs_cache_hits += warm_stats.abs_cache_hits;
    outcome.stats.warm_start_used = warm_stats.warm_start_used;
    outcome
        .stats
        .privacy_stats
        .absorb(&warm_stats.privacy_stats);
    outcome
}

fn search_with_incumbent(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
    incumbent: Option<BestAbstraction>,
) -> SearchOutcome {
    let workers = cfg.effective_parallelism();
    if workers > 1 && cfg.sort_abstractions {
        return parallel_search(bound, cfg, cache, workers, incumbent);
    }
    sequential_search(bound, cfg, cache, incumbent)
}

/// The sequential Algorithm 2 exactly as the paper prints it — the
/// `parallelism: Some(1)` trace the Figure 19 ablation compares against.
fn sequential_search(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
    incumbent: Option<BestAbstraction>,
) -> SearchOutcome {
    let space = AbstractionSpace::new(bound, &cfg.distribution);
    let mut stats = SearchStats::default();
    let mut best: Option<BestAbstraction> = incumbent;
    let deadline = cfg
        .time_budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let out_of_time = move || deadline.is_some_and(|d| Instant::now() >= d);

    // `loi` is the candidate's table-sum LOI (bucket enumeration already
    // paid for it; the unsorted ablation computes it the same way).
    let consider = |lifts: &[u32],
                    loi: f64,
                    stats: &mut SearchStats,
                    best: &mut Option<BestAbstraction>|
     -> bool {
        if out_of_time() {
            return false;
        }
        stats.abstractions_enumerated += 1;
        stats.loi_evaluations += 1;
        let l_best = best.as_ref().map_or(f64::INFINITY, |b| b.loi);
        if cfg.prioritize_loi && loi >= l_best {
            return stats.abstractions_enumerated < cfg.max_candidates;
        }
        let abs = space.to_abstraction(bound, lifts);
        stats.privacy_evaluations += 1;
        let (rows, misses, hits) = abstracted_rows(bound, &abs, cfg);
        stats.rows_abstracted += misses;
        stats.abs_cache_hits += hits;
        let out = compute_privacy(bound, &rows, &cfg.privacy, cache);
        stats.privacy_stats.absorb(&out.stats);
        if let Some(p) = out.privacy {
            if loi < l_best {
                *best = Some(BestAbstraction {
                    edges_used: abs.edges_used(),
                    abstraction: abs,
                    loi,
                    privacy: p,
                });
            }
        }
        stats.abstractions_enumerated < cfg.max_candidates
    };

    if cfg.sort_abstractions {
        let min_loi = if cfg.early_termination {
            space.min_loi_by_edges()
        } else {
            Vec::new()
        };
        'outer: for e in 0..=space.total_edges() {
            if cfg.early_termination {
                if let Some(b) = &best {
                    if min_loi[e as usize] >= b.loi {
                        break 'outer;
                    }
                }
            }
            let (bucket, complete) =
                collect_sorted_bucket(&space, cfg, e, stats.abstractions_enumerated);
            stats.truncated |= !complete;
            for (loi, lifts) in &bucket {
                if !consider(lifts, *loi, &mut stats, &mut best) {
                    stats.truncated = true;
                    break 'outer;
                }
            }
            if !complete {
                break 'outer;
            }
        }
    } else {
        let complete = space.for_each_unsorted(&mut |lifts| {
            consider(lifts, space.loi_of(lifts), &mut stats, &mut best)
        });
        stats.truncated |= !complete;
    }
    SearchOutcome { best, stats }
}

/// The parallel engine: sequential enumeration and sorting per bucket,
/// parallel evaluation of the bucket's eligible prefix.
///
/// The sequential search, scanning a LOI-sorted bucket, evaluates privacy
/// only for candidates with `loi < l_best`, and the *first* success
/// immediately prunes the rest of the bucket (everything after it has an
/// equal or larger LOI). A bucket's outcome is therefore fully determined
/// by *positions*, not timing: the winner is the least-indexed eligible
/// candidate whose privacy meets the threshold. Workers claim indices from
/// an atomic counter, publish successes through a lock-free `fetch_min`
/// index, and stop claiming past the best published success; the
/// coordinator commits the minimal success after the pool joins, keeping
/// the result bit-identical to the sequential trace for every worker
/// count. Speculation past the winner is bounded by the pool size (each
/// worker can hold at most one in-flight candidate).
fn parallel_search(
    bound: &Bound<'_>,
    cfg: &SearchConfig,
    cache: &PrivacyCache,
    workers: usize,
    initial: Option<BestAbstraction>,
) -> SearchOutcome {
    let space = AbstractionSpace::new(bound, &cfg.distribution);
    let mut stats = SearchStats::default();
    let mut best: Option<BestAbstraction> = initial;
    let incumbent = SharedIncumbent::new();
    if let Some(b) = &best {
        incumbent.publish_min(b.loi);
    }
    let deadline = cfg
        .time_budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let min_loi = if cfg.early_termination {
        space.min_loi_by_edges()
    } else {
        Vec::new()
    };

    'outer: for e in 0..=space.total_edges() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            stats.truncated = true;
            break 'outer;
        }
        if cfg.early_termination && best.is_some() && min_loi[e as usize] >= incumbent.get() {
            break 'outer;
        }
        // Enumerate and sort the bucket — identical to the sequential path.
        let (bucket, complete) =
            collect_sorted_bucket(&space, cfg, e, stats.abstractions_enumerated);
        stats.truncated |= !complete;

        // How many candidates the sequential loop would consider before
        // `max_candidates`, and which prefix of those is eligible for a
        // privacy evaluation (`loi < l_best`; everything, under the
        // `prioritize_loi: false` ablation).
        let budget = cfg
            .max_candidates
            .saturating_sub(stats.abstractions_enumerated);
        let considered = bucket.len().min(budget);
        let l_best = incumbent.get();
        let eval_len = if cfg.prioritize_loi {
            bucket[..considered].partition_point(|(loi, _)| *loi < l_best)
        } else {
            considered
        };
        stats.abstractions_enumerated += considered;
        stats.loi_evaluations += considered;

        // Evaluate the first eligible candidate inline: whenever it
        // succeeds it decides the whole bucket (everything after it has an
        // equal or larger LOI), so spinning up the pool — and its
        // speculative work — would be pure waste.
        // Mirror the sequential trace's per-candidate deadline check: the
        // budget may have expired during enumeration and sorting, and the
        // next privacy evaluation can take seconds.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            stats.truncated = true;
            break 'outer;
        }
        let mut winner: Option<(usize, usize)> = None;
        let mut pool_start = 0usize;
        if cfg.prioritize_loi && eval_len > 0 {
            pool_start = 1;
            let (loi, lifts) = &bucket[0];
            if *loi < incumbent.get() {
                let abs = space.to_abstraction(bound, lifts);
                let (rows, misses, hits) = abstracted_rows(bound, &abs, cfg);
                stats.rows_abstracted += misses;
                stats.abs_cache_hits += hits;
                stats.privacy_evaluations += 1;
                let out = compute_privacy(bound, &rows, &cfg.privacy, cache);
                stats.privacy_stats.absorb(&out.stats);
                if let Some(p) = out.privacy {
                    winner = Some((0, p));
                }
            }
        }

        // Parallel evaluation of the rest of the eligible prefix.
        let next = AtomicUsize::new(pool_start);
        let best_success = AtomicUsize::new(usize::MAX);
        let timed_out = AtomicBool::new(false);
        // Lowest index a worker claimed but abandoned on the deadline. A
        // success above this floor must not be committed: the abandoned
        // candidate could have been the positional winner.
        let timeout_floor = AtomicUsize::new(usize::MAX);
        let pool = workers.min(eval_len.saturating_sub(pool_start));
        let run_pool = winner.is_none() && pool > 0;
        let worker_results: Vec<WorkerReport> = if !run_pool {
            Vec::new()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..pool)
                    .map(|_| {
                        let (space, bucket) = (&space, &bucket);
                        let (next, best_success, timed_out, timeout_floor) =
                            (&next, &best_success, &timed_out, &timeout_floor);
                        s.spawn(move || {
                            let mut report = WorkerReport {
                                successes: Vec::new(),
                                privacy_stats: PrivacyStats::default(),
                                evals: 0,
                                rows_abstracted: 0,
                                abs_cache_hits: 0,
                            };
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= eval_len {
                                    break;
                                }
                                // Indices only grow, so once a success below
                                // `i` exists nothing this worker can claim
                                // will ever win: stop.
                                if cfg.prioritize_loi && best_success.load(Ordering::Acquire) < i {
                                    break;
                                }
                                if deadline.is_some_and(|d| Instant::now() >= d) {
                                    timed_out.store(true, Ordering::Release);
                                    timeout_floor.fetch_min(i, Ordering::AcqRel);
                                    break;
                                }
                                // Every index below `eval_len` already has
                                // `loi < l_best` (the partition point), and
                                // the incumbent cannot improve while the
                                // pool runs — commits happen after join —
                                // so no further LOI re-check is needed.
                                let (_, lifts) = &bucket[i];
                                let abs = space.to_abstraction(bound, lifts);
                                let (rows, misses, hits) = abstracted_rows(bound, &abs, cfg);
                                report.rows_abstracted += misses;
                                report.abs_cache_hits += hits;
                                report.evals += 1;
                                let out = compute_privacy(bound, &rows, &cfg.privacy, cache);
                                report.privacy_stats.absorb(&out.stats);
                                if let Some(p) = out.privacy {
                                    report.successes.push((i, p));
                                    best_success.fetch_min(i, Ordering::AcqRel);
                                }
                            }
                            report
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked"))
                    .collect()
            })
        };

        for report in worker_results {
            stats.privacy_evaluations += report.evals;
            stats.rows_abstracted += report.rows_abstracted;
            stats.abs_cache_hits += report.abs_cache_hits;
            stats.privacy_stats.absorb(&report.privacy_stats);
            for (i, p) in report.successes {
                // Eligibility re-check for the no-pruning ablation: a
                // success can only displace the incumbent with a strictly
                // smaller LOI.
                if bucket[i].0 < l_best && winner.is_none_or(|(w, _)| i < w) {
                    winner = Some((i, p));
                }
            }
        }
        // Discard a winner above the timeout floor: some lower-indexed
        // candidate went unevaluated, so the positional first-success of
        // this bucket is unknown. (The run is truncated below either way.)
        if winner.is_some_and(|(idx, _)| idx >= timeout_floor.load(Ordering::Acquire)) {
            winner = None;
        }
        if let Some((idx, privacy)) = winner {
            let (loi, lifts) = &bucket[idx];
            let abs = space.to_abstraction(bound, lifts);
            incumbent.publish_min(*loi);
            best = Some(BestAbstraction {
                edges_used: abs.edges_used(),
                abstraction: abs,
                loi: *loi,
                privacy,
            });
        }
        if timed_out.load(Ordering::Acquire) {
            stats.truncated = true;
            break 'outer;
        }
        if considered < bucket.len() || stats.abstractions_enumerated >= cfg.max_candidates {
            stats.truncated = true;
            break 'outer;
        }
        if !complete {
            break 'outer;
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
    fn shared_incumbent_orders_like_f64() {
        let inc = SharedIncumbent::new();
        assert_eq!(inc.get(), f64::INFINITY);
        inc.publish_min(2.7);
        assert_eq!(inc.get(), 2.7);
        inc.publish_min(3.1); // larger: no effect
        assert_eq!(inc.get(), 2.7);
        inc.publish_min(0.0);
        assert_eq!(inc.get(), 0.0);
    }
}
