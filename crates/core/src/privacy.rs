//! Algorithm 1: computing the privacy of an abstracted K-example.
//!
//! The privacy of `Ã` is the number of unique CIM queries w.r.t. `Ã`
//! (Def. 3.12). One GoodConc loop computes it (§4.1): each step extends the
//! "good" concretization prefixes by the connected concretizations of one
//! row or of all rows. Between rows the prefixes that admit no consistent
//! query are dropped; a consistency step (CQ or UCQ) over the whole
//! concretizations then counts their consistent connected queries.
//! Consistent connected CQs are cached per concretization. Every
//! optimization component carries a config flag so the Figure 19 ablation
//! can disable it.

use crate::concretize::{concretization_count, connected_row_concretizations, RowConcretizations};
use crate::{AbsRow, Bound};
use provabs_relational::{ConcreteRow, Cq, EpochMap, ShardedMap, Tuple, Ucq};
use provabs_reveng::ucq::{cim_ucqs, find_consistent_ucqs, UcqOptions};
use provabs_reveng::{cim_queries, find_consistent_queries, ContainmentMode, Frontier, RevOptions};
use provabs_semiring::{AnnotId, SemiringKind};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The query class against which privacy is measured (Table 4 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryClass {
    /// Conjunctive queries (the gray/red cells; Algorithm 1 as printed).
    #[default]
    Cq,
    /// Unions of conjunctive queries (orange/green cells) with the
    /// trivial-query exclusion.
    Ucq,
}

/// Configuration of the privacy computation.
#[derive(Debug, Clone)]
pub struct PrivacyConfig {
    /// The privacy threshold `k`.
    pub threshold: usize,
    /// The provenance semiring the K-example is given in.
    pub semiring: SemiringKind,
    /// CQ or UCQ privacy.
    pub query_class: QueryClass,
    /// Exclude trivial UCQs (variable-free disjuncts), §4 orange cell.
    pub exclude_trivial: bool,
    /// §4.1 component 1 (of the privacy computation): extend GoodConc one
    /// row per step, pruning prefixes that admit no consistent query.
    /// Disabled (and always for UCQ) = one step over all rows.
    pub row_by_row: bool,
    /// §4.1 component 2: drop disconnected concretizations.
    pub connectivity_filter: bool,
    /// §4.1 component 3: cache consistent queries per concretization (in
    /// the [`PrivacyCache`]) and each abstracted row's connected
    /// concretizations (on the [`Bound`]).
    pub caching: bool,
    /// Cap on alignments per consistency call.
    pub max_alignments: usize,
    /// Cap on concretizations: each row's enumeration, the candidates of
    /// each one-row extension step, and the concretizations of a step over
    /// all rows (those ranked below the cap in the odometer order of the
    /// whole example). When hit, the returned privacy is a lower bound and
    /// `stats.truncated` is set.
    pub max_concretizations: usize,
    /// Extra expansion degree for exponent-dropping semirings.
    pub max_expansion_extra: u32,
    /// The snapshot epoch this evaluation reads at (see
    /// [`PrivacyCache::invalidate_at`]). Single-session callers leave the
    /// default 0; a reader session pinned to a
    /// [`SessionDb`](provabs_relational::SessionDb) passes its pinned
    /// epoch so a shared cache serves it exactly the entries valid for
    /// its snapshot — never values computed against later deltas.
    pub epoch: u64,
}

impl Default for PrivacyConfig {
    fn default() -> Self {
        Self {
            threshold: 5,
            semiring: SemiringKind::NX,
            query_class: QueryClass::Cq,
            exclude_trivial: true,
            row_by_row: true,
            connectivity_filter: true,
            caching: true,
            max_alignments: 100_000,
            max_concretizations: 1_000_000,
            max_expansion_extra: 1,
            epoch: 0,
        }
    }
}

/// Counters exposed by one privacy evaluation.
#[derive(Debug, Clone, Default)]
pub struct PrivacyStats {
    /// Concretizations the enumerators visited; a row served from the
    /// bound's row memo visits none.
    pub concretizations_enumerated: usize,
    /// Candidate prefixes built from rows that pass the connectivity filter.
    pub concretizations_kept: usize,
    /// Consistency-cache hits / misses.
    pub consistency_cache_hits: usize,
    /// Consistency-cache misses (queries actually computed).
    pub consistency_cache_misses: usize,
    /// Connectivity verdicts replayed from the bound's row memo: a hit
    /// counts every concretization the memoized enumeration visited.
    pub connectivity_cache_hits: usize,
    /// Connectivity verdicts computed.
    pub connectivity_cache_misses: usize,
    /// Whether a cap was hit (result is a lower bound): the concretization
    /// cap, or the alignment cap of a consistent-query frontier.
    pub truncated: bool,
}

impl PrivacyStats {
    /// Merges counters from another evaluation (used by the search).
    pub fn absorb(&mut self, other: &PrivacyStats) {
        self.concretizations_enumerated += other.concretizations_enumerated;
        self.concretizations_kept += other.concretizations_kept;
        self.consistency_cache_hits += other.consistency_cache_hits;
        self.consistency_cache_misses += other.consistency_cache_misses;
        self.connectivity_cache_hits += other.connectivity_cache_hits;
        self.connectivity_cache_misses += other.connectivity_cache_misses;
        self.truncated |= other.truncated;
    }
}

/// Caches shared across privacy evaluations (§4.1, "Caching information
/// about concretizations and queries"). Consistent queries are cached per
/// concretization; CIM queries are *not* cached, exactly as the paper notes,
/// because minimality depends on the concretization set of the abstraction
/// under evaluation. Connectivity is memoized per abstracted row on the
/// [`Bound`] instead ([`Bound::row_concretizations_cached`]): symbols name
/// nodes of one tree, and a cache may be shared across trees.
///
/// The cache is `Send + Sync` (an [`EpochMap`] over sharded concurrent
/// maps), so one cache is shared by every worker of the parallel search —
/// candidates that revisit a concretization another worker already solved
/// get the memoized result — and can likewise be reused across searches by
/// an experiment harness, or across sessions pinned to different snapshot
/// epochs. All methods take `&self`.
///
/// ```
/// use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
/// use provabs_core::{fixtures, Abstraction, Bound};
///
/// let fx = fixtures::running_example();
/// let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
/// let rows = Abstraction::identity(&bound).apply(&bound).rows;
/// let cfg = PrivacyConfig { threshold: 1, ..Default::default() };
///
/// let cache = PrivacyCache::new();
/// let first = compute_privacy(&bound, &rows, &cfg, &cache);
/// let second = compute_privacy(&bound, &rows, &cfg, &cache);
/// assert_eq!(first.privacy, second.privacy);
/// // The repeat run is answered from the cache: no recomputation.
/// assert_eq!(second.stats.consistency_cache_misses, 0);
/// assert!(!cache.is_empty());
///
/// // The cache crosses thread boundaries by shared reference.
/// fn assert_send_sync<T: Send + Sync>(_: &T) {}
/// assert_send_sync(&cache);
/// ```
#[derive(Debug, Default)]
pub struct PrivacyCache {
    /// Interns sorted occurrence lists to small ids: the cache keys by
    /// [`OccId`] instead of hashed owned annotation vectors, so repeat
    /// lookups hash a handful of `u32`s rather than whole concretizations.
    occs: OccInterner,
    /// The keyed frontier of connected consistent queries per
    /// concretization, depending on the annotations it resolves through.
    consistent: EpochMap<ConcKey, AnnotId, Arc<Frontier>>,
}

/// An interned sorted occurrence list (id space private to one
/// [`PrivacyCache`]).
type OccId = u32;

/// A sharded interner: sorted occurrence vector → dense-ish id. First
/// insert wins under races, so every equal vector resolves to one canonical
/// id (racing workers may burn a counter value — ids stay unique, which is
/// all the keying needs). Its shards nest inside nothing.
#[derive(Debug)]
struct OccInterner {
    ids: ShardedMap<Vec<AnnotId>, OccId>,
    next: AtomicU32,
}

impl Default for OccInterner {
    fn default() -> Self {
        Self {
            ids: ShardedMap::labeled("privacy.occs.shard"),
            next: AtomicU32::default(),
        }
    }
}

impl OccInterner {
    fn intern(&self, key: Vec<AnnotId>) -> OccId {
        if let Some(id) = self.ids.get(&key) {
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.ids.insert(key, id)
    }
}

impl PrivacyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached concretizations.
    pub fn len(&self) -> usize {
        self.consistent.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.consistent.is_empty()
    }

    /// Provenance-aware invalidation of a delta committing as snapshot
    /// `epoch`, called before publishing it: **retires**, for epochs
    /// `>= epoch` ([`EpochMap::retire`]), exactly the entries whose
    /// annotations intersect `touched` (an
    /// [`AppliedDelta`](provabs_relational::AppliedDelta)'s deleted and
    /// inserted tuples). Readers pinned earlier ([`PrivacyConfig::epoch`])
    /// keep hitting them; nothing is evicted.
    pub fn invalidate_at(&self, touched: &HashSet<AnnotId>, epoch: u64) {
        self.consistent.retire(touched.iter().copied(), epoch);
    }

    /// The frontier cached for the concrete rows `conc` (output tuple and
    /// occurrence list per row) as seen at `epoch`, `None` on a miss.
    ///
    /// This is the epoch-stamped cell protocol of the cache exposed
    /// directly: probe → recompute on miss → [`PrivacyCache::consistent_record`].
    /// The schedule-enumeration harness drives the retirement fence through
    /// this pair (see `provabsd`'s sched suite), and service health checks
    /// can use it to verify fence behavior without running a full privacy
    /// evaluation.
    pub fn consistent_probe(
        &self,
        conc: &[(Tuple, Vec<AnnotId>)],
        epoch: u64,
    ) -> Option<Arc<Frontier>> {
        let mut key = ConcKey::with_capacity(conc.len());
        for (output, occs) in conc {
            let id = self.occs.ids.get_borrowed(sorted(occs).as_slice())?;
            key.push((Arc::new(output.clone()), id));
        }
        self.consistent.get(&key, epoch)
    }

    /// Records `frontier` for the concrete rows `conc` at `epoch` (first
    /// insert per epoch wins; the canonical stored value is returned). The
    /// version is born at `epoch` and dies at the earliest retirement fence
    /// recorded after it on any of its annotations, exactly like the
    /// internal store path.
    pub fn consistent_record(
        &self,
        conc: &[(Tuple, Vec<AnnotId>)],
        epoch: u64,
        frontier: Frontier,
    ) -> Arc<Frontier> {
        let key = conc
            .iter()
            .map(|(output, occs)| (Arc::new(output.clone()), self.occs.intern(sorted(occs))))
            .collect();
        let deps = conc.iter().flat_map(|(_, occs)| occs.clone()).collect();
        self.consistent.insert(key, deps, epoch, Arc::new(frontier))
    }
}

/// Cache key: the concrete rows (output + interned sorted occurrence list).
///
/// An evaluation shares each row's output among all its keys, so building
/// a key copies no tuple. `Arc<Tuple>` hashes as the `Tuple` it holds, so
/// a key lands in the shard its owned-tuple form would: the lock sequence
/// the schedule-enumeration harness sees is a function of the key's
/// content alone.
type ConcKey = Vec<(Arc<Tuple>, OccId)>;

/// A sorted copy of an occurrence list (the interner's key form).
fn sorted(occs: &[AnnotId]) -> Vec<AnnotId> {
    let mut v = occs.to_vec();
    v.sort_unstable();
    v
}

/// The result of a privacy evaluation.
#[derive(Debug, Clone)]
pub struct PrivacyOutcome {
    /// `Some(p)` with `p >= k` when the threshold is met; `None` encodes the
    /// paper's `-1` (privacy below the threshold).
    pub privacy: Option<usize>,
    /// The CIM queries witnessing the privacy (empty when below threshold).
    pub cim: Vec<Cq>,
    /// Counters.
    pub stats: PrivacyStats,
}

/// Computes the privacy of the abstracted rows `abs_rows` of `bound`
/// (Algorithm 1). Returns `None` privacy when it falls below
/// `cfg.threshold`. A CQ row by row with more than one row takes one row
/// per step, the first only seeding GoodConc (line 1) and each later one
/// but the last pruning it; every other evaluation (one row, the Figure 19
/// ablation, UCQ) takes one step over all rows. Only the last step applies
/// the threshold exits, so every evaluation mode agrees on the privacy
/// when no cap binds.
pub fn compute_privacy(
    bound: &Bound<'_>,
    abs_rows: &[AbsRow],
    cfg: &PrivacyConfig,
    cache: &PrivacyCache,
) -> PrivacyOutcome {
    let mut ev = Eval {
        bound,
        cfg,
        cache,
        rows: abs_rows,
        stats: PrivacyStats::default(),
        sorted: Vec::new(),
        outputs: abs_rows
            .iter()
            .map(|r| Arc::new(r.output.clone()))
            .collect(),
    };
    let n = abs_rows.len();
    let by_row = cfg.row_by_row && cfg.query_class == QueryClass::Cq && n > 1;
    let mut good = vec![Vec::new()];
    for end in if by_row { 1..=n } else { n..=n } {
        let start = if by_row { end - 1 } else { 0 };
        good = ev.step(good, &abs_rows[start..end]);
        // The first row only seeds GoodConc (line 1) and the last is
        // decided below. In between, lines 16–19 keep the prefixes that
        // admit a consistent query, connected or not: a query consistent
        // with a whole concretization is consistent with its prefixes, but
        // a prefix's most-specific query can make a join column a constant
        // that a later row turns back into a shared variable.
        if 1 < end && end < n {
            good.retain(|conc| !ev.frontier(conc, false).is_empty());
        }
    }
    let found = match cfg.query_class {
        QueryClass::Cq => ev.cq_step(&good),
        QueryClass::Ucq => ev.ucq_step(&good),
    };
    // Below the threshold, privacy is the paper's `-1`.
    let (privacy, cim) = match found {
        Some((p, cim)) if p >= cfg.threshold => (Some(p), cim),
        _ => (None, Vec::new()),
    };
    PrivacyOutcome {
        privacy,
        cim,
        stats: ev.stats,
    }
}

fn rev_options(cfg: &PrivacyConfig, connected_only: bool) -> RevOptions {
    RevOptions {
        semiring: cfg.semiring,
        max_alignments: cfg.max_alignments,
        max_expansion_extra: cfg.max_expansion_extra,
        connected_only,
    }
}

/// A concrete prefix: one occurrence list per concretized row.
type Prefix = Vec<Vec<AnnotId>>;

/// One privacy evaluation: its inputs, its counters and scratch space.
struct Eval<'e, 'db> {
    bound: &'e Bound<'db>,
    cfg: &'e PrivacyConfig,
    cache: &'e PrivacyCache,
    /// The abstracted rows under evaluation.
    rows: &'e [AbsRow],
    stats: PrivacyStats,
    /// Reused buffer for sorting an occurrence list before a cache probe.
    sorted: Vec<AnnotId>,
    /// The shared output of each row, copied once per evaluation.
    outputs: Vec<Arc<Tuple>>,
}

impl<'db> Eval<'_, 'db> {
    /// The interned id of the sorted occurrence list `occs`. Probing the
    /// interner allocates nothing; only a list seen for the first time is
    /// copied into it.
    fn occ_id(&mut self, occs: &[AnnotId]) -> OccId {
        self.sorted.clear();
        self.sorted.extend_from_slice(occs);
        self.sorted.sort_unstable();
        match self.cache.occs.ids.get_borrowed(self.sorted.as_slice()) {
            Some(id) => id,
            None => self.cache.occs.intern(self.sorted.clone()),
        }
    }

    /// The connected concretizations of `row` from an enumeration capped at
    /// `cfg.max_concretizations`, through the bound's row memo when caching
    /// is on.
    fn connected_concretizations(&mut self, row: &AbsRow) -> Arc<RowConcretizations> {
        let (cap, filter) = (self.cfg.max_concretizations, self.cfg.connectivity_filter);
        let (concs, hit) = if self.cfg.caching {
            self.bound.row_concretizations_cached(row, cap, filter)
        } else {
            let concs = connected_row_concretizations(self.bound, row, cap, filter);
            (Arc::new(concs), false)
        };
        let verdicts = if filter { concs.produced } else { 0 };
        if hit {
            self.stats.connectivity_cache_hits += verdicts;
        } else {
            self.stats.concretizations_enumerated += concs.produced;
            self.stats.connectivity_cache_misses += verdicts;
        }
        concs
    }

    /// Lines 3–6: every good prefix extended with the connected
    /// concretizations of `rows` taken together that rank below the cap in
    /// the odometer order of all their concretizations (row 0 turns
    /// slowest). The rank is Σ posᵣ·Π_{s>r} Nₛ, with `posᵣ` a row's position
    /// in its unfiltered enumeration and `Nₛ` the concretization count of
    /// row `s`; the cap is hit iff Π Nᵣ exceeds it. Extending nonempty
    /// prefixes also stops at `cap` candidates, which marks the evaluation
    /// truncated (a row with `cap` connected concretizations fills it with
    /// the first prefix's extensions alone). A row is enumerated once per
    /// step, not once per prefix, and once per bound with caching on.
    fn step(&mut self, good: Vec<Prefix>, rows: &[AbsRow]) -> Vec<Prefix> {
        let Some(extending) = good.first().map(|prefix| !prefix.is_empty()) else {
            return good;
        };
        let cap = self.cfg.max_concretizations;
        self.stats.truncated |= concretization_count(self.bound, rows) > cap as u128;
        // Each candidate carries the least rank of its completions, which
        // grows in odometer order: the first one at the cap ends the step.
        let mut candidates: Vec<(Prefix, u128)> = good.into_iter().map(|p| (p, 0)).collect();
        for (r, row) in rows.iter().enumerate() {
            let weight = concretization_count(self.bound, &rows[r + 1..]);
            let concs = &self.connected_concretizations(row);
            candidates = candidates
                .iter()
                .flat_map(|(prefix, least)| {
                    (0..concs.len()).map(move |k| {
                        let mut next = Vec::with_capacity(prefix.len() + 1);
                        next.extend_from_slice(prefix);
                        next.push(concs.get(k).to_vec());
                        let rank = (concs.position(k) as u128).saturating_mul(weight);
                        (next, rank.saturating_add(*least))
                    })
                })
                .take_while(|&(_, rank)| rank < cap as u128)
                .take(cap)
                .collect();
        }
        self.stats.truncated |= extending && candidates.len() >= cap;
        self.stats.concretizations_kept += candidates.len();
        candidates.into_iter().map(|(prefix, _)| prefix).collect()
    }

    /// Lines 7–22 for CQs over whole concretizations: the consistent
    /// connected queries of every candidate, deduplicated by the keys the
    /// frontiers carry, and their CIM queries with the privacy; `None` on
    /// the threshold exits of lines 14–15 and 20–22.
    fn cq_step(&mut self, candidates: &[Prefix]) -> Option<(usize, Vec<Cq>)> {
        let frontiers: Vec<Arc<Frontier>> = candidates
            .iter()
            .map(|conc| self.consistent_of(conc))
            .collect();
        let mut qconn: BTreeMap<&str, &Cq> = BTreeMap::new();
        for (key, q) in frontiers.iter().flat_map(|f| &f.queries) {
            qconn.entry(key).or_insert(q);
        }
        if qconn.len() < self.cfg.threshold {
            return None;
        }
        let conn: Vec<Cq> = qconn.into_values().cloned().collect();
        let cim = cim_queries(&conn, ContainmentMode::for_semiring(self.cfg.semiring));
        (cim.len() >= self.cfg.threshold).then_some((cim.len(), cim))
    }

    /// The UCQ consistency step (Table 4 orange/green cells): the
    /// consistent UCQs of every resolved candidate, uncached, with the
    /// trivial-query exclusion and the "disconnected UCQ" rule, then their
    /// CIM UCQs, their number the privacy. Reports the CQ disjuncts of the
    /// first CIM UCQ for display. UCQ evaluation is a single step, so
    /// GoodConc is not read after it.
    fn ucq_step(&mut self, candidates: &[Prefix]) -> Option<(usize, Vec<Cq>)> {
        let opts = UcqOptions {
            rev: rev_options(self.cfg, false),
            exclude_trivial: self.cfg.exclude_trivial,
            max_ucqs: 10_000,
        };
        let mut frontier: Vec<Ucq> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for conc in candidates {
            let Some(resolved) = self.resolve(conc) else {
                continue;
            };
            let found = find_consistent_ucqs(&resolved, &opts);
            self.stats.truncated |= !found.complete;
            for (key, u) in found.ucqs {
                if u.is_connected() && seen.insert(key) {
                    frontier.push(u);
                }
            }
        }
        let cim = cim_ucqs(&frontier, ContainmentMode::for_semiring(self.cfg.semiring));
        let shown = cim.first().map(|u| u.disjuncts.clone()).unwrap_or_default();
        Some((cim.len(), shown))
    }

    /// Consistent-query frontier of a concrete prefix, with caching. A
    /// frontier cut short by the alignment cap marks the evaluation
    /// truncated, whether it was computed or served from the cache.
    fn consistent_of(&mut self, conc: &[Vec<AnnotId>]) -> Arc<Frontier> {
        let key: Option<ConcKey> = self.cfg.caching.then(|| {
            conc.iter()
                .enumerate()
                .map(|(r, occs)| (Arc::clone(&self.outputs[r]), self.occ_id(occs)))
                .collect()
        });
        let cached = key
            .as_ref()
            .and_then(|k| self.cache.consistent.get(k, self.cfg.epoch));
        if let Some(f) = cached {
            self.stats.consistency_cache_hits += 1;
            self.stats.truncated |= !f.complete;
            return f;
        }
        // The CQ step reads only the connected queries (line 13), so the
        // cache keeps just those. First insert wins; racing workers
        // converge on the stored value.
        let f = Arc::new(self.frontier(conc, true));
        match key {
            Some(k) => self
                .cache
                .consistent
                .insert(k, conc.concat(), self.cfg.epoch, f),
            None => f,
        }
    }

    /// The consistent queries of a concrete prefix (the connected ones
    /// under `connected_only`), computed uncached; a row that does not
    /// resolve yields an empty frontier. Counts a consistency miss.
    fn frontier(&mut self, conc: &[Vec<AnnotId>], connected_only: bool) -> Frontier {
        self.stats.consistency_cache_misses += 1;
        let opts = rev_options(self.cfg, connected_only);
        let f = self.resolve(conc).map_or_else(Frontier::default, |rows| {
            find_consistent_queries(&rows, &opts)
        });
        self.stats.truncated |= !f.complete;
        f
    }

    /// The concrete rows of the prefix `conc`, `None` when some annotation
    /// tags no tuple.
    fn resolve(&self, conc: &[Vec<AnnotId>]) -> Option<Vec<ConcreteRow<'db>>> {
        conc.iter()
            .zip(self.rows)
            .map(|(occs, row)| ConcreteRow::resolve(self.bound.db, &row.output, occs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use crate::Abstraction;
    use provabs_reveng::canonical_key;

    fn abs_lifting(bound: &Bound<'_>, lifts: &[(&str, u32)]) -> Abstraction {
        let mut abs = Abstraction::identity(bound);
        for (name, lift) in lifts {
            let id = bound.db.annotations().get(name).unwrap();
            for r in 0..bound.num_rows() {
                for (i, &a) in bound.row_occurrences(r).iter().enumerate() {
                    if a == id {
                        abs.lifts[r][i] = *lift;
                    }
                }
            }
        }
        abs
    }

    fn privacy_of(lifts: &[(&str, u32)], cfg: &PrivacyConfig) -> PrivacyOutcome {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, lifts);
        let rows = abs.apply(&b).rows;
        let cache = PrivacyCache::new();
        compute_privacy(&b, &rows, cfg, &cache)
    }

    #[test]
    fn exabs1_has_privacy_2() {
        // Example 3.13: the CIM queries of Exabs1 are Qreal and Qfalse1.
        let cfg = PrivacyConfig {
            threshold: 2,
            ..Default::default()
        };
        let out = privacy_of(&[("h1", 1), ("h2", 1)], &cfg);
        assert_eq!(out.privacy, Some(2));
        let fx = running_example();
        let keys: Vec<String> = out.cim.iter().map(canonical_key).collect();
        assert!(keys.contains(&canonical_key(&fx.qreal)));
        assert!(keys.contains(&canonical_key(&fx.qfalse1)));
    }

    #[test]
    fn exabs2_has_privacy_2() {
        // Example 3.15: A2_T also meets threshold 2 (Qreal and Qfalse2).
        let cfg = PrivacyConfig {
            threshold: 2,
            ..Default::default()
        };
        let out = privacy_of(&[("i1", 1), ("i2", 1)], &cfg);
        assert_eq!(out.privacy, Some(2));
        let fx = running_example();
        let keys: Vec<String> = out.cim.iter().map(canonical_key).collect();
        assert!(keys.contains(&canonical_key(&fx.qreal)));
        assert!(keys.contains(&canonical_key(&fx.qfalse2)));
    }

    #[test]
    fn exabs3_fails_threshold_2() {
        // Example 4.2: A3_T (i1 -> WikiLeaks only) has a single CIM query.
        let cfg = PrivacyConfig {
            threshold: 2,
            ..Default::default()
        };
        let out = privacy_of(&[("i1", 1)], &cfg);
        assert_eq!(out.privacy, None);
        // With threshold 1 it reports exactly one CIM query: Qreal.
        let cfg1 = PrivacyConfig {
            threshold: 1,
            ..Default::default()
        };
        let out1 = privacy_of(&[("i1", 1)], &cfg1);
        assert_eq!(out1.privacy, Some(1));
        let fx = running_example();
        assert_eq!(canonical_key(&out1.cim[0]), canonical_key(&fx.qreal));
    }

    #[test]
    fn identity_abstraction_reveals_the_query() {
        let cfg = PrivacyConfig {
            threshold: 1,
            ..Default::default()
        };
        let out = privacy_of(&[], &cfg);
        assert_eq!(out.privacy, Some(1));
        let fx = running_example();
        assert_eq!(canonical_key(&out.cim[0]), canonical_key(&fx.qreal));
    }

    #[test]
    fn ablation_flags_agree_on_privacy() {
        // All four optimization components must not change the result.
        let base = PrivacyConfig {
            threshold: 1,
            ..Default::default()
        };
        let reference = privacy_of(&[("h1", 1), ("h2", 1)], &base);
        for (row_by_row, connectivity, caching) in [
            (false, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, false),
        ] {
            let cfg = PrivacyConfig {
                row_by_row,
                connectivity_filter: connectivity,
                caching,
                ..base.clone()
            };
            let out = privacy_of(&[("h1", 1), ("h2", 1)], &cfg);
            assert_eq!(
                out.privacy, reference.privacy,
                "row_by_row={row_by_row} connectivity={connectivity} caching={caching}"
            );
        }
    }

    #[test]
    fn caching_reduces_recomputation() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let cfg = PrivacyConfig {
            threshold: 1,
            ..Default::default()
        };
        let cache = PrivacyCache::new();
        let first = compute_privacy(&b, &rows, &cfg, &cache);
        let second = compute_privacy(&b, &rows, &cfg, &cache);
        assert_eq!(first.privacy, second.privacy);
        assert!(second.stats.consistency_cache_hits > 0);
        assert_eq!(second.stats.consistency_cache_misses, 0);
    }

    fn at_epoch(e: u64) -> PrivacyConfig {
        PrivacyConfig {
            threshold: 1,
            epoch: e,
            ..Default::default()
        }
    }

    /// The two-row concretizations a row-by-row evaluation of the two
    /// `rows` caches: every pair of connected row concretizations.
    fn two_row_cells(b: &Bound<'_>, rows: &[AbsRow]) -> Vec<Vec<(Tuple, Vec<AnnotId>)>> {
        let [c0, c1] = [0, 1].map(|r| connected_row_concretizations(b, &rows[r], usize::MAX, true));
        let cell = |i, j| {
            vec![
                (rows[0].output.clone(), c0.get(i).to_vec()),
                (rows[1].output.clone(), c1.get(j).to_vec()),
            ]
        };
        (0..c0.len())
            .flat_map(|i| (0..c1.len()).map(move |j| (i, j)))
            .map(|(i, j)| cell(i, j))
            .collect()
    }

    #[test]
    fn invalidation_is_provenance_aware() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let cache = PrivacyCache::new();
        let first = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        let populated = cache.len();
        assert!(populated > 0);
        // A delta touching nothing the example concretizes to is a no-op:
        // a reader at the fenced epoch still hits everything.
        let ghost = HashSet::from([provabs_semiring::AnnotId(u32::MAX)]);
        cache.invalidate_at(&ghost, 1);
        let ghosted = compute_privacy(&b, &rows, &at_epoch(1), &cache);
        assert_eq!(ghosted.stats.consistency_cache_misses, 0);
        // Touching h1 retires every concretization that resolves through
        // it, but the cache stays usable and keeps every version.
        let h1 = HashSet::from([fx.db.annotations().get("h1").unwrap()]);
        cache.invalidate_at(&h1, 2);
        let again = compute_privacy(&b, &rows, &at_epoch(2), &cache);
        assert_eq!(again.privacy, first.privacy);
        assert!(again.stats.consistency_cache_misses > 0);
        assert_eq!(cache.len(), populated, "retire, never evict");
    }

    #[test]
    fn invalidate_at_retires_exactly_the_intersecting_entries() {
        // Retirement is exact on the interned-id key scheme: at and after
        // the fenced epoch precisely the concretizations whose annotations
        // intersect the touched set stop being served, and the disjoint
        // ones still are.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let cache = PrivacyCache::new();
        let first = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        let cells = two_row_cells(&b, &rows);
        assert_eq!(cells.len(), cache.len(), "every pair is cached");
        let h2 = fx.db.annotations().get("h2").unwrap();
        cache.invalidate_at(&HashSet::from([h2]), 1);
        let touching = |c: &[(Tuple, Vec<AnnotId>)]| c.iter().any(|(_, o)| o.contains(&h2));
        let retired = cells.iter().filter(|c| touching(c)).count();
        assert!(retired > 0, "h2 appears in concretizations");
        assert!(retired < cells.len(), "h1-only concretizations survive");
        for cell in &cells {
            assert!(cache.consistent_probe(cell, 0).is_some());
            for e in [1, 5] {
                let served = cache.consistent_probe(cell, e).is_some();
                assert_eq!(served, !touching(cell), "epoch {e}: {cell:?}");
            }
        }
        // A re-run at the fenced epoch recomputes exactly the retired ones.
        let second = compute_privacy(&b, &rows, &at_epoch(1), &cache);
        assert_eq!(second.privacy, first.privacy);
        assert_eq!(second.stats.consistency_cache_misses, retired);
        let third = compute_privacy(&b, &rows, &at_epoch(1), &cache);
        assert_eq!(third.stats.consistency_cache_misses, 0);
    }

    #[test]
    fn epoch_invalidation_preserves_pinned_readers() {
        // Satellite regression: after an epoch-aware invalidation, a
        // reader pinned at an *older* epoch must still hit every one of
        // its cached entries — only readers at or after the invalidating
        // epoch recompute.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let cache = PrivacyCache::new();
        let first = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        let populated = cache.len();
        assert!(populated > 0);
        // A delta touching h2 commits as epoch 1.
        let h2 = HashSet::from([fx.db.annotations().get("h2").unwrap()]);
        cache.invalidate_at(&h2, 1);
        // Nothing is evicted — entries are retired per epoch, not dropped.
        assert_eq!(cache.len(), populated);
        // The pinned epoch-0 reader still hits everything.
        let pinned = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        assert_eq!(pinned.privacy, first.privacy);
        assert_eq!(
            pinned.stats.consistency_cache_misses, 0,
            "older-epoch reader must keep hitting its entries"
        );
        // The bound's row memo serves every row: nothing is re-concretized.
        assert_eq!(pinned.stats.concretizations_enumerated, 0);
        assert_eq!(pinned.stats.connectivity_cache_misses, 0);
        // A reader at epoch 1 recomputes the retired entries (the database
        // is unchanged here, so the recomputed values — and the privacy —
        // are identical) and leaves the untouched ones warm.
        let fresh = compute_privacy(&b, &rows, &at_epoch(1), &cache);
        assert_eq!(fresh.privacy, first.privacy);
        assert!(fresh.stats.consistency_cache_misses > 0);
        assert!(
            fresh.stats.consistency_cache_hits > 0,
            "entries disjoint from the delta survive at the new epoch"
        );
        // Both epochs are now fully warm.
        let warm0 = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        assert_eq!(warm0.stats.consistency_cache_misses, 0);
        let warm1 = compute_privacy(&b, &rows, &at_epoch(1), &cache);
        assert_eq!(warm1.stats.consistency_cache_misses, 0);
    }

    #[test]
    fn late_insert_by_pinned_reader_respects_later_fences() {
        // The fence on h1 at epoch 1 is recorded while the cache is still
        // cold; a pinned epoch-0 reader then populates it. Its entries
        // through h1 must die at the fence: an epoch-1 reader recomputes
        // them, while the epoch-0 reader stays warm.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let cache = PrivacyCache::new();
        let h1 = fx.db.annotations().get("h1").unwrap();
        cache.invalidate_at(&HashSet::from([h1]), 1);
        let e0 = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        let through_h1 = two_row_cells(&b, &rows)
            .iter()
            .filter(|c| c.iter().any(|(_, o)| o.contains(&h1)))
            .count();
        assert!(through_h1 > 0);
        let e1 = compute_privacy(&b, &rows, &at_epoch(1), &cache);
        assert_eq!(e1.privacy, e0.privacy);
        assert_eq!(e1.stats.consistency_cache_misses, through_h1);
        let again0 = compute_privacy(&b, &rows, &at_epoch(0), &cache);
        assert_eq!(again0.stats.consistency_cache_misses, 0);
    }

    #[test]
    fn connectivity_filter_prunes_concretizations() {
        let cfg = PrivacyConfig {
            threshold: 1,
            ..Default::default()
        };
        let with = privacy_of(&[("h1", 1), ("h2", 1)], &cfg);
        let without = privacy_of(
            &[("h1", 1), ("h2", 1)],
            &PrivacyConfig {
                connectivity_filter: false,
                ..cfg
            },
        );
        assert_eq!(with.privacy, without.privacy);
        assert!(with.stats.concretizations_kept < without.stats.concretizations_kept);
    }

    #[test]
    fn truncation_is_reported() {
        let cfg = PrivacyConfig {
            threshold: 1,
            max_concretizations: 2,
            ..Default::default()
        };
        let out = privacy_of(&[("h1", 3), ("h2", 3), ("i1", 3), ("i2", 3)], &cfg);
        assert!(out.stats.truncated);
    }

    #[test]
    fn row_filling_the_cap_exactly_is_truncated() {
        // Row 0 stays concrete; row 1 lifts each tree occurrence one level.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let mut abs = Abstraction::identity(&b);
        for i in 0..b.row_occurrences(1).len() {
            abs.lifts[1][i] = b.max_lift(1, i).min(1);
        }
        let rows = abs.apply(&b).rows;
        let all = connected_row_concretizations(&b, &rows[1], usize::MAX, true);
        let connected = all.len();
        assert!(connected >= 2);
        let privacy_at = |cap: usize| {
            let cfg = PrivacyConfig {
                threshold: 1,
                max_concretizations: cap,
                ..Default::default()
            };
            compute_privacy(&b, &rows, &cfg, &PrivacyCache::new())
        };
        // Exactly `cap` connected concretizations of row 1: cut short.
        assert!(privacy_at(connected).stats.truncated);
        // One more allowed and the whole row fits: not truncated.
        let roomy = privacy_at(all.produced.max(connected + 1));
        assert!(!roomy.stats.truncated);
        assert!(roomy.privacy.is_some());
    }

    #[test]
    fn alignment_cap_marks_privacy_truncated() {
        use provabs_relational::{parse_cq, Database, Evaluator, KExample};
        // Rows derived by a self-join: each pair of rows has two alignments,
        // so an alignment cap of one cuts every two-row frontier short.
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        for (a, f) in [
            ("t1", ["1", "5"]),
            ("t2", ["5", "9"]),
            ("t3", ["2", "6"]),
            ("t4", ["6", "9"]),
        ] {
            db.insert_str(r, a, &f);
        }
        db.build_indexes();
        let root = db.intern_label("*");
        let mut tb = provabs_tree::TreeBuilder::new(root);
        for n in ["t1", "t2", "t3", "t4"] {
            tb.add_child(root, db.annotations().get(n).unwrap());
        }
        let tree = tb.build();
        let q = parse_cq("Q(x) :- R(x, y), R(y, 9)", db.schema()).unwrap();
        let ex = KExample::from_krelation(&Evaluator::new(&db).eval_cq(&q).0, usize::MAX);
        assert_eq!(ex.rows.len(), 2);
        let b = Bound::new(&db, &tree, &ex).unwrap();
        let rows = Abstraction::identity(&b).apply(&b).rows;
        for row_by_row in [true, false] {
            let cfg = PrivacyConfig {
                threshold: 1,
                row_by_row,
                ..Default::default()
            };
            let full = compute_privacy(&b, &rows, &cfg, &PrivacyCache::new());
            assert_eq!(full.privacy, Some(1));
            assert!(!full.stats.truncated);
            let capped_cfg = PrivacyConfig {
                max_alignments: 1,
                ..cfg
            };
            let cache = PrivacyCache::new();
            let capped = compute_privacy(&b, &rows, &capped_cfg, &cache);
            assert!(capped.stats.truncated, "row_by_row={row_by_row}");
            // A frontier served from the cache still reports its cut.
            let again = compute_privacy(&b, &rows, &capped_cfg, &cache);
            assert_eq!(again.stats.consistency_cache_misses, 0);
            assert!(again.stats.truncated, "row_by_row={row_by_row}");
        }
    }

    #[test]
    fn ucq_alignment_cap_marks_privacy_truncated() {
        use provabs_relational::{parse_cq, Database, Evaluator, KExample};
        // The self-join rows of `alignment_cap_marks_privacy_truncated`: the
        // two-row block of the UCQ partitions has two alignments.
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        for (a, f) in [
            ("t1", ["1", "5"]),
            ("t2", ["5", "9"]),
            ("t3", ["2", "6"]),
            ("t4", ["6", "9"]),
        ] {
            db.insert_str(r, a, &f);
        }
        db.build_indexes();
        let root = db.intern_label("*");
        let mut tb = provabs_tree::TreeBuilder::new(root);
        for n in ["t1", "t2", "t3", "t4"] {
            tb.add_child(root, db.annotations().get(n).unwrap());
        }
        let tree = tb.build();
        let q = parse_cq("Q(x) :- R(x, y), R(y, 9)", db.schema()).unwrap();
        let ex = KExample::from_krelation(&Evaluator::new(&db).eval_cq(&q).0, usize::MAX);
        let b = Bound::new(&db, &tree, &ex).unwrap();
        let rows = Abstraction::identity(&b).apply(&b).rows;
        let cfg = PrivacyConfig {
            threshold: 1,
            query_class: QueryClass::Ucq,
            ..Default::default()
        };
        let full = compute_privacy(&b, &rows, &cfg, &PrivacyCache::new());
        assert!(!full.stats.truncated);
        let capped = PrivacyConfig {
            max_alignments: 1,
            ..cfg
        };
        let out = compute_privacy(&b, &rows, &capped, &PrivacyCache::new());
        assert!(out.stats.truncated);
    }

    #[test]
    fn ucq_privacy_counts_unions() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let cfg = PrivacyConfig {
            threshold: 1,
            query_class: QueryClass::Ucq,
            ..Default::default()
        };
        let cache = PrivacyCache::new();
        let out = compute_privacy(&b, &rows, &cfg, &cache);
        assert!(out.privacy.is_some());
        assert!(out.privacy.unwrap() >= 2);
    }

    /// A one-row concretization and a frontier whose `complete` flag
    /// stands in for the verdict the sched tests track per epoch.
    fn sched_cell(annot: AnnotId) -> Vec<(Tuple, Vec<AnnotId>)> {
        vec![(Tuple::parse(&["1"]), vec![annot])]
    }

    fn verdict(v: bool) -> Frontier {
        Frontier {
            queries: Vec::new(),
            complete: v,
        }
    }

    /// Model-checked (healthy protocol): the writer records the retirement
    /// fence *before* publishing the new epoch, so across every enumerated
    /// schedule a reader that observes the new epoch can never hit a
    /// pre-fence cached frontier.
    #[test]
    fn sched_fenced_invalidation_is_never_stale() {
        use provabs_sched as sched;
        use provabs_sched::sync::atomic::{AtomicU64 as SchedU64, Ordering as SchedOrdering};
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let annot = provabs_semiring::AnnotId(7);
            let cell = sched_cell(annot);
            let cache = Arc::new(PrivacyCache::new());
            // truth(epoch 0) = false, truth(epoch 1) = true
            cache.consistent_record(&cell, 0, verdict(false));
            let published = Arc::new(SchedU64::labeled("privacy.epoch", 0));
            let (c2, p2) = (Arc::clone(&cache), Arc::clone(&published));
            let writer = sched::thread::spawn(move || {
                // Fence first, publish second — the invariant under test.
                let touched = std::collections::HashSet::from([annot]);
                c2.invalidate_at(&touched, 1);
                p2.store(1, SchedOrdering::SeqCst);
            });
            let epoch = published.load(SchedOrdering::SeqCst);
            let truth = epoch >= 1;
            match cache.consistent_probe(&cell, epoch) {
                Some(f) => assert_eq!(f.complete, truth, "stale privacy verdict at epoch {epoch}"),
                None => {
                    let stored = cache.consistent_record(&cell, epoch, verdict(truth));
                    assert_eq!(stored.complete, truth);
                }
            }
            writer.join().unwrap();
            // After the fence, epoch 1 never resolves to the epoch-0 verdict.
            let at = |e| cache.consistent_probe(&cell, e).map(|f| f.complete);
            assert_ne!(at(1), Some(false));
            assert_eq!(at(0), Some(false));
        });
        outcome.expect_clean();
        assert!(
            outcome.lock_cycle().is_none(),
            "privacy cache lock order must be acyclic: {:?}",
            outcome.lock_edges
        );
    }

    /// Model-checked cold late insert: the cache is empty when the writer
    /// fences annotation 7 and publishes epoch 1, while a reader probes and
    /// records on a miss. A reader at epoch 0 that records after the fence
    /// must store a version that dies at it, so epoch 1 never resolves to
    /// the epoch-0 verdict.
    #[test]
    fn sched_cold_late_record_respects_the_fence() {
        use provabs_sched as sched;
        use provabs_sched::sync::atomic::{AtomicU64 as SchedU64, Ordering as SchedOrdering};
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let annot = provabs_semiring::AnnotId(7);
            let cell = sched_cell(annot);
            let cache = Arc::new(PrivacyCache::new());
            let published = Arc::new(SchedU64::labeled("privacy.epoch", 0));
            let (c2, p2) = (Arc::clone(&cache), Arc::clone(&published));
            let writer = sched::thread::spawn(move || {
                let touched = HashSet::from([annot]);
                c2.invalidate_at(&touched, 1);
                p2.store(1, SchedOrdering::SeqCst);
            });
            let epoch = published.load(SchedOrdering::SeqCst);
            let truth = epoch >= 1;
            if cache.consistent_probe(&cell, epoch).is_none() {
                cache.consistent_record(&cell, epoch, verdict(truth));
            }
            writer.join().unwrap();
            let at1 = cache.consistent_probe(&cell, 1).map(|f| f.complete);
            assert_ne!(at1, Some(false), "stale privacy verdict at epoch 1");
        });
        outcome.expect_clean();
        assert!(outcome.complete, "sweep must be exhaustive: {outcome:?}");
        assert!(
            outcome.lock_cycle().is_none(),
            "privacy cache lock order must be acyclic: {:?}",
            outcome.lock_edges
        );
    }

    /// Model-checked mutant: publishing the epoch *before* recording the
    /// retirement fence opens a window where a new-epoch reader hits the
    /// stale pre-fence frontier. The sweep MUST find it — this proves the
    /// harness can see through the privacy cache's epoch-stamped protocol.
    #[test]
    fn sched_mutant_unfenced_invalidation_is_caught() {
        use provabs_sched as sched;
        use provabs_sched::sync::atomic::{AtomicU64 as SchedU64, Ordering as SchedOrdering};
        let outcome = sched::explore_with(sched::Config::unbounded(), || {
            let annot = provabs_semiring::AnnotId(7);
            let cell = sched_cell(annot);
            let cache = Arc::new(PrivacyCache::new());
            cache.consistent_record(&cell, 0, verdict(false));
            let published = Arc::new(SchedU64::labeled("privacy.epoch", 0));
            let (c2, p2) = (Arc::clone(&cache), Arc::clone(&published));
            let writer = sched::thread::spawn(move || {
                // MUTANT: publish first, fence second.
                let touched = std::collections::HashSet::from([annot]);
                p2.store(1, SchedOrdering::SeqCst);
                c2.invalidate_at(&touched, 1);
            });
            let epoch = published.load(SchedOrdering::SeqCst);
            let truth = epoch >= 1;
            if let Some(f) = cache.consistent_probe(&cell, epoch) {
                assert_eq!(f.complete, truth, "stale privacy verdict at epoch {epoch}");
            }
            writer.join().unwrap();
        });
        let v = outcome
            .violation
            .expect("unfenced privacy invalidation must be caught");
        assert!(
            v.message.contains("stale privacy verdict"),
            "unexpected violation: {}",
            v.message
        );
    }
}
