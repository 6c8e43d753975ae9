//! Vectorized block-at-a-time execution: the physical-operator pipeline.
//!
//! The scalar engine in [`eval`](crate::eval) backtracks one candidate row
//! at a time, hashing a [`ValueId`] probe per bound column per visit. This
//! module executes the same [`QueryPlan`](crate::plan::QueryPlan) as a
//! pipeline of physical operators passing fixed-size *blocks* of candidate
//! rows instead of single bindings:
//!
//! * **Scan** — when a plan step has no bound column at all, candidates are
//!   the whole relation (row ids ascending).
//! * **Probe** — bound columns resolve candidate row lists without hashing:
//!   query constants fetch their posting list once per evaluation (the only
//!   hash probes the block path issues), and variable-bound columns gallop a
//!   block of probe ids — sorted and deduplicated per block — through a
//!   sorted `(value, row)` column index. Multiple bound columns intersect
//!   their sorted row lists by sorted-merge with galloping, generalizing the
//!   [`monomial_connected`](crate::monomial_connected) merge probe.
//! * **Select** — a selection pass filters the candidate rows that survive
//!   intra-atom repeated-variable equality and the delta-restriction
//!   membership rule, appending survivors to the output block.
//! * **Materialize** — final blocks resolve head bindings and derivation
//!   images through the block spine and accumulate outputs, with
//!   provenance-arena lookups batched per block: each distinct image interns
//!   once per block, not once per derivation.
//!
//! A block holds up to `block_size` entries; each entry is a candidate row
//! plus a *parent pointer* into the previous step's block, so variable
//! values are never gathered forward level by level — a binding resolves by
//! chasing parent pointers back to the step that bound it and reading the
//! [`ValueId`] column in place. Blocks move 8 bytes per surviving row
//! (the row and its parent pointer) where the scalar engine moves 4 bytes
//! per newly bound variable per visited row.
//!
//! Unlimited evaluations produce bit-identical [`KRelation`]s
//! (crate::KRelation) under either execution; see [`Execution`] for the
//! determinism contract under [`EvalLimits`] truncation.

use crate::eval::{Accum, EvalLimits, EvalWork, Restriction, Slot};
use crate::plan::QueryPlan;
use crate::vintern::{ValueId, ID_WIDTH, VALUE_MOVE_WIDTH};
use crate::{Cq, Database, RelId, VarId};
use provabs_semiring::{AnnotId, MonoId, Monomial, ProvStore};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Default rows per block of the vectorized engine.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// How the join engine executes a [`QueryPlan`](crate::plan::QueryPlan).
///
/// # Determinism contract
///
/// Both executions are fully deterministic for a given database content,
/// query, [`PlanMode`](crate::PlanMode) and limits. An **unlimited**
/// evaluation produces the identical K-relation either way (the join is
/// enumeration-order independent). Under [`EvalLimits`] truncation, *which*
/// outputs survive the cap depends on enumeration order: the block engine
/// enumerates candidates in ascending row order while the scalar engine
/// follows posting-list order (equal until deletions reorder a posting
/// list), so a capped evaluation may keep a different — still deterministic —
/// output subset, exactly as a different `PlanMode` may. Counter baselines
/// recorded under the scalar engine replay bit-identical only under
/// [`Execution::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Execution {
    /// Vectorized block-at-a-time execution (the default): fixed-size row
    /// blocks with selection vectors, sorted-merge/galloping probes, and
    /// per-block batched provenance interning.
    Block {
        /// Rows per block (clamped to at least 1);
        /// [`DEFAULT_BLOCK_SIZE`] balances locality against spine depth.
        block_size: usize,
    },
    /// The scalar backtracking engine: binds one candidate row at a time.
    /// This is the replay mode that keeps the PR 2–6 counter baselines
    /// (`BENCH_2.json` … `BENCH_6.json`) bit-identical; every legacy
    /// `eval_*` entry point pins it.
    Scalar,
}

impl Default for Execution {
    fn default() -> Self {
        Execution::Block {
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

/// A block of partial derivations at one plan depth: parallel vectors of
/// candidate rows and parent pointers into the previous depth's block.
#[derive(Default)]
struct Block {
    rows: Vec<u32>,
    parent: Vec<u32>,
}

impl Block {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.parent.clear();
    }
}

/// A column regrouped by [`ValueId`]: `keys` ascending, `rows[starts[k] ..
/// starts[k + 1]]` the ascending row ids carrying `keys[k]`. This is the
/// Probe operator's hash-free access path — a block of sorted probe ids
/// merges against `keys` by galloping.
struct SortedCol {
    keys: Vec<ValueId>,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl SortedCol {
    fn build(col: &[ValueId]) -> SortedCol {
        let mut pairs: Vec<(ValueId, u32)> = col
            .iter()
            .enumerate()
            .map(|(row, &v)| (v, row as u32))
            .collect();
        pairs.sort_unstable();
        let mut keys: Vec<ValueId> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        let mut rows: Vec<u32> = Vec::with_capacity(pairs.len());
        for (v, r) in pairs {
            if keys.last() != Some(&v) {
                keys.push(v);
                starts.push(rows.len() as u32);
            }
            rows.push(r);
        }
        starts.push(rows.len() as u32);
        SortedCol { keys, starts, rows }
    }
}

/// One variable-bound column of a plan step, probed per block.
struct ProbeCol {
    /// `(plan depth, column)` where the probed variable first bound.
    binder: (usize, usize),
    /// The sorted column index of this column.
    index: SortedCol,
}

/// One compiled physical-operator step (a plan step plus its access paths).
struct StepOp {
    rel: RelId,
    /// Candidate rows shared by every parent entry: constant posting lists
    /// (∩ the delta pivot rows), sorted ascending and intersected once per
    /// evaluation. `None` means no constant/pivot access path — candidates
    /// come from variable probes, or a full Scan.
    fixed: Option<Vec<u32>>,
    /// Variable-bound columns, intersected per entry.
    probes: Vec<ProbeCol>,
    /// `(column, earlier column)` pairs carrying the same variable first
    /// bound *at this atom* — the Select operator's intra-atom equality.
    dup_cols: Vec<(usize, usize)>,
    /// Pre-pivot restriction: Select drops rows whose annotation is in the
    /// delta set.
    skip_set: bool,
    /// Variables first bound at this step — the owned-engine counterfactual
    /// move width per surviving row.
    new_vars: u64,
}

/// The compiled pipeline plus everything immutable during execution.
struct Compiled<'a> {
    db: &'a Database,
    q: &'a Cq,
    ops: Vec<StepOp>,
    /// Per head variable: `(plan depth, column)` of its first binding.
    head_binders: Vec<(usize, usize)>,
    /// Per plan depth: the step relation's annotation column.
    annots: Vec<&'a [AnnotId]>,
    limits: EvalLimits,
    block_size: usize,
    set: Option<&'a HashSet<AnnotId>>,
}

/// Mutable execution state: counters, the output accumulator, and the
/// scratch buffers the Materialize operator reuses across derivations.
struct State<'a, 'b> {
    derivations: usize,
    work: &'a mut EvalWork,
    depth_rows: &'a mut [u64],
    out: &'a mut Accum,
    store: &'a mut ProvStore,
    key_buf: Vec<ValueId>,
    image_buf: Vec<AnnotId>,
    /// Per-block monomial memo: each distinct derivation image interns into
    /// the arena once per block.
    mono_cache: HashMap<Vec<AnnotId>, MonoId>,
    _marker: std::marker::PhantomData<&'b ()>,
}

/// Runs the compiled plan through the block pipeline. Returns the number of
/// derivations emitted. Outputs accumulate into `out`, counters into `work`
/// and `depth_rows`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block(
    db: &Database,
    q: &Cq,
    compiled_slots: &[Vec<Slot>],
    head_vars: &[VarId],
    limits: EvalLimits,
    restrict: Option<&Restriction<'_>>,
    plan: &QueryPlan,
    store: &mut ProvStore,
    out: &mut Accum,
    work: &mut EvalWork,
    depth_rows: &mut [u64],
    block_size: usize,
) -> u64 {
    let order = plan.atom_order();
    let Some(c) = compile(
        db,
        q,
        compiled_slots,
        head_vars,
        limits,
        restrict,
        &order,
        block_size,
        work,
    ) else {
        return 0;
    };
    let mut state = State {
        derivations: 0,
        work,
        depth_rows,
        out,
        store,
        key_buf: Vec::with_capacity(head_vars.len()),
        image_buf: Vec::with_capacity(order.len()),
        mono_cache: HashMap::new(),
        _marker: std::marker::PhantomData,
    };
    let mut path: Vec<Block> = Vec::new();
    step(&c, &mut state, 0, &mut path);
    state.derivations as u64
}

/// Compiles the plan into [`StepOp`]s: resolves binder positions, fetches
/// and intersects constant posting lists (the per-evaluation hash probes),
/// and builds the sorted column indexes the Probe operator gallops against.
/// Returns `None` when a constant access path is provably empty.
#[allow(clippy::too_many_arguments)]
fn compile<'a>(
    db: &'a Database,
    q: &'a Cq,
    compiled_slots: &[Vec<Slot>],
    head_vars: &[VarId],
    limits: EvalLimits,
    restrict: Option<&'a Restriction<'a>>,
    order: &[usize],
    block_size: usize,
    work: &mut EvalWork,
) -> Option<Compiled<'a>> {
    let mut binder: HashMap<VarId, (usize, usize)> = HashMap::new();
    let mut ops: Vec<StepOp> = Vec::with_capacity(order.len());
    for (depth, &orig) in order.iter().enumerate() {
        let atom = &q.body[orig];
        let rel = atom.rel;
        let mut const_lists: Vec<Vec<u32>> = Vec::new();
        let mut probes: Vec<ProbeCol> = Vec::new();
        let mut dup_cols: Vec<(usize, usize)> = Vec::new();
        let mut new_vars = 0u64;
        for (col, slot) in compiled_slots[orig].iter().enumerate() {
            match slot {
                Slot::Const { id, width } => {
                    // The block path's only hash probes: one posting-list
                    // fetch per query constant per evaluation (the scalar
                    // engine re-probes on every atom visit).
                    work.probes += 1;
                    work.probe_bytes_id += ID_WIDTH;
                    work.probe_bytes_value += width;
                    let Some(id) = *id else {
                        return None; // constant outside the domain
                    };
                    let rows = match db.postings(rel, col, id) {
                        Some(p) => p.to_vec(),
                        None => db.scan_matching(rel, col, id),
                    };
                    const_lists.push(sorted_rows(rows));
                }
                Slot::Var(v) => match binder.get(v) {
                    None => {
                        binder.insert(*v, (depth, col));
                        new_vars += 1;
                    }
                    Some(&(bd, bcol)) if bd == depth => dup_cols.push((col, bcol)),
                    Some(&b) => probes.push(ProbeCol {
                        binder: b,
                        index: SortedCol::build(db.column(rel, col)),
                    }),
                },
            }
        }
        let pivot_rows: Option<Vec<u32>> = restrict.filter(|r| r.pivot == orig).map(|r| {
            // Already ascending (the delta side sorts them) and all members
            // of the delta set by construction — the Equal restriction case
            // needs no Select check.
            r.pivot_rows.iter().map(|&row| row as u32).collect()
        });
        let fixed = intersect_fixed(pivot_rows, const_lists, &mut work.gallop_steps);
        ops.push(StepOp {
            rel,
            fixed,
            probes,
            dup_cols,
            skip_set: restrict.is_some_and(|r| orig < r.pivot),
            new_vars,
        });
    }
    let head_binders = head_vars
        .iter()
        .map(|v| *binder.get(v).expect("head variable bound in body"))
        .collect();
    let annots = ops.iter().map(|op| db.tuple_annots(op.rel)).collect();
    Some(Compiled {
        db,
        q,
        ops,
        head_binders,
        annots,
        limits,
        block_size: block_size.max(1),
        set: restrict.map(|r| r.set),
    })
}

/// Sorts a candidate row list when index maintenance left it unsorted
/// (deletions rename swap-removed rows in place); freshly built posting
/// lists and scans are already ascending.
fn sorted_rows(mut rows: Vec<u32>) -> Vec<u32> {
    if !rows.is_sorted() {
        rows.sort_unstable();
    }
    rows
}

/// Intersects the per-evaluation fixed candidate lists (delta pivot rows and
/// constant posting lists), smallest first.
fn intersect_fixed(
    pivot: Option<Vec<u32>>,
    mut consts: Vec<Vec<u32>>,
    steps: &mut u64,
) -> Option<Vec<u32>> {
    let mut lists: Vec<Vec<u32>> = pivot.into_iter().collect();
    lists.append(&mut consts);
    if lists.is_empty() {
        return None;
    }
    lists.sort_by_key(Vec::len);
    let mut acc = lists.remove(0);
    let mut scratch = Vec::new();
    for next in &lists {
        gallop_intersect(&acc, next, &mut scratch, steps);
        std::mem::swap(&mut acc, &mut scratch);
    }
    Some(acc)
}

/// First index `i >= lo` with `keys[i] >= target`: exponential gallop from
/// `lo`, then binary search inside the overshoot window.
fn gallop_to<T: Ord + Copy>(keys: &[T], mut lo: usize, target: T, steps: &mut u64) -> usize {
    let mut width = 1usize;
    let mut hi = lo;
    while hi < keys.len() && keys[hi] < target {
        *steps += 1;
        lo = hi + 1;
        hi += width;
        width <<= 1;
    }
    hi = hi.min(keys.len());
    while lo < hi {
        *steps += 1;
        let mid = lo + (hi - lo) / 2;
        if keys[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Sorted-merge intersection with galloping: iterate the smaller list,
/// gallop the larger.
fn gallop_intersect(a: &[u32], b: &[u32], out: &mut Vec<u32>, steps: &mut u64) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut pos = 0usize;
    for &x in small {
        pos = gallop_to(large, pos, x, steps);
        if pos >= large.len() {
            break;
        }
        if large[pos] == x {
            out.push(x);
            pos += 1;
        }
    }
}

/// Resolves the probe id of `entry` (an index into the block at
/// `depth - 1`) for a variable first bound at `binder`: chase parent
/// pointers down the spine, then read the binding column in place.
fn resolve_id(
    c: &Compiled<'_>,
    path: &[Block],
    depth: usize,
    binder: (usize, usize),
    entry: usize,
) -> ValueId {
    let (bd, bcol) = binder;
    let mut e = entry;
    let mut lvl = depth - 1;
    while lvl > bd {
        e = path[lvl].parent[e] as usize;
        lvl -= 1;
    }
    let row = path[bd].rows[e] as usize;
    c.db.column(c.ops[bd].rel, bcol)[row]
}

/// One pipeline step: Materialize at the end of the plan, otherwise
/// Scan/Probe/Select the next operator and recurse per emitted block.
/// Returns `false` to stop the whole evaluation (derivation cap).
fn step(c: &Compiled<'_>, s: &mut State<'_, '_>, depth: usize, path: &mut Vec<Block>) -> bool {
    if depth == c.ops.len() {
        return materialize(c, s, path);
    }
    let op = &c.ops[depth];
    let parent_len = if depth == 0 { 1 } else { path[depth - 1].len() };

    // Probe: per variable-bound column, sort the block's probe ids
    // (deduplicating repeats) and resolve each distinct id by galloping the
    // sorted column index — no hashing. `ranges[p][entry]` is the candidate
    // row range of `entry` in probe column `p`.
    let mut ranges: Vec<Vec<(u32, u32)>> = Vec::with_capacity(op.probes.len());
    let mut ids: Vec<(ValueId, u32)> = Vec::new();
    for pc in &op.probes {
        ids.clear();
        for e in 0..parent_len {
            ids.push((resolve_id(c, path, depth, pc.binder, e), e as u32));
        }
        ids.sort_unstable();
        let mut per_entry = vec![(0u32, 0u32); parent_len];
        let keys = &pc.index.keys;
        let mut k = 0usize;
        let mut i = 0usize;
        while i < ids.len() {
            let id = ids[i].0;
            k = gallop_to(keys, k, id, &mut s.work.gallop_steps);
            s.work.probes += 1; // one sorted-index lookup per distinct id
            let range = if k < keys.len() && keys[k] == id {
                (pc.index.starts[k], pc.index.starts[k + 1])
            } else {
                (0, 0)
            };
            while i < ids.len() && ids[i].0 == id {
                per_entry[ids[i].1 as usize] = range;
                i += 1;
            }
        }
        ranges.push(per_entry);
    }

    let annots = c.annots[depth];
    let mut chunk = Block::default();
    let mut slices: Vec<&[u32]> = Vec::new();
    let mut scratch_a: Vec<u32> = Vec::new();
    let mut scratch_b: Vec<u32> = Vec::new();
    let mut all_rows: Vec<u32> = Vec::new();
    // `e` is a parent-entry index shared by every probe column's range
    // vector and the output parent pointers, not an index into one
    // container.
    #[allow(clippy::needless_range_loop)]
    for e in 0..parent_len {
        // Gather this entry's candidate sources: the fixed list plus one
        // sorted row slice per probe column.
        slices.clear();
        if let Some(fixed) = &op.fixed {
            slices.push(fixed.as_slice());
        }
        for (p, pc) in op.probes.iter().enumerate() {
            let (a, b) = ranges[p][e];
            slices.push(&pc.index.rows[a as usize..b as usize]);
        }
        let cand: &[u32] = match slices.len() {
            0 => {
                // Scan: no bound column at all — the whole relation.
                if all_rows.is_empty() {
                    all_rows.extend(0..c.db.relation_len(op.rel) as u32);
                }
                &all_rows
            }
            1 => slices[0],
            _ => {
                // Sorted-merge intersection across all bound columns,
                // smallest slice first.
                slices.sort_by_key(|s| s.len());
                gallop_intersect(
                    slices[0],
                    slices[1],
                    &mut scratch_a,
                    &mut s.work.gallop_steps,
                );
                for next in &slices[2..] {
                    gallop_intersect(&scratch_a, next, &mut scratch_b, &mut s.work.gallop_steps);
                    std::mem::swap(&mut scratch_a, &mut scratch_b);
                }
                &scratch_a
            }
        };
        // Select: restriction membership and intra-atom repeated variables;
        // survivors append to the output block.
        'cand: for &row in cand {
            s.work.rows_examined += 1;
            s.depth_rows[depth] += 1;
            if op.skip_set && c.set.is_some_and(|set| set.contains(&annots[row as usize])) {
                continue;
            }
            for &(col, fcol) in &op.dup_cols {
                let r = row as usize;
                if c.db.column(op.rel, col)[r] != c.db.column(op.rel, fcol)[r] {
                    continue 'cand;
                }
            }
            s.work.selection_survivors += 1;
            // 8 bytes per survivor: the row id and its parent pointer. No
            // per-variable gather — bindings resolve through the spine.
            s.work.moved_bytes_id += 8;
            s.work.moved_bytes_value += VALUE_MOVE_WIDTH * op.new_vars;
            s.work.boundary_bytes += 8;
            chunk.rows.push(row);
            chunk.parent.push(e as u32);
            if chunk.len() == c.block_size && !emit(c, s, depth, path, &mut chunk) {
                return false;
            }
        }
    }
    if chunk.len() > 0 && !emit(c, s, depth, path, &mut chunk) {
        return false;
    }
    true
}

/// Pushes a filled block onto the spine and runs the rest of the pipeline
/// over it, reclaiming the buffers afterwards.
fn emit(
    c: &Compiled<'_>,
    s: &mut State<'_, '_>,
    depth: usize,
    path: &mut Vec<Block>,
    chunk: &mut Block,
) -> bool {
    s.work.blocks_emitted += 1;
    path.push(std::mem::take(chunk));
    let keep_going = step(c, s, depth + 1, path);
    *chunk = path.pop().expect("emitted block still on the spine");
    chunk.clear();
    keep_going
}

/// Materialize: resolve each final-block entry's head key and derivation
/// image through the spine and accumulate, interning each distinct image
/// once per block.
fn materialize(c: &Compiled<'_>, s: &mut State<'_, '_>, path: &[Block]) -> bool {
    let last = path.last().expect("non-empty plan");
    s.mono_cache.clear();
    let n = c.ops.len();
    for e in 0..last.len() {
        if s.derivations >= c.limits.max_derivations {
            return false;
        }
        s.key_buf.clear();
        for &(bd, bcol) in &c.head_binders {
            let mut ee = e;
            let mut lvl = n - 1;
            while lvl > bd {
                ee = path[lvl].parent[ee] as usize;
                lvl -= 1;
            }
            let row = path[bd].rows[ee] as usize;
            s.key_buf.push(c.db.column(c.ops[bd].rel, bcol)[row]);
        }
        s.work.moved_bytes_id += ID_WIDTH * s.key_buf.len() as u64;
        s.work.moved_bytes_value += VALUE_MOVE_WIDTH * c.q.head.len() as u64;
        // Late materialization: the head key and the provenance image are
        // the only columns ever gathered through the spine.
        s.work.boundary_bytes += ID_WIDTH * (s.key_buf.len() + n) as u64;
        let is_new = !s.out.contains_key(s.key_buf.as_slice());
        if is_new && s.out.len() >= c.limits.max_outputs {
            continue; // skip new outputs, keep accumulating existing ones
        }
        s.image_buf.clear();
        let mut ee = e;
        for lvl in (0..n).rev() {
            s.image_buf.push(c.annots[lvl][path[lvl].rows[ee] as usize]);
            ee = path[lvl].parent[ee] as usize;
        }
        let mono = match s.mono_cache.get(s.image_buf.as_slice()) {
            Some(&m) => m,
            None => {
                let m = s
                    .store
                    .intern_monomial(Monomial::from_annots(s.image_buf.iter().copied()));
                s.mono_cache.insert(s.image_buf.clone(), m);
                m
            }
        };
        if is_new {
            s.out.insert(s.key_buf.clone(), BTreeMap::new());
        }
        let terms = s
            .out
            .get_mut(s.key_buf.as_slice())
            .expect("accumulator entry just ensured");
        let coeff = terms.entry(mono).or_insert(0);
        *coeff = coeff.saturating_add(1);
        s.derivations += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallop_to_finds_lower_bounds() {
        let keys = [2u32, 4, 4, 8, 16, 32];
        let mut steps = 0;
        assert_eq!(gallop_to(&keys, 0, 1, &mut steps), 0);
        assert_eq!(gallop_to(&keys, 0, 4, &mut steps), 1);
        assert_eq!(gallop_to(&keys, 0, 5, &mut steps), 3);
        assert_eq!(gallop_to(&keys, 0, 33, &mut steps), 6);
        assert_eq!(gallop_to(&keys, 4, 16, &mut steps), 4);
        assert!(steps > 0);
    }

    #[test]
    fn gallop_intersect_matches_naive() {
        let a = [1u32, 3, 5, 7, 9, 100, 1000];
        let b = [0u32, 3, 4, 7, 10, 99, 100, 101, 1000, 1001];
        let mut out = Vec::new();
        let mut steps = 0;
        gallop_intersect(&a, &b, &mut out, &mut steps);
        assert_eq!(out, vec![3, 7, 100, 1000]);
        gallop_intersect(&b, &a, &mut out, &mut steps);
        assert_eq!(out, vec![3, 7, 100, 1000]);
        gallop_intersect(&a, &[], &mut out, &mut steps);
        assert!(out.is_empty());
    }

    #[test]
    fn sorted_col_groups_rows_by_value() {
        let col = [ValueId(7), ValueId(3), ValueId(7), ValueId(1), ValueId(3)];
        let idx = SortedCol::build(&col);
        assert_eq!(idx.keys, vec![ValueId(1), ValueId(3), ValueId(7)]);
        assert_eq!(idx.starts, vec![0, 1, 3, 5]);
        assert_eq!(idx.rows, vec![3, 1, 4, 0, 2]);
    }
}
