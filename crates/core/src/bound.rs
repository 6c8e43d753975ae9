//! Binding a K-example to its database and abstraction tree.

use crate::concretize::{connected_row_concretizations, RowConcretizations};
use crate::{AbsExample, AbsRow, Abstraction, CoreError, CoreResult, Sym};
use provabs_relational::{Database, KExample, ShardedMap};
use provabs_semiring::{AnnotId, PolyId, ProvStore};
use provabs_tree::{AbstractionTree, NodeId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A K-example bound to a compatible abstraction tree and the database its
/// annotations tag.
///
/// Precomputes the occurrence view of every row (Def. 3.1 indexes each
/// variable occurrence) and, per occurrence, the tree leaf and its maximal
/// lift (depth). All core algorithms operate on a `Bound`.
///
/// Binding interns each row's provenance in a [`ProvStore`]: two rows with
/// the same monomial share one [`PolyId`], and the memoized
/// abstraction application ([`Bound::apply_abstraction_cached`]) is keyed by
/// that id, so the search abstracts each distinct polynomial under each
/// distinct per-row lift vector exactly once for the bound's lifetime —
/// across buckets, worker threads and warm restarts alike. The memo dies
/// with the bound, which is what makes it sound: a database delta produces a
/// new `Bound`, so retired annotations can never be resolved through a stale
/// entry.
///
/// It likewise memoizes each abstracted row's connected concretizations
/// ([`Bound::row_concretizations_cached`]): symbols name nodes of this
/// bound's tree, and connectivity reads this bound's database, so the memo
/// is exact for the bound's lifetime and needs no versioning.
#[derive(Debug)]
pub struct Bound<'a> {
    /// The database whose tuples the example's annotations tag.
    pub db: &'a Database,
    /// The abstraction tree.
    pub tree: &'a AbstractionTree,
    /// The K-example.
    pub example: &'a KExample,
    /// Per row: the flat occurrence list (exponents expanded).
    occ_annots: Vec<Vec<AnnotId>>,
    /// Per row/occurrence: the tree leaf, when the annotation is in `L_T`.
    leaf_nodes: Vec<Vec<Option<NodeId>>>,
    /// Per row: the interned provenance polynomial (rows with equal
    /// monomials share one id).
    row_polys: Vec<PolyId>,
    /// Interns per-row lift vectors to fingerprints: probed by `&[u32]`
    /// (no allocation on the hot path), first insert wins so every equal
    /// vector resolves to one canonical id.
    lift_ids: ShardedMap<Vec<u32>, u32>,
    /// Fingerprint counter for `lift_ids` (racing workers may burn a value;
    /// ids stay unique, which is all the keying needs).
    next_lift: AtomicU32,
    /// Memoized abstraction application:
    /// `(row provenance, lift-vector fingerprint)` → the materialized
    /// symbol list. Sharded and `Send + Sync`, shared by every worker of
    /// the parallel search; first insert wins (values are deterministic, so
    /// racing workers converge on equal rows).
    abs_rows: ShardedMap<(PolyId, u32), Arc<Vec<Sym>>>,
    /// Memoized connected row concretizations:
    /// `(symbol list, concretization cap, connectivity filter)` → the
    /// uncut capped enumeration. First insert wins, like `abs_rows`.
    row_concs: ShardedMap<RowConcKey, Arc<RowConcretizations>>,
}

/// Key of the row-concretization memo.
type RowConcKey = (Arc<Vec<Sym>>, usize, bool);

impl<'a> Bound<'a> {
    /// Binds `example` to `tree` and `db`.
    ///
    /// Fails if the tree is incompatible (Def. 2.6), the example is empty,
    /// or an annotation does not tag a tuple.
    pub fn new(
        db: &'a Database,
        tree: &'a AbstractionTree,
        example: &'a KExample,
    ) -> CoreResult<Self> {
        if example.is_empty() {
            return Err(CoreError::EmptyExample);
        }
        if !tree.compatible_with(db) {
            return Err(CoreError::IncompatibleTree);
        }
        let mut occ_annots = Vec::with_capacity(example.len());
        let mut leaf_nodes = Vec::with_capacity(example.len());
        let mut store = ProvStore::new();
        let mut row_polys = Vec::with_capacity(example.len());
        for row in &example.rows {
            let occs = row.monomial.occurrences();
            for &a in &occs {
                if db.locate(a).is_none() {
                    return Err(CoreError::UnresolvedAnnotation(a));
                }
            }
            let leaves: Vec<Option<NodeId>> = occs
                .iter()
                .map(|&a| tree.node_by_label(a).filter(|&n| tree.is_leaf(n)))
                .collect();
            occ_annots.push(occs);
            leaf_nodes.push(leaves);
            let mono = store.intern_monomial(row.monomial.clone());
            row_polys.push(store.poly_of_monomial(mono));
        }
        Ok(Self {
            db,
            tree,
            example,
            occ_annots,
            leaf_nodes,
            row_polys,
            lift_ids: ShardedMap::default(),
            next_lift: AtomicU32::new(0),
            abs_rows: ShardedMap::default(),
            row_concs: ShardedMap::default(),
        })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.occ_annots.len()
    }

    /// The annotation occurrences of row `r`.
    pub fn row_occurrences(&self, r: usize) -> &[AnnotId] {
        &self.occ_annots[r]
    }

    /// The tree leaf of occurrence `(r, i)` (`None` when the annotation is
    /// not a leaf of the tree — such occurrences cannot be abstracted,
    /// Def. 3.1: `A_T(v) = v` for `v ∉ L_T`).
    pub fn leaf_node(&self, r: usize, i: usize) -> Option<NodeId> {
        self.leaf_nodes[r][i]
    }

    /// The maximal lift of occurrence `(r, i)`: the depth of its leaf (0
    /// when not abstractable).
    pub fn max_lift(&self, r: usize, i: usize) -> u32 {
        self.leaf_nodes[r][i].map_or(0, |n| self.tree.depth(n))
    }

    /// Flat list of all occurrences as `(row, index)` pairs.
    pub fn occurrences(&self) -> Vec<(usize, usize)> {
        self.occ_annots
            .iter()
            .enumerate()
            .flat_map(|(r, occs)| (0..occs.len()).map(move |i| (r, i)))
            .collect()
    }

    /// Total occurrence count.
    pub fn num_occurrences(&self) -> usize {
        self.occ_annots.iter().map(Vec::len).sum()
    }

    /// The fingerprint of a per-row lift vector: interned, probed by slice
    /// so a known vector costs no allocation.
    fn lift_fingerprint(&self, lifts: &[u32]) -> u32 {
        if let Some(id) = self.lift_ids.get_borrowed(lifts) {
            return id;
        }
        let id = self.next_lift.fetch_add(1, Ordering::Relaxed);
        self.lift_ids.insert(lifts.to_vec(), id)
    }

    /// [`connected_row_concretizations`] of `row` through the bound's memo:
    /// each distinct `(symbol list, max, connectivity_filter)` is enumerated
    /// once for the bound's lifetime. Returns the shared result and whether
    /// it was served from the memo.
    pub fn row_concretizations_cached(
        &self,
        row: &AbsRow,
        max: usize,
        connectivity_filter: bool,
    ) -> (Arc<RowConcretizations>, bool) {
        let key = (Arc::clone(&row.syms), max, connectivity_filter);
        if let Some(hit) = self.row_concs.get(&key) {
            return (hit, true);
        }
        let concs = connected_row_concretizations(self, row, max, connectivity_filter);
        (self.row_concs.insert(key, Arc::new(concs)), false)
    }

    /// Applies `abs` through the bound's abstraction-application memo.
    ///
    /// Bit-identical to [`Abstraction::apply`], but each distinct
    /// `(row provenance [`PolyId`], per-row lift vector)` pair — the
    /// abstraction fingerprint of a row — is materialized once per bound and
    /// shared (`Arc`) afterwards. Returns the abstracted example plus the
    /// `(misses, hits)` pair for this application: misses are rows actually
    /// re-abstracted, hits were answered in O(1) (the probe interns the lift
    /// vector by reference and looks up a `Copy` key — no allocation).
    pub fn apply_abstraction_cached(&self, abs: &Abstraction) -> (AbsExample, usize, usize) {
        let mut misses = 0usize;
        let mut hits = 0usize;
        let rows = (0..self.num_rows())
            .map(|r| {
                let key = (self.row_polys[r], self.lift_fingerprint(&abs.lifts[r]));
                let syms = match self.abs_rows.get(&key) {
                    Some(s) => {
                        hits += 1;
                        s
                    }
                    None => {
                        misses += 1;
                        // First insert wins: racing workers computed the
                        // same deterministic row and converge on one Arc.
                        self.abs_rows.insert(key, Arc::new(abs.row_syms(self, r)))
                    }
                };
                AbsRow {
                    output: self.example.rows[r].output.clone(),
                    syms,
                }
            })
            .collect();
        (AbsExample { rows }, misses, hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use provabs_relational::Tuple;
    use provabs_semiring::Monomial;

    #[test]
    fn binds_running_example() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.num_occurrences(), 6);
        // p1 is not in the Figure 3 tree: max lift 0. h1 is at depth 3.
        let p1 = fx.db.annotations().get("p1").unwrap();
        let h1 = fx.db.annotations().get("h1").unwrap();
        let row0 = b.row_occurrences(0).to_vec();
        let p1_idx = row0.iter().position(|&a| a == p1).unwrap();
        let h1_idx = row0.iter().position(|&a| a == h1).unwrap();
        assert_eq!(b.max_lift(0, p1_idx), 0);
        assert_eq!(b.max_lift(0, h1_idx), 3);
        assert_eq!(b.occurrences().len(), 6);
    }

    #[test]
    fn rejects_empty_example() {
        let fx = running_example();
        let empty = KExample::default();
        assert_eq!(
            Bound::new(&fx.db, &fx.tree, &empty).unwrap_err(),
            CoreError::EmptyExample
        );
    }

    #[test]
    fn rejects_unresolved_annotations() {
        let fx = running_example();
        let mut db = fx.db.clone();
        let ghost = db.intern_label("ghost");
        let ex = KExample::new([(Tuple::parse(&["1"]), Monomial::from_annots([ghost]))]);
        assert_eq!(
            Bound::new(&db, &fx.tree, &ex).unwrap_err(),
            CoreError::UnresolvedAnnotation(ghost)
        );
    }
}
