//! Abstraction functions and abstracted K-examples (§3.1).

use crate::Bound;
use provabs_relational::Tuple;
use provabs_semiring::{AnnotId, AnnotRegistry};
use provabs_tree::NodeId;
use std::sync::Arc;

/// A symbol of an abstracted provenance expression: either an original
/// annotation or an inner tree node standing for all leaves below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// An unabstracted annotation occurrence.
    Leaf(AnnotId),
    /// An abstracted occurrence: the tree node replacing the annotation.
    Abs(NodeId),
}

/// One row of an abstracted K-example.
///
/// The symbol list is shared (`Arc`): the search's memoized abstraction
/// application hands the same materialized row to every candidate that
/// abstracts the row's provenance identically, so cloning an `AbsRow` is a
/// reference bump, not a symbol-vector copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsRow {
    /// The (unchanged) output tuple.
    pub output: Tuple,
    /// The abstracted occurrence list.
    pub syms: Arc<Vec<Sym>>,
}

/// An abstracted K-example `Ã = A_T(Ex)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsExample {
    /// The rows, parallel to the original example.
    pub rows: Vec<AbsRow>,
}

impl AbsExample {
    /// Renders the abstracted example with labels from `reg` and the bound
    /// tree (for display in examples and the user-study harness).
    pub fn to_string_with(&self, bound: &Bound<'_>, reg: &AnnotRegistry) -> String {
        self.rows
            .iter()
            .map(|r| {
                let prov = r
                    .syms
                    .iter()
                    .map(|s| match s {
                        Sym::Leaf(a) => reg.name(*a).to_owned(),
                        Sym::Abs(n) => reg.name(bound.tree.label(*n)).to_owned(),
                    })
                    .collect::<Vec<_>>()
                    .join("*");
                format!("{}  |  {}", r.output, prov)
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// An occurrence-level abstraction function `A_T` over a [`Bound`]
/// K-example (Def. 3.1 with explicit occurrence indexes).
///
/// `lifts[r][i]` is the number of tree edges occurrence `(r, i)` is lifted:
/// 0 keeps the annotation, `d` replaces it by its `d`-th ancestor. Lifting a
/// non-leaf occurrence is invalid (checked by [`Abstraction::validate`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Abstraction {
    /// Per-row, per-occurrence lifts.
    pub lifts: Vec<Vec<u32>>,
}

impl Abstraction {
    /// The identity abstraction of `bound` (no occurrence lifted).
    pub fn identity(bound: &Bound<'_>) -> Self {
        Self {
            lifts: (0..bound.num_rows())
                .map(|r| vec![0; bound.row_occurrences(r).len()])
                .collect(),
        }
    }

    /// Checks shape and lift bounds against `bound`.
    pub fn validate(&self, bound: &Bound<'_>) -> bool {
        self.lifts.len() == bound.num_rows()
            && self.lifts.iter().enumerate().all(|(r, row)| {
                row.len() == bound.row_occurrences(r).len()
                    && row
                        .iter()
                        .enumerate()
                        .all(|(i, &l)| l <= bound.max_lift(r, i))
            })
    }

    /// The abstraction-tree edges used: `Σ lifts` (the paper's "optimal
    /// abstraction size" metric, Figures 10/13/15).
    pub fn edges_used(&self) -> u32 {
        self.lifts.iter().flatten().sum()
    }

    /// The target of occurrence `(r, i)`: `None` when kept, `Some(node)`
    /// when abstracted to an ancestor.
    pub fn target(&self, bound: &Bound<'_>, r: usize, i: usize) -> Option<NodeId> {
        let lift = self.lifts[r][i];
        if lift == 0 {
            return None;
        }
        let leaf = bound.leaf_node(r, i)?;
        bound.tree.ancestor_at(leaf, lift)
    }

    /// Materializes the symbol list of row `r` (uncached reference path —
    /// the memoized twin is [`Bound::apply_abstraction_cached`]).
    pub(crate) fn row_syms(&self, bound: &Bound<'_>, r: usize) -> Vec<Sym> {
        bound
            .row_occurrences(r)
            .iter()
            .enumerate()
            .map(|(i, &a)| match self.target(bound, r, i) {
                Some(node) => Sym::Abs(node),
                None => Sym::Leaf(a),
            })
            .collect()
    }

    /// Applies the abstraction, producing `A_T(Ex)`.
    pub fn apply(&self, bound: &Bound<'_>) -> AbsExample {
        AbsExample {
            rows: (0..bound.num_rows())
                .map(|r| AbsRow {
                    output: bound.example.rows[r].output.clone(),
                    syms: Arc::new(self.row_syms(bound, r)),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use crate::Bound;

    fn lift_named(bound: &Bound<'_>, abs: &mut Abstraction, name: &str, lift: u32) {
        let id = bound.db.annotations().get(name).unwrap();
        for r in 0..bound.num_rows() {
            for (i, &a) in bound.row_occurrences(r).iter().enumerate() {
                if a == id {
                    abs.lifts[r][i] = lift;
                }
            }
        }
    }

    #[test]
    fn identity_keeps_everything() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = Abstraction::identity(&b);
        assert!(abs.validate(&b));
        assert_eq!(abs.edges_used(), 0);
        let ae = abs.apply(&b);
        assert!(ae
            .rows
            .iter()
            .flat_map(|r| r.syms.iter())
            .all(|s| matches!(s, Sym::Leaf(_))));
    }

    #[test]
    fn a1t_produces_exabs1() {
        // A1_T: h1 -> Facebook, h2 -> LinkedIn (Figure 4 / Figure 5).
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let mut abs = Abstraction::identity(&b);
        lift_named(&b, &mut abs, "h1", 1);
        lift_named(&b, &mut abs, "h2", 1);
        assert!(abs.validate(&b));
        assert_eq!(abs.edges_used(), 2);
        let ae = abs.apply(&b);
        let shown = ae.to_string_with(&b, fx.db.annotations());
        assert!(shown.contains("Facebook_src"), "{shown}");
        assert!(shown.contains("LinkedIn_src"), "{shown}");
        assert!(shown.contains("p1"), "{shown}");
    }

    #[test]
    fn lift_bounds_enforced() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let mut abs = Abstraction::identity(&b);
        // p1 is not in the tree: any positive lift is invalid.
        lift_named(&b, &mut abs, "p1", 1);
        assert!(!abs.validate(&b));
        let mut abs2 = Abstraction::identity(&b);
        // h1 sits at depth 3; lift 4 exceeds the chain.
        lift_named(&b, &mut abs2, "h1", 4);
        assert!(!abs2.validate(&b));
    }

    #[test]
    fn target_resolves_ancestors() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let mut abs = Abstraction::identity(&b);
        lift_named(&b, &mut abs, "h1", 2);
        let h1 = fx.db.annotations().get("h1").unwrap();
        let (r, i) = (0..b.num_rows())
            .flat_map(|r| (0..b.row_occurrences(r).len()).map(move |i| (r, i)))
            .find(|&(r, i)| b.row_occurrences(r)[i] == h1)
            .unwrap();
        let node = abs.target(&b, r, i).unwrap();
        assert_eq!(
            fx.tree.label(node),
            fx.db.annotations().get("SocialNetwork").unwrap()
        );
    }
}
