//! Concretization sets of abstracted K-examples (Def. 3.3, Prop. 3.5).

use crate::{AbsRow, Bound, Sym};
use provabs_relational::{monomial_connected, Database, ValueId};
use provabs_semiring::AnnotId;

/// The number of concretizations of an abstracted row: the product over its
/// symbols of `|L_T(sym)|` (Prop. 3.5 item 1, per row), saturating.
pub fn row_concretization_count(bound: &Bound<'_>, row: &AbsRow) -> u128 {
    row.syms.iter().fold(1, |count, s| match s {
        Sym::Leaf(_) => count,
        Sym::Abs(n) => count.saturating_mul(u128::from(bound.tree.leaf_count(*n))),
    })
}

/// The number of concretizations of a whole abstracted example
/// (Prop. 3.5 item 1), saturating.
pub fn concretization_count(bound: &Bound<'_>, rows: &[AbsRow]) -> u128 {
    rows.iter().fold(1, |count, row| {
        count.saturating_mul(row_concretization_count(bound, row))
    })
}

/// Enumerates the concretizations of one abstracted row: every assignment of
/// a leaf under each abstracted symbol. Calls `visit` with the concrete
/// occurrence list; stops and returns `false` once `visit` returns `false`
/// or `max` rows were produced (returns `true` iff enumeration completed).
pub fn for_each_row_concretization(
    bound: &Bound<'_>,
    row: &AbsRow,
    max: usize,
    mut visit: impl FnMut(&[AnnotId]) -> bool,
) -> bool {
    let choices = choices(bound, row);
    let mut idx = vec![0usize; choices.len()];
    let mut current: Vec<AnnotId> = choices.iter().map(|c| c[0]).collect();
    for _ in 0..max {
        if !visit(&current) {
            return false;
        }
        if !advance(&choices, &mut idx, &mut current) {
            return true;
        }
    }
    false
}

/// The candidate leaves of each symbol of `row`.
fn choices<'r>(bound: &Bound<'r>, row: &'r AbsRow) -> Vec<&'r [AnnotId]> {
    row.syms
        .iter()
        .map(|s| match s {
            Sym::Leaf(a) => std::slice::from_ref(a),
            Sym::Abs(n) => bound.tree.leaves_under(*n),
        })
        .collect()
}

/// Advances the odometer `idx` over `choices`, the last position turning
/// fastest, and keeps `current[p]` at `choices[p][idx[p]]`; `false` once
/// every assignment was visited.
fn advance(choices: &[&[AnnotId]], idx: &mut [usize], current: &mut [AnnotId]) -> bool {
    let Some(p) = (0..idx.len())
        .rev()
        .find(|&p| idx[p] + 1 < choices[p].len())
    else {
        return false;
    };
    idx[p] += 1;
    current[p] = choices[p][idx[p]];
    for q in p + 1..idx.len() {
        idx[q] = 0;
        current[q] = choices[q][0];
    }
    true
}

/// The concretizations of one abstracted row that survive the connectivity
/// filter, as one capped enumeration produced them (see
/// [`connected_row_concretizations`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowConcretizations {
    /// The kept occurrence lists, concatenated (each `width` long).
    occs: Vec<AnnotId>,
    /// Each kept list's position in the unfiltered enumeration.
    positions: Vec<usize>,
    width: usize,
    /// Whether the enumeration ran to its end (`false` when the cap cut it).
    pub complete: bool,
    /// Concretizations visited, kept or not (at most the cap).
    pub produced: usize,
}

impl RowConcretizations {
    /// Number of kept concretizations.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether no concretization was kept.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The `k`-th kept occurrence list.
    pub(crate) fn get(&self, k: usize) -> &[AnnotId] {
        &self.occs[k * self.width..(k + 1) * self.width]
    }

    /// The position of the `k`-th kept list in the unfiltered enumeration
    /// of [`for_each_row_concretization`].
    pub(crate) fn position(&self, k: usize) -> usize {
        self.positions[k]
    }

    /// The kept occurrence lists, in enumeration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[AnnotId]> + '_ {
        (0..self.len()).map(|k| self.get(k))
    }
}

/// The concretizations of `row` that pass the connectivity filter, in the
/// order of [`for_each_row_concretization`], from an enumeration capped at
/// `max` concretizations. Equal to that enumerator followed by
/// [`monomial_connected`] on every occurrence list (every list is kept when
/// `connectivity_filter` is off), but a candidate leaf's sorted value-id
/// set is resolved once per call, on the first verdict that reads it, and a
/// verdict is a bitmask search over those sets that allocates nothing. The
/// odometer turns the last symbol fastest, so a capped enumeration never
/// resolves most leaves of the other symbols. Rows of more than 64 symbols
/// fall back to [`monomial_connected`].
pub fn connected_row_concretizations(
    bound: &Bound<'_>,
    row: &AbsRow,
    max: usize,
    connectivity_filter: bool,
) -> RowConcretizations {
    let choices = choices(bound, row);
    let width = choices.len();
    let mut out = RowConcretizations {
        occs: Vec::new(),
        positions: Vec::new(),
        width,
        complete: true,
        produced: 0,
    };
    // One- and zero-symbol rows are connected by definition.
    let check = connectivity_filter && width > 1;
    let mut sets = (check && width <= 64).then(|| ValueSets::new(bound.db, &choices));
    let mut idx = vec![0usize; width];
    let mut current: Vec<AnnotId> = choices.iter().map(|c| c[0]).collect();
    loop {
        if out.produced >= max {
            out.complete = false;
            return out;
        }
        let keep = match &mut sets {
            Some(sets) => sets.connected(&idx),
            None => !check || monomial_connected(bound.db, &current),
        };
        if keep {
            out.occs.extend_from_slice(&current);
            out.positions.push(out.produced);
        }
        out.produced += 1;
        if !advance(&choices, &mut idx, &mut current) {
            return out;
        }
    }
}

/// The sorted distinct value ids of the candidate leaves of a row, per
/// symbol position, in one flat buffer, each resolved on first use.
struct ValueSets<'a> {
    db: &'a Database,
    choices: &'a [&'a [AnnotId]],
    ids: Vec<ValueId>,
    /// Per `(position, choice)`: the state of its set.
    spans: Vec<Span>,
    /// Per position: the index of its first choice in `spans`.
    base: Vec<usize>,
}

/// Where a candidate leaf's value-id set lives in [`ValueSets::ids`].
#[derive(Clone, Copy)]
enum Span {
    /// Not read yet.
    Unresolved,
    /// The annotation tags no tuple.
    Missing,
    /// The `ids` range of its set.
    At(u32, u32),
}

impl<'a> ValueSets<'a> {
    fn new(db: &'a Database, choices: &'a [&'a [AnnotId]]) -> Self {
        let mut base = Vec::with_capacity(choices.len());
        let mut n = 0;
        for c in choices {
            base.push(n);
            n += c.len();
        }
        Self {
            db,
            choices,
            ids: Vec::new(),
            spans: vec![Span::Unresolved; n],
            base,
        }
    }

    /// The value-id range of choice `c` at position `p`, resolving it on
    /// first use; `None` when the annotation tags no tuple.
    fn span(&mut self, p: usize, c: usize) -> Option<(u32, u32)> {
        let slot = self.base[p] + c;
        if let Span::Unresolved = self.spans[slot] {
            self.spans[slot] = match self.db.locate(self.choices[p][c]) {
                Some(loc) => {
                    let start = self.ids.len() as u32;
                    self.ids.extend(self.db.row_value_ids(loc));
                    Span::At(start, self.ids.len() as u32)
                }
                None => Span::Missing,
            };
        }
        match self.spans[slot] {
            Span::At(start, end) => Some((start, end)),
            _ => None,
        }
    }

    /// Whether the concretization choosing `idx[p]` at every position `p`
    /// is connected: every occurrence resolves and the share-a-value graph
    /// over the occurrences is connected (`idx.len()` is 2..=64).
    fn connected(&mut self, idx: &[usize]) -> bool {
        let mut spans = [(0u32, 0u32); 64];
        for (p, &c) in idx.iter().enumerate() {
            match self.span(p, c) {
                Some(span) => spans[p] = span,
                None => return false,
            }
        }
        let set = |p: usize| &self.ids[spans[p].0 as usize..spans[p].1 as usize];
        let all = u64::MAX >> (64 - idx.len());
        let (mut reached, mut todo) = (1u64, 1u64);
        while todo != 0 {
            let i = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let mut rest = all & !reached;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if share(set(i), set(j)) {
                    reached |= 1 << j;
                    todo |= 1 << j;
                }
            }
            if reached == all {
                return true;
            }
        }
        false
    }
}

/// Whether two sorted id lists intersect (a merge probe).
fn share(a: &[ValueId], b: &[ValueId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use crate::{Abstraction, Bound};

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

    #[test]
    fn exabs1_has_15_concretizations() {
        // Example 3.15: |C(Exabs1)| = 5 * 3 = 15.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        assert_eq!(concretization_count(&b, &rows), 15);
        let seen: usize = rows
            .iter()
            .map(|row| connected_row_concretizations(&b, row, usize::MAX, false).len())
            .product();
        assert_eq!(seen, 15);
    }

    #[test]
    fn exabs2_has_20_concretizations() {
        // A2_T: i1 -> WikiLeaks (4 leaves), i2 -> Facebook (5 leaves) = 20.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("i1", 1), ("i2", 1)]);
        let rows = abs.apply(&b).rows;
        assert_eq!(concretization_count(&b, &rows), 20);
    }

    #[test]
    fn identity_has_single_concretization() {
        // Prop. 3.5 item 2, lower bound.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = Abstraction::identity(&b);
        let rows = abs.apply(&b).rows;
        assert_eq!(concretization_count(&b, &rows), 1);
        for (r, row) in rows.iter().enumerate() {
            let seen = connected_row_concretizations(&b, row, usize::MAX, false);
            assert_eq!(seen.len(), 1);
            assert_eq!(seen.get(0), b.row_occurrences(r));
        }
    }

    #[test]
    fn full_abstraction_hits_upper_bound() {
        // Prop. 3.5 item 2, upper bound: lifting every tree occurrence to
        // the root gives |L_T|^n concretizations for the lifted ones.
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let mut abs = Abstraction::identity(&b);
        let mut lifted = 0u32;
        for r in 0..b.num_rows() {
            for i in 0..b.row_occurrences(r).len() {
                let max = b.max_lift(r, i);
                if max > 0 {
                    abs.lifts[r][i] = max;
                    lifted += 1;
                }
            }
        }
        // Four tree occurrences (h1, i1, h2, i2), 12 leaves each.
        assert_eq!(lifted, 4);
        let rows = abs.apply(&b).rows;
        assert_eq!(concretization_count(&b, &rows), 12u128.pow(4));
    }

    #[test]
    fn enumeration_cap_aborts() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let rows = abs.apply(&b).rows;
        let row = rows
            .iter()
            .find(|row| row_concretization_count(&b, row) > 3)
            .unwrap();
        let mut seen = 0;
        let complete = for_each_row_concretization(&b, row, 3, |_| {
            seen += 1;
            true
        });
        assert!(!complete);
        assert_eq!(seen, 3);
        let capped = connected_row_concretizations(&b, row, 3, false);
        assert!(!capped.complete);
        assert_eq!((capped.produced, capped.len()), (3, 3));
        assert_eq!(capped.position(2), 2);
    }
}
