//! Alignments between the annotation occurrences of K-example rows.
//!
//! A consistent CQ must have, for every row, a derivation whose atom→tuple
//! image matches the row's monomial; the derivations of all rows therefore
//! induce a relation-respecting bijection between the occurrences of the
//! first row (the "atom slots") and the occurrences of every other row.
//! This module enumerates those bijections — the generalization of [23]'s
//! bipartite matchings between the first two rows to `n` rows.

use provabs_relational::{ConcreteRow, RelId};

/// Per relation of the rows' common signature, in `RelId` order: each row's
/// occurrence indexes of that relation, in occurrence order. `None` when the
/// rows do not share one relation-occurrence signature (same relations with
/// the same multiplicities) — a necessary condition for any alignment, and
/// hence any consistent CQ, to exist.
fn relation_groups(rows: &[ConcreteRow<'_>]) -> Option<Vec<Vec<Vec<usize>>>> {
    let first = rows.first()?;
    let mut rels: Vec<RelId> = (0..first.occurrences.len()).map(|i| first.rel(i)).collect();
    rels.sort_unstable();
    rels.dedup();
    let mut groups = vec![vec![Vec::new(); rows.len()]; rels.len()];
    for (j, row) in rows.iter().enumerate() {
        for i in 0..row.occurrences.len() {
            let g = rels.binary_search(&row.rel(i)).ok()?;
            groups[g][j].push(i);
        }
    }
    groups
        .iter()
        .all(|g| g.iter().all(|occs| occs.len() == g[0].len()))
        .then_some(groups)
}

/// Enumerates every alignment of `rows`, invoking `visit` for each, up to
/// `max_alignments` total. An alignment is given as `per_row`:
/// `per_row[j][slot]` is the index of the occurrence of row `j` assigned to
/// atom slot `slot`, and row 0 is the identity. Returns the number of
/// alignments visited, or `None` if the cap was hit (enumeration
/// incomplete).
///
/// Rows are fixed in order; within a row, relations in `RelId` order, and
/// each relation's bijections in swap-permutation order.
pub fn for_each_alignment(
    rows: &[ConcreteRow<'_>],
    max_alignments: usize,
    visit: impl FnMut(&[Vec<usize>]),
) -> Option<usize> {
    let Some(groups) = relation_groups(rows) else {
        return Some(0);
    };
    let n_slots = rows[0].occurrences.len();
    let mut per_row: Vec<Vec<usize>> = vec![vec![0; n_slots]; rows.len()];
    per_row[0] = (0..n_slots).collect();
    // One stage per (row > 0, relation): its permutation buffer, which
    // `permute_rec` leaves as it found it.
    let mut stages: Vec<Stage> = (1..rows.len())
        .flat_map(|j| {
            groups.iter().enumerate().map(move |(g, by_row)| Stage {
                row: j,
                group: g,
                perm: by_row[j].clone(),
            })
        })
        .collect();
    let mut walk = Walk {
        slots: groups
            .into_iter()
            .map(|mut by_row| by_row.swap_remove(0))
            .collect(),
        per_row,
        count: 0,
        max: max_alignments,
        visit,
    };
    walk.stage(&mut stages).then_some(walk.count)
}

/// One level of the alignment recursion: the bijection of one relation's
/// occurrences in one row.
struct Stage {
    row: usize,
    group: usize,
    perm: Vec<usize>,
}

/// The alignment recursion's state, shared by every stage.
struct Walk<F> {
    /// Per relation: row 0's occurrence indexes, i.e. the atom slots.
    slots: Vec<Vec<usize>>,
    per_row: Vec<Vec<usize>>,
    count: usize,
    max: usize,
    visit: F,
}

impl<F: FnMut(&[Vec<usize>])> Walk<F> {
    /// Fixes the bijections of `stages` in turn, visiting each complete
    /// alignment; returns false once the cap is exceeded.
    fn stage(&mut self, stages: &mut [Stage]) -> bool {
        let Some((stage, rest)) = stages.split_first_mut() else {
            if self.count >= self.max {
                return false;
            }
            self.count += 1;
            (self.visit)(&self.per_row);
            return true;
        };
        let (row, group) = (stage.row, stage.group);
        permute_rec(&mut stage.perm, 0, &mut |p| {
            for (&slot, &occ) in self.slots[group].iter().zip(p) {
                self.per_row[row][slot] = occ;
            }
            self.stage(rest)
        })
    }
}

fn permute_rec(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if k == v.len() {
        return f(v);
    }
    for i in k..v.len() {
        v.swap(k, i);
        if !permute_rec(v, k + 1, f) {
            v.swap(k, i);
            return false;
        }
        v.swap(k, i);
    }
    true
}

/// Enumerates the degree-`d` expansions of a row whose occurrence list is a
/// *support set* (each occurrence exactly once): every way of assigning
/// multiplicities ≥ 1 summing to `d`. Used for the exponent-dropping
/// semirings (`Why(X)`, `Trio(X)`, `PosBool(X)`), where a query atom may map
/// repeatedly onto the same tuple (Table 4, red cell: "expanding the
/// provenance as much as needed").
pub fn expansions_of_row<'db>(row: &ConcreteRow<'db>, d: usize) -> Vec<ConcreteRow<'db>> {
    let s = row.occurrences.len();
    if d < s || s == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut mults = vec![1usize; s];
    distribute(d - s, 0, &mut mults, &mut |m| {
        let mut occs = Vec::with_capacity(d);
        for (i, &mult) in m.iter().enumerate() {
            for _ in 0..mult {
                occs.push(row.occurrences[i]);
            }
        }
        out.push(ConcreteRow {
            db: row.db,
            output: row.output.clone(),
            occurrences: occs,
        });
    });
    out
}

fn distribute(extra: usize, i: usize, mults: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
    if i == mults.len() - 1 {
        mults[i] += extra;
        f(mults);
        mults[i] -= extra;
        return;
    }
    for take in 0..=extra {
        mults[i] += take;
        distribute(extra - take, i + 1, mults, f);
        mults[i] -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::{Database, Tuple};

    /// Three relations of arity one, each holding eight tuples.
    fn db() -> Database {
        let mut db = Database::new();
        for rel in ["R0", "R1", "R2"] {
            let r = db.add_relation(rel, &["a"]);
            for t in 0..8 {
                db.insert_str(r, &format!("{rel}_{t}"), &[&t.to_string()]);
            }
        }
        db.build_indexes();
        db
    }

    /// A row whose `i`-th occurrence is a distinct tuple of `R{rels[i]}`.
    fn row<'db>(db: &'db Database, rels: &[u16]) -> ConcreteRow<'db> {
        let occs: Vec<_> = rels
            .iter()
            .enumerate()
            .map(|(i, r)| db.annotations().get(&format!("R{r}_{i}")).unwrap())
            .collect();
        ConcreteRow::resolve(db, &Tuple::parse(&["1"]), &occs).unwrap()
    }

    fn alignable(rows: &[ConcreteRow<'_>]) -> bool {
        relation_groups(rows).is_some()
    }

    #[test]
    fn alignable_checks_signature() {
        let db = db();
        assert!(alignable(&[row(&db, &[0, 1, 2]), row(&db, &[0, 1, 2])]));
        assert!(alignable(&[row(&db, &[0, 0, 1]), row(&db, &[1, 0, 0])]));
        assert!(!alignable(&[row(&db, &[0, 1]), row(&db, &[0, 0])]));
        assert!(!alignable(&[row(&db, &[0]), row(&db, &[0, 0])]));
        assert!(!alignable(&[]));
    }

    #[test]
    fn distinct_relations_have_unique_alignment() {
        let db = db();
        let rows = vec![row(&db, &[0, 1, 2]), row(&db, &[0, 1, 2])];
        let mut seen = 0;
        let n = for_each_alignment(&rows, 100, |_| seen += 1).unwrap();
        assert_eq!(n, 1);
        assert_eq!(seen, 1);
    }

    #[test]
    fn self_joins_multiply_alignments() {
        let db = db();
        // Two rows, each with 3 occurrences of the same relation: 3! = 6.
        let rows = vec![row(&db, &[2, 2, 2]), row(&db, &[2, 2, 2])];
        let n = for_each_alignment(&rows, 100, |_| {}).unwrap();
        assert_eq!(n, 6);
        // Three rows: 6 * 6 = 36.
        let rows3 = vec![
            row(&db, &[2, 2, 2]),
            row(&db, &[2, 2, 2]),
            row(&db, &[2, 2, 2]),
        ];
        let n3 = for_each_alignment(&rows3, 1000, |_| {}).unwrap();
        assert_eq!(n3, 36);
    }

    #[test]
    fn visit_order_is_row_then_relation_then_swap_permutation() {
        let db = db();
        // Row 1 has two R0 and two R1 occurrences: relation R0 varies
        // slowest, each in swap-permutation order.
        let rows = vec![row(&db, &[0, 1, 0, 1]), row(&db, &[1, 0, 1, 0])];
        let mut seen = Vec::new();
        for_each_alignment(&rows, 100, |per_row| seen.push(per_row[1].clone())).unwrap();
        assert_eq!(
            seen,
            vec![
                vec![1, 0, 3, 2],
                vec![1, 2, 3, 0],
                vec![3, 0, 1, 2],
                vec![3, 2, 1, 0],
            ]
        );
    }

    #[test]
    fn cap_stops_enumeration() {
        let db = db();
        let rows = vec![row(&db, &[2, 2, 2]), row(&db, &[2, 2, 2])];
        let mut seen = 0;
        let n = for_each_alignment(&rows, 2, |_| seen += 1);
        assert_eq!(n, None);
        assert_eq!(seen, 2);
    }

    #[test]
    fn alignment_row0_is_identity() {
        let db = db();
        let rows = vec![row(&db, &[0, 1]), row(&db, &[1, 0])];
        let mut alignments = Vec::new();
        for_each_alignment(&rows, 10, |per_row| alignments.push(per_row.to_vec())).unwrap();
        assert_eq!(alignments.len(), 1);
        assert_eq!(alignments[0][0], vec![0, 1]);
        // Row 1's occurrence of relation 0 is at index 1.
        assert_eq!(alignments[0][1], vec![1, 0]);
    }

    #[test]
    fn expansions_enumerate_compositions() {
        let db = db();
        let r = row(&db, &[0, 1]);
        // degree 2 = support: single expansion.
        assert_eq!(expansions_of_row(&r, 2).len(), 1);
        // degree 3: one extra unit on either occurrence: 2 expansions.
        let e3 = expansions_of_row(&r, 3);
        assert_eq!(e3.len(), 2);
        assert!(e3.iter().all(|x| x.occurrences.len() == 3));
        // degree below support: none.
        assert!(expansions_of_row(&r, 1).is_empty());
    }
}
