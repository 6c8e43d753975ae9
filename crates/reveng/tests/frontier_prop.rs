//! The consistent-query frontier over random concrete K-examples: 1–3 rows
//! with self-joins, repeated constants, values shared across atoms and
//! output values that no tuple carries, under N[X], B[X], Why(X) and
//! PosBool(X), with and without `connected_only`, at small alignment caps.
//!
//! The oracle is the owned-value construction: every occurrence decoded to
//! its `Tuple`, the alignments enumerated by the per-level recursion, the
//! most-specific query of each alignment built over `Vec<Value>` vectors
//! and canonicalized, and the disconnected queries dropped afterwards.
//! `find_consistent_queries` decides each alignment on value ids and builds
//! only the queries it keeps, so it must match the oracle byte for byte,
//! `complete` flag included.

use proptest::prelude::*;
use provabs_relational::{Atom, ConcreteRow, Cq, Database, RelId, Term, Tuple, Value, VarId};
use provabs_reveng::{
    canonical_form, find_consistent_queries, Frontier, RevOptions, MAX_EXPANSION_EXTRA,
};
use provabs_semiring::{AnnotId, SemiringKind};
use std::collections::{BTreeMap, HashMap, HashSet};

mod oracle {
    use super::*;

    /// A row with every occurrence decoded: output, then annotation,
    /// relation and tuple per occurrence.
    #[derive(Clone)]
    pub struct Row {
        pub output: Tuple,
        pub occurrences: Vec<(AnnotId, RelId, Tuple)>,
    }

    pub fn decode(db: &Database, output: &Tuple, occs: &[AnnotId]) -> Row {
        Row {
            output: output.clone(),
            occurrences: occs
                .iter()
                .map(|&a| {
                    let (rel, t) = db.tuple_by_annot(a).unwrap();
                    (a, rel, t)
                })
                .collect(),
        }
    }

    pub fn find_consistent_queries(rows: &[Row], opts: &RevOptions) -> Frontier {
        let mut out: BTreeMap<String, Cq> = BTreeMap::new();
        if rows.is_empty() {
            return Frontier::default();
        }
        let arity = rows[0].output.arity();
        if rows.iter().any(|r| r.output.arity() != arity) {
            return Frontier::default();
        }
        let mut complete = true;
        if opts.semiring.keeps_exponents() {
            complete = collect_from_rows(rows, opts, &mut out);
        } else {
            let supports: Vec<Row> = rows.iter().map(support_row).collect();
            let min_degree = supports
                .iter()
                .map(|r| r.occurrences.len())
                .max()
                .unwrap_or(0);
            for extra in 0..=MAX_EXPANSION_EXTRA {
                let d = min_degree + extra;
                let per_row: Vec<Vec<Row>> = supports.iter().map(|r| expansions(r, d)).collect();
                if per_row.iter().any(Vec::is_empty) {
                    continue;
                }
                let mut choice: Vec<Row> = per_row.iter().map(|v| v[0].clone()).collect();
                expand_product(&per_row, 0, &mut choice, &mut |expanded| {
                    complete &= collect_from_rows(expanded, opts, &mut out);
                });
            }
        }
        let mut queries: Vec<(String, Cq)> = out.into_iter().collect();
        if opts.connected_only {
            queries.retain(|(_, q)| q.is_connected());
        }
        Frontier { queries, complete }
    }

    fn expand_product(
        per_row: &[Vec<Row>],
        i: usize,
        choice: &mut Vec<Row>,
        f: &mut impl FnMut(&[Row]),
    ) {
        if i == per_row.len() {
            f(choice);
            return;
        }
        for opt in &per_row[i] {
            choice[i] = opt.clone();
            expand_product(per_row, i + 1, choice, f);
        }
    }

    fn support_row(row: &Row) -> Row {
        let mut seen = HashSet::new();
        Row {
            output: row.output.clone(),
            occurrences: row
                .occurrences
                .iter()
                .filter(|(a, _, _)| seen.insert(*a))
                .cloned()
                .collect(),
        }
    }

    /// Every way of giving each occurrence a multiplicity ≥ 1, summing to `d`.
    fn expansions(row: &Row, d: usize) -> Vec<Row> {
        let s = row.occurrences.len();
        if d < s || s == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut mults = vec![1usize; s];
        distribute(d - s, 0, &mut mults, &mut |m| {
            let mut occs = Vec::new();
            for (i, &mult) in m.iter().enumerate() {
                for _ in 0..mult {
                    occs.push(row.occurrences[i].clone());
                }
            }
            out.push(Row {
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

    fn collect_from_rows(rows: &[Row], opts: &RevOptions, out: &mut BTreeMap<String, Cq>) -> bool {
        if !rows_alignable(rows) {
            return true;
        }
        for_each_alignment(rows, opts.max_alignments, |per_row| {
            if let Some(q) = most_specific_query(rows, per_row) {
                let (key, canon) = canonical_form(&q);
                out.entry(key).or_insert(canon);
            }
        })
        .is_some()
    }

    fn relation_groups(row: &Row) -> HashMap<RelId, Vec<usize>> {
        let mut m: HashMap<RelId, Vec<usize>> = HashMap::new();
        for (i, (_, rel, _)) in row.occurrences.iter().enumerate() {
            m.entry(*rel).or_default().push(i);
        }
        m
    }

    fn rows_alignable(rows: &[Row]) -> bool {
        let sig0 = relation_groups(&rows[0]);
        rows.iter().skip(1).all(|r| {
            let sig = relation_groups(r);
            sig.len() == sig0.len()
                && sig0
                    .iter()
                    .all(|(rel, g)| sig.get(rel).is_some_and(|h| h.len() == g.len()))
        })
    }

    fn for_each_alignment(
        rows: &[Row],
        max: usize,
        mut visit: impl FnMut(&[Vec<usize>]),
    ) -> Option<usize> {
        let n_slots = rows[0].occurrences.len();
        let mut per_row: Vec<Vec<usize>> = vec![vec![0; n_slots]; rows.len()];
        per_row[0] = (0..n_slots).collect();
        let mut count = 0usize;
        assign_row(rows, 1, &mut per_row, &mut count, max, &mut visit).then_some(count)
    }

    fn assign_row(
        rows: &[Row],
        j: usize,
        per_row: &mut Vec<Vec<usize>>,
        count: &mut usize,
        max: usize,
        visit: &mut impl FnMut(&[Vec<usize>]),
    ) -> bool {
        if j == rows.len() {
            if *count >= max {
                return false;
            }
            *count += 1;
            visit(per_row);
            return true;
        }
        let groups0 = relation_groups(&rows[0]);
        let groups_j = relation_groups(&rows[j]);
        let mut rels: Vec<RelId> = groups0.keys().copied().collect();
        rels.sort_unstable();
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = rels
            .iter()
            .map(|r| (groups0[r].clone(), groups_j[r].clone()))
            .collect();
        permute_relations(rows, j, &pairs, 0, per_row, count, max, visit)
    }

    #[allow(clippy::too_many_arguments)]
    fn permute_relations(
        rows: &[Row],
        j: usize,
        pairs: &[(Vec<usize>, Vec<usize>)],
        g: usize,
        per_row: &mut Vec<Vec<usize>>,
        count: &mut usize,
        max: usize,
        visit: &mut impl FnMut(&[Vec<usize>]),
    ) -> bool {
        if g == pairs.len() {
            return assign_row(rows, j + 1, per_row, count, max, visit);
        }
        let (slots, occs) = &pairs[g];
        let mut perm = occs.clone();
        permute_rec(&mut perm, 0, &mut |p| {
            for (si, &slot) in slots.iter().enumerate() {
                per_row[j][slot] = p[si];
            }
            permute_relations(rows, j, pairs, g + 1, per_row, count, max, visit)
        })
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

    /// The most-specific query of one alignment over owned value vectors.
    fn most_specific_query(rows: &[Row], per_row: &[Vec<usize>]) -> Option<Cq> {
        let n_rows = rows.len();
        let mut vectors: HashMap<Vec<Value>, Term> = HashMap::new();
        let mut next_var = 0u32;
        let mut body = Vec::new();
        for (slot, occ) in rows[0].occurrences.iter().enumerate() {
            let mut terms = Vec::new();
            for pos in 0..occ.2.arity() {
                let vec: Vec<Value> = (0..n_rows)
                    .map(|j| rows[j].occurrences[per_row[j][slot]].2[pos].clone())
                    .collect();
                let term = if vec.iter().all(|v| v == &vec[0]) {
                    Term::Const(vec[0].clone())
                } else {
                    vectors
                        .entry(vec)
                        .or_insert_with(|| {
                            next_var += 1;
                            Term::Var(VarId(next_var - 1))
                        })
                        .clone()
                };
                terms.push(term);
            }
            body.push(Atom { rel: occ.1, terms });
        }
        let mut head = Vec::new();
        for col in 0..rows[0].output.arity() {
            let vec: Vec<Value> = (0..n_rows).map(|j| rows[j].output[col].clone()).collect();
            if vec.iter().all(|v| v == &vec[0]) {
                head.push(Term::Const(vec[0].clone()));
            } else {
                head.push(vectors.get(&vec)?.clone());
            }
        }
        Some(Cq::new(head, body))
    }
}

/// SplitMix64 over a case seed: the instance generator's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A constant of the small shared domain: four integers and two strings,
/// so constants repeat within and across tuples.
fn domain_value(rng: &mut Rng) -> String {
    ["0", "1", "2", "3", "x", "y"][rng.below(6)].to_string()
}

/// Three relations (arities 2, 3, 1) of six tuples each over the shared
/// domain.
fn database(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    for (name, cols) in [
        ("R", &["a", "b"][..]),
        ("S", &["a", "b", "c"]),
        ("T", &["a"]),
    ] {
        let rel = db.add_relation(name, cols);
        for t in 0..6 {
            let fields: Vec<String> = cols.iter().map(|_| domain_value(rng)).collect();
            let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
            db.insert_str(rel, &format!("{name}{t}"), &fields);
        }
    }
    db.build_indexes();
    db
}

/// 1–3 rows sharing a signature of 1–4 occurrences (self-joins likely, a
/// tuple may repeat within a row); now and then one row's signature is
/// perturbed so no alignment exists. Output columns copy a value of the
/// row's tuples, or hold a value no tuple carries.
fn example(db: &Database, rng: &mut Rng) -> Vec<(Tuple, Vec<AnnotId>)> {
    let n_rows = 1 + rng.below(3);
    let signature: Vec<&str> = (0..1 + rng.below(4))
        .map(|_| ["R", "S", "T"][rng.below(3)])
        .collect();
    let out_arity = rng.below(3);
    let perturbed = (rng.below(8) == 0).then(|| rng.below(n_rows));
    (0..n_rows)
        .map(|j| {
            let mut sig = signature.clone();
            if perturbed == Some(j) {
                sig[0] = if sig[0] == "T" { "R" } else { "T" };
            }
            let occs: Vec<AnnotId> = sig
                .iter()
                .map(|rel| {
                    let label = format!("{rel}{}", rng.below(6));
                    db.annotations().get(&label).unwrap()
                })
                .collect();
            let output: Vec<Value> = (0..out_arity)
                .map(|_| {
                    if rng.below(5) == 0 {
                        Value::Int(100 + rng.below(2) as i64)
                    } else {
                        let (_, t) = db.tuple_by_annot(occs[rng.below(occs.len())]).unwrap();
                        t[rng.below(t.arity())].clone()
                    }
                })
                .collect();
            (Tuple::new(output), occs)
        })
        .collect()
}

const SEMIRINGS: [SemiringKind; 4] = [
    SemiringKind::NX,
    SemiringKind::BX,
    SemiringKind::Why,
    SemiringKind::PosBool,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn frontier_matches_the_owned_value_oracle(
        seed in 0u64..u64::MAX,
        semiring in 0usize..4,
        connected_only in any::<bool>(),
        cap in 0usize..10,
    ) {
        let mut rng = Rng(seed);
        let db = database(&mut rng);
        let example = example(&db, &mut rng);
        let opts = RevOptions {
            semiring: SEMIRINGS[semiring],
            // Cap 0 stands for an uncapped enumeration.
            max_alignments: if cap == 0 { 100_000 } else { cap },
            connected_only,
        };
        let rows: Vec<ConcreteRow<'_>> = example
            .iter()
            .map(|(output, occs)| ConcreteRow::resolve(&db, output, occs).unwrap())
            .collect();
        let reference: Vec<oracle::Row> = example
            .iter()
            .map(|(output, occs)| oracle::decode(&db, output, occs))
            .collect();
        let got = find_consistent_queries(&rows, &opts);
        let want = oracle::find_consistent_queries(&reference, &opts);
        prop_assert_eq!(got, want, "seed {} opts {:?}", seed, opts);
    }
}

/// The generator reaches the cases the property is about: some frontiers
/// are cut by the cap, some have several queries, some drop disconnected
/// ones, some rows admit no alignment.
#[test]
fn generator_covers_the_interesting_cases() {
    let (mut cut, mut several, mut dropped, mut unalignable) = (0, 0, 0, 0);
    for seed in 0..400u64 {
        let mut rng = Rng(seed);
        let db = database(&mut rng);
        let example = example(&db, &mut rng);
        let rows: Vec<ConcreteRow<'_>> = example
            .iter()
            .map(|(output, occs)| ConcreteRow::resolve(&db, output, occs).unwrap())
            .collect();
        let all = find_consistent_queries(&rows, &RevOptions::default());
        let connected = find_consistent_queries(
            &rows,
            &RevOptions {
                connected_only: true,
                ..RevOptions::default()
            },
        );
        let capped = find_consistent_queries(
            &rows,
            &RevOptions {
                max_alignments: 1,
                ..RevOptions::default()
            },
        );
        cut += usize::from(!capped.complete);
        several += usize::from(all.len() > 1);
        dropped += usize::from(connected.len() < all.len());
        let sig = |r: &ConcreteRow<'_>| {
            let mut rels: Vec<RelId> = (0..r.occurrences.len()).map(|i| r.rel(i)).collect();
            rels.sort_unstable();
            rels
        };
        unalignable += usize::from(rows.iter().any(|r| sig(r) != sig(&rows[0])));
    }
    assert!(cut > 20, "cut {cut}");
    assert!(several > 20, "several {several}");
    assert!(dropped > 20, "dropped {dropped}");
    assert!(unalignable > 10, "unalignable {unalignable}");
}
