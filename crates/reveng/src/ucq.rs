//! UCQ and aggregate-query extensions (Table 4, orange/green cells).
//!
//! A UCQ is consistent w.r.t. a K-example if each row is derived by some
//! disjunct: we enumerate set partitions of the rows, find the consistent-CQ
//! frontier of each group, and take one CQ per group. The paper's
//! adjustments are honoured: a UCQ is *disconnected* if it contains a
//! disconnected CQ (line 13), and *trivial* UCQs — those with a
//! variable-free disjunct, e.g. the plain union of the ground rows — can be
//! excluded (line 20 / Def. 3.10 adjustment).

use crate::cim::minimal_queries;
use crate::containment::{contained_in, ContainmentMode};
use crate::most_specific::{find_consistent_queries, RevOptions};
use provabs_relational::{ConcreteRow, Cq, Tuple, Ucq};
use provabs_semiring::{AggOp, AggValue};
use std::collections::BTreeMap;

/// Options for [`find_consistent_ucqs`].
#[derive(Debug, Clone)]
pub struct UcqOptions {
    /// CQ-level options applied per row group.
    pub rev: RevOptions,
    /// Drop UCQs containing a variable-free disjunct (the paper's trivial
    /// queries).
    pub exclude_trivial: bool,
    /// Cap on the number of UCQs materialized.
    pub max_ucqs: usize,
}

impl Default for UcqOptions {
    fn default() -> Self {
        Self {
            rev: RevOptions::default(),
            exclude_trivial: true,
            max_ucqs: 10_000,
        }
    }
}

/// The consistent UCQs of a set of rows (see [`find_consistent_ucqs`]).
#[derive(Debug, Clone)]
pub struct UcqFrontier {
    /// `(key, UCQ)` pairs, unique by key and sorted by it.
    pub ucqs: Vec<(String, Ucq)>,
    /// Whether nothing was cut short. `false` when some block's CQ frontier
    /// hit [`RevOptions::max_alignments`], or when [`UcqOptions::max_ucqs`]
    /// stopped the enumeration with UCQs or partitions left unvisited: the
    /// list may then miss UCQs.
    pub complete: bool,
}

/// Enumerates consistent UCQs: one consistent CQ per block of a set
/// partition of the rows. Each UCQ comes with its key — the sorted canonical
/// keys of its disjuncts joined by `|` — and the list is deduplicated and
/// sorted by that key.
pub fn find_consistent_ucqs(rows: &[ConcreteRow<'_>], opts: &UcqOptions) -> UcqFrontier {
    let mut out = Partitions {
        ucqs: BTreeMap::new(),
        complete: true,
    };
    if !rows.is_empty() {
        // Enumerate set partitions of row indexes via restricted growth
        // strings.
        let mut rgs = vec![0usize; rows.len()];
        partition_rec(rows, &mut rgs, 1, 1, opts, &mut out);
    }
    UcqFrontier {
        ucqs: out.ucqs.into_iter().collect(),
        complete: out.complete,
    }
}

/// The UCQs found so far and whether a cap has cut the search.
struct Partitions {
    ucqs: BTreeMap<String, Ucq>,
    complete: bool,
}

fn partition_rec(
    rows: &[ConcreteRow<'_>],
    rgs: &mut Vec<usize>,
    i: usize,
    max_block: usize,
    opts: &UcqOptions,
    out: &mut Partitions,
) {
    if out.ucqs.len() >= opts.max_ucqs {
        out.complete = false;
        return;
    }
    if i == rgs.len() {
        realize_partition(rows, rgs, max_block, opts, out);
        return;
    }
    for b in 0..=max_block {
        rgs[i] = b;
        partition_rec(rows, rgs, i + 1, max_block.max(b + 1), opts, out);
    }
}

/// A frontier query with its canonical key.
type KeyedCq = (String, Cq);

fn realize_partition(
    rows: &[ConcreteRow<'_>],
    rgs: &[usize],
    num_blocks: usize,
    opts: &UcqOptions,
    out: &mut Partitions,
) {
    // Keyed frontier per block.
    let mut frontiers: Vec<Vec<KeyedCq>> = Vec::with_capacity(num_blocks);
    for b in 0..num_blocks {
        let group: Vec<ConcreteRow<'_>> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| rgs[*i] == b)
            .map(|(_, r)| r.clone())
            .collect();
        let found = find_consistent_queries(&group, &opts.rev);
        out.complete &= found.complete;
        let mut frontier = found.queries;
        if opts.exclude_trivial {
            frontier.retain(|(_, q)| q.has_variable());
        }
        if frontier.is_empty() {
            return; // this partition admits no consistent UCQ
        }
        frontiers.push(frontier);
    }
    // One CQ per block (cartesian product).
    let mut choice: Vec<&KeyedCq> = frontiers.iter().map(|f| &f[0]).collect();
    product(&frontiers, 0, &mut choice, &mut |disjuncts| {
        // Dedup disjuncts within the UCQ and key by the sorted keys the
        // frontiers carry.
        let mut keyed: Vec<&KeyedCq> = disjuncts.to_vec();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.dedup_by(|a, b| a.0 == b.0);
        let key = keyed
            .iter()
            .map(|(k, _)| k.as_str())
            .collect::<Vec<_>>()
            .join("|");
        if out.ucqs.contains_key(&key) {
            return true;
        }
        if out.ucqs.len() >= opts.max_ucqs {
            out.complete = false;
            return false;
        }
        out.ucqs.insert(
            key,
            Ucq {
                disjuncts: keyed.into_iter().map(|(_, q)| q.clone()).collect(),
            },
        );
        true
    });
}

/// Calls `f` on every choice of one query per frontier, until it returns
/// `false`; returns whether every choice was visited.
fn product<'a>(
    frontiers: &'a [Vec<KeyedCq>],
    i: usize,
    choice: &mut Vec<&'a KeyedCq>,
    f: &mut impl FnMut(&[&'a KeyedCq]) -> bool,
) -> bool {
    if i == frontiers.len() {
        return f(choice);
    }
    for q in &frontiers[i] {
        choice[i] = q;
        if !product(frontiers, i + 1, choice, f) {
            return false;
        }
    }
    true
}

/// UCQ containment `u1 ⊆ u2`: every disjunct of `u1` is contained in some
/// disjunct of `u2` (exact for classical semantics — Sagiv–Yannakakis; an
/// approximation the paper also relies on for the annotated orders).
pub fn ucq_contained_in(u1: &Ucq, u2: &Ucq, mode: ContainmentMode) -> bool {
    u1.disjuncts
        .iter()
        .all(|d1| u2.disjuncts.iter().any(|d2| contained_in(d1, d2, mode)))
}

/// The CIM UCQs of a consistent-UCQ frontier: connected (no disconnected
/// disjunct), inclusion-minimal, non-trivial handled upstream.
pub fn cim_ucqs(frontier: &[Ucq], mode: ContainmentMode) -> Vec<Ucq> {
    // One representative per equivalence class.
    let mut reps: Vec<Ucq> = Vec::new();
    for u in frontier {
        if !reps
            .iter()
            .any(|r| ucq_contained_in(r, u, mode) && ucq_contained_in(u, r, mode))
        {
            reps.push(u.clone());
        }
    }
    reps.iter()
        .filter(|u| {
            !reps
                .iter()
                .any(|other| ucq_contained_in(other, u, mode) && !ucq_contained_in(u, other, mode))
        })
        .filter(|u| u.is_connected())
        .cloned()
        .collect()
}

/// An aggregate conjunctive query: a CQ whose last head column is aggregated
/// with `op` (§3.4 — aggregation over the head variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCq {
    /// The underlying CQ; the final head term carries the aggregated value.
    pub cq: Cq,
    /// The aggregation monoid.
    pub op: AggOp,
}

/// Finds consistent aggregate queries for grouped aggregate outputs: each
/// `(group, agg)` pair contributes one row per tensor term, with the output
/// extended by the tensor's value column; the CQ machinery then requires the
/// head to also produce the aggregated attribute.
pub fn find_consistent_agg_queries<'db>(
    groups: &[(Tuple, AggValue)],
    resolve: impl Fn(&Tuple, &provabs_semiring::Monomial) -> Option<ConcreteRow<'db>>,
    opts: &RevOptions,
) -> Vec<AggCq> {
    if groups.is_empty() {
        return Vec::new();
    }
    let agg_op = groups[0].1.op;
    let mut rows: Vec<ConcreteRow<'db>> = Vec::new();
    for (group, agg) in groups {
        for term in &agg.terms {
            let extended: Tuple = group
                .values()
                .iter()
                .cloned()
                .chain([provabs_relational::Value::Int(term.value)])
                .collect();
            match resolve(&extended, &term.monomial) {
                Some(row) => rows.push(row),
                None => return Vec::new(),
            }
        }
    }
    find_consistent_queries(&rows, opts)
        .queries
        .into_iter()
        .map(|(_, cq)| AggCq { cq, op: agg_op })
        .collect()
}

/// Convenience: minimal CQs of a frontier (re-export for Algorithm 1's
/// UCQ/AGG variants).
pub fn minimal_cqs(frontier: &[Cq], mode: ContainmentMode) -> Vec<Cq> {
    minimal_queries(frontier, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::{Database, KExample};
    use provabs_semiring::Monomial;

    fn db2() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        let s = db.add_relation("S", &["a"]);
        db.insert_str(r, "r1", &["1", "7"]);
        db.insert_str(r, "r2", &["2", "7"]);
        db.insert_str(s, "s1", &["3"]);
        db.insert_str(s, "s2", &["4"]);
        db.build_indexes();
        db
    }

    fn rows<'db>(db: &'db Database, pairs: &[(&str, &[&str])]) -> Vec<ConcreteRow<'db>> {
        KExample::new(pairs.iter().map(|(o, annots)| {
            (
                Tuple::parse(&[o]),
                Monomial::from_annots(annots.iter().map(|a| db.annotations().get(a).unwrap())),
            )
        }))
        .resolve(db)
        .unwrap()
    }

    #[test]
    fn heterogeneous_rows_need_a_union() {
        let db = db2();
        // Rows from different relations: no CQ is consistent, but the UCQ
        // Q(x) :- R(x, y) ∪ Q(x) :- S(x) is.
        let rs = rows(
            &db,
            &[
                ("1", &["r1"]),
                ("2", &["r2"]),
                ("3", &["s1"]),
                ("4", &["s2"]),
            ],
        );
        assert!(find_consistent_queries(&rs, &RevOptions::default()).is_empty());
        let found = find_consistent_ucqs(&rs, &UcqOptions::default());
        assert!(found.complete);
        let ucqs = found.ucqs;
        assert!(!ucqs.is_empty());
        assert!(ucqs.iter().any(|(_, u)| u.disjuncts.len() == 2));
        // All surviving UCQs are non-trivial.
        assert!(ucqs.iter().all(|(_, u)| u.is_nontrivial()));
        // Each key is the sorted disjunct keys joined by `|`.
        for (key, u) in &ucqs {
            let mut keys: Vec<String> = u.disjuncts.iter().map(crate::canonical_key).collect();
            keys.sort();
            assert_eq!(*key, keys.join("|"));
        }
    }

    #[test]
    fn exclude_trivial_removes_ground_unions() {
        let db = db2();
        // A single row admits only the ground query as a CQ; with
        // exclude_trivial the partition has no realization.
        let rs = rows(&db, &[("1", &["r1"])]);
        let with = find_consistent_ucqs(&rs, &UcqOptions::default()).ucqs;
        assert!(with.is_empty());
        let without = find_consistent_ucqs(
            &rs,
            &UcqOptions {
                exclude_trivial: false,
                ..Default::default()
            },
        )
        .ucqs;
        assert!(!without.is_empty());
    }

    #[test]
    fn ucq_cap_marks_the_frontier_incomplete() {
        let db = db2();
        // Two R rows: one CQ for both, or one ground CQ per row.
        let rs = rows(&db, &[("1", &["r1"]), ("2", &["r2"])]);
        let opts = UcqOptions {
            exclude_trivial: false,
            ..Default::default()
        };
        let all = find_consistent_ucqs(&rs, &opts);
        assert!(all.complete);
        assert!(all.ucqs.len() > 1);
        // Exactly enough room: every UCQ fits.
        let full = UcqOptions {
            max_ucqs: all.ucqs.len(),
            ..opts.clone()
        };
        let exact = find_consistent_ucqs(&rs, &full);
        assert_eq!(exact.ucqs, all.ucqs);
        assert!(exact.complete);
        // A cap below the UCQ count keeps a prefix and reports the cut.
        let capped = find_consistent_ucqs(
            &rs,
            &UcqOptions {
                max_ucqs: 1,
                ..opts
            },
        );
        assert!(!capped.complete);
        assert_eq!(capped.ucqs.len(), 1);
        assert!(all.ucqs.contains(&capped.ucqs[0]));
    }

    #[test]
    fn ucq_containment_disjunctwise() {
        let db = db2();
        let schema = db.schema();
        let narrow = provabs_relational::parse_cq("Q(x) :- R(x, 7)", schema).unwrap();
        let wide = provabs_relational::parse_cq("Q(x) :- R(x, y)", schema).unwrap();
        let u1 = Ucq::single(narrow);
        let u2 = Ucq::single(wide);
        assert!(ucq_contained_in(&u1, &u2, ContainmentMode::Bijective));
        assert!(!ucq_contained_in(&u2, &u1, ContainmentMode::Bijective));
        let cim = cim_ucqs(&[u1.clone(), u2], ContainmentMode::Bijective);
        assert_eq!(cim.len(), 1);
        assert_eq!(cim[0], u1);
    }

    #[test]
    fn aggregate_queries_from_tensors() {
        let mut db = Database::new();
        let person = db.add_relation("Person", &["pid", "age"]);
        db.insert_str(person, "p1", &["1", "27"]);
        db.insert_str(person, "p2", &["2", "31"]);
        db.build_indexes();
        // MAX(age) over all persons, one group: tensors (p1)⊗27 + (p2)⊗31.
        let mut agg = AggValue::new(AggOp::Max);
        agg.push(
            Monomial::from_annots([db.annotations().get("p1").unwrap()]),
            27,
        );
        agg.push(
            Monomial::from_annots([db.annotations().get("p2").unwrap()]),
            31,
        );
        let groups = vec![(Tuple::new([]), agg)];
        let found = find_consistent_agg_queries(
            &groups,
            |output, monomial| ConcreteRow::resolve(&db, output, &monomial.occurrences()),
            &RevOptions::default(),
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].op, AggOp::Max);
        // Head should expose the age column as a variable.
        assert_eq!(found[0].cq.head.len(), 1);
        assert!(found[0].cq.head[0].as_var().is_some());
    }
}
