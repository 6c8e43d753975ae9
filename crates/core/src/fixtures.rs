//! The paper's running example (Figures 1–6, Tables 1 and 3) as a reusable
//! fixture for tests, examples, and benchmarks.

use provabs_relational::{parse_cq, Cq, Database, Evaluator, KExample};
use provabs_tree::{AbstractionTree, TreeBuilder};

/// The running example of the paper: the Figure 1 database, the Figure 3
/// abstraction tree, the Table 1 queries, and the Figure 2 K-examples.
#[derive(Debug)]
pub struct RunningExample {
    /// Figure 1: Interests / Hobbies / Person with annotations `i1..i6`,
    /// `h1..h6`, `p1..p2`. Inner tree labels are interned in the same
    /// registry.
    pub db: Database,
    /// Figure 3: the abstraction tree over a subset of the annotations.
    pub tree: AbstractionTree,
    /// Table 1: `Qreal` — people who like dancing and music.
    pub qreal: Cq,
    /// Table 1: `Qfalse1` — trips instead of dancing.
    pub qfalse1: Cq,
    /// Table 1: `Qfalse2` — parties instead of music.
    pub qfalse2: Cq,
    /// Table 1: `Qgeneral` — the interest constant generalized.
    pub qgeneral: Cq,
    /// Figure 2a: the output of `Qreal` with provenance.
    pub exreal: KExample,
}

/// Builds the running example.
pub fn running_example() -> RunningExample {
    let mut db = Database::new();
    let interests = db.add_relation("Interests", &["pid", "interest", "source"]);
    let hobbies = db.add_relation("Hobbies", &["pid", "hobby", "source"]);
    let persons = db.add_relation("Person", &["pid", "name", "age"]);
    for (a, f) in [
        ("i1", ["1", "Music", "WikiLeaks"]),
        ("i2", ["2", "Music", "Facebook"]),
        ("i3", ["3", "Music", "LinkedIn"]),
        ("i4", ["1", "Parties", "WikiLeaks"]),
        ("i5", ["2", "Parties", "Facebook"]),
        ("i6", ["4", "Movies", "WikiLeaks"]),
    ] {
        db.insert_str(interests, a, &f);
    }
    for (a, f) in [
        ("h1", ["1", "Dance", "Facebook"]),
        ("h2", ["2", "Dance", "LinkedIn"]),
        ("h3", ["4", "Dance", "Facebook"]),
        ("h4", ["1", "Trips", "Facebook"]),
        ("h5", ["2", "Trips", "LinkedIn"]),
        ("h6", ["3", "Trips", "WikiLeaks"]),
    ] {
        db.insert_str(hobbies, a, &f);
    }
    db.insert_str(persons, "p1", &["1", "James T", "27"]);
    db.insert_str(persons, "p2", &["2", "Brenda P", "31"]);
    db.build_indexes();

    // Figure 3 tree; inner labels share the database registry so that
    // compatibility (Def. 2.6) is meaningful.
    let root = db.intern_label("*");
    let wiki = db.intern_label("WikiLeaks_src");
    let social = db.intern_label("SocialNetwork");
    let linkedin = db.intern_label("LinkedIn_src");
    let facebook = db.intern_label("Facebook_src");
    let leaf = |db: &Database, n: &str| db.annotations().get(n).unwrap();
    let mut b = TreeBuilder::new(root);
    b.add_child(root, wiki);
    b.add_child(root, social);
    for n in ["i6", "i4", "i1", "h6"] {
        b.add_child(wiki, leaf(&db, n));
    }
    b.add_child(social, linkedin);
    b.add_child(social, facebook);
    for n in ["i3", "h5", "h2"] {
        b.add_child(linkedin, leaf(&db, n));
    }
    for n in ["i5", "i2", "h4", "h3", "h1"] {
        b.add_child(facebook, leaf(&db, n));
    }
    let tree = b.build();
    debug_assert!(tree.compatible_with(&db));

    let schema = db.schema();
    let qreal = parse_cq(
        "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Music', src2)",
        schema,
    )
    .unwrap();
    let qfalse1 = parse_cq(
        "Q(id) :- Person(id, name, age), Hobbies(id, 'Trips', src1), Interests(id, 'Music', src2)",
        schema,
    )
    .unwrap();
    let qfalse2 = parse_cq(
        "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Parties', src2)",
        schema,
    )
    .unwrap();
    let qgeneral = parse_cq(
        "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, interest, src2)",
        schema,
    )
    .unwrap();
    let exreal = KExample::from_krelation(&Evaluator::new(&db).eval_cq(&qreal).0, usize::MAX);
    RunningExample {
        db,
        tree,
        qreal,
        qfalse1,
        qfalse2,
        qgeneral,
        exreal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exreal_matches_figure_2a() {
        let fx = running_example();
        assert_eq!(fx.exreal.len(), 2);
        let reg = fx.db.annotations();
        let rendered = fx.exreal.to_string_with(reg);
        assert!(rendered.contains("(1)"));
        assert!(rendered.contains("(2)"));
        // Row 1 provenance mentions p1, h1, i1.
        for a in ["p1", "h1", "i1"] {
            assert!(fx.exreal.rows[0].monomial.contains(reg.get(a).unwrap()));
        }
    }

    #[test]
    fn tree_matches_figure_3_counts() {
        let fx = running_example();
        assert_eq!(fx.tree.num_leaves(), 12);
        let fb = fx
            .tree
            .node_by_label(fx.db.annotations().get("Facebook_src").unwrap())
            .unwrap();
        assert_eq!(fx.tree.leaf_count(fb), 5);
    }

    #[test]
    fn fixture_round_trips_through_the_value_interner() {
        // The fixture inserts owned tuples; storage dictionary-encodes
        // them. Decoding every tagged tuple and looking each value back up
        // must land on the exact stored column ids — the concretize /
        // reverse-engineering layers rely on this boundary decode being
        // lossless.
        let fx = running_example();
        let ex = &fx.exreal;
        let mut decoded = Vec::new();
        for row in &ex.rows {
            for a in row.monomial.occurrences() {
                let loc = fx.db.locate(a).expect("example annotations resolve");
                fx.db.decode_row_into(loc.rel, loc.row, &mut decoded);
                for (col, v) in decoded.iter().enumerate() {
                    let id = fx
                        .db
                        .interner()
                        .lookup(v)
                        .expect("decoded value is interned");
                    assert_eq!(fx.db.column(loc.rel, col)[loc.row], id);
                }
            }
        }
        // Resolved rows read the same ids and decode the same tuples.
        let resolved = ex.resolve(&fx.db).expect("resolvable");
        for row in &resolved {
            for (i, &(a, loc)) in row.occurrences.iter().enumerate() {
                assert_eq!(fx.db.locate(a), Some(loc));
                let (rel, t) = fx.db.tuple_by_annot(a).unwrap();
                assert_eq!(row.rel(i), rel);
                assert_eq!(row.arity(i), t.arity());
                for col in 0..t.arity() {
                    assert_eq!(row.value(i, col), &t[col]);
                }
            }
        }
    }

    #[test]
    fn queries_parse_with_expected_shapes() {
        let fx = running_example();
        for q in [&fx.qreal, &fx.qfalse1, &fx.qfalse2, &fx.qgeneral] {
            assert_eq!(q.body.len(), 3);
            assert!(q.is_connected());
        }
    }
}
