//! A miniature, deterministic TPC-H dbgen and the §5.1 TPC-H workload.
//!
//! All eight relations are generated with the standard key structure
//! (region ← nation ← supplier/customer, part/supplier ← partsupp,
//! customer ← orders ← lineitem) and the categorical columns the CQ
//! workload filters on. Numeric-heavy columns that no CQ touches are
//! trimmed. Dates are bucketed to years (CQs have no range predicates).

use provabs_relational::{parse_cq, Database, RelId, Schema, Value, ValueId};
use provabs_semiring::AnnotId;
use provabs_tree::{balanced_tree, AbstractionTree, BalancedTreeSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Workload;

/// Scale and seed of the generator.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Target number of lineitem rows (all other relations scale off it,
    /// mirroring dbgen's ratios).
    pub lineitem_rows: usize,
    /// RNG seed; equal configs generate identical databases.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            lineitem_rows: 3_000,
            seed: 42,
        }
    }
}

/// Relation ids of a generated TPC-H database.
#[derive(Debug, Clone, Copy)]
pub struct TpchRelations {
    /// `Region(rk, name)`.
    pub region: RelId,
    /// `Nation(nk, name, rk)`.
    pub nation: RelId,
    /// `Supplier(sk, name, nk)`.
    pub supplier: RelId,
    /// `Customer(ck, name, nk, mktsegment)`.
    pub customer: RelId,
    /// `Part(pk, name, brand, type)`.
    pub part: RelId,
    /// `Partsupp(pk, sk, availqty)`.
    pub partsupp: RelId,
    /// `Orders(ok, ck, orderstatus, orderyear, orderpriority)`.
    pub orders: RelId,
    /// `Lineitem(ok, pk, sk, linenumber, quantity, returnflag, shipmode)`.
    pub lineitem: RelId,
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const STATUSES: [&str; 3] = ["F", "O", "P"];
const RETURNFLAGS: [&str; 3] = ["R", "A", "N"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#55"];
const TYPES: [&str; 6] = [
    "ECONOMY ANODIZED STEEL",
    "STANDARD POLISHED TIN",
    "SMALL PLATED COPPER",
    "MEDIUM BRUSHED NICKEL",
    "PROMO BURNISHED BRASS",
    "LARGE BRUSHED STEEL",
];

/// Interns a string pool once, so the categorical columns below emit
/// pre-interned [`ValueId`]s instead of formatting and re-parsing strings.
fn intern_pool(db: &mut Database, pool: &[&str]) -> Vec<ValueId> {
    pool.iter()
        .map(|s| db.intern_value(Value::str(s)))
        .collect()
}

/// Generates the database. Row counts (relative to `lineitem_rows = L`):
/// region 5, nation 25, supplier `L/100`, customer `L/15`, part `L/20`,
/// partsupp `2·parts`, orders `L/4`, lineitem `L`.
///
/// Tuples are emitted straight into the columnar storage as interned ids:
/// categorical pools are interned once up front, keys intern through the
/// dictionary (`intern_value` memoizes), and no intermediate string is
/// formatted or re-parsed. The produced database is value-for-value
/// identical to the old `insert_str` path (same RNG draw sequence, same
/// decoded tuples), so the checked-in bench baselines stay valid.
pub fn generate(cfg: &TpchConfig) -> (Database, TpchRelations) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();
    let rels = TpchRelations {
        region: db.add_relation("Region", &["rk", "rname"]),
        nation: db.add_relation("Nation", &["nk", "nname", "rk"]),
        supplier: db.add_relation("Supplier", &["sk", "sname", "nk"]),
        customer: db.add_relation("Customer", &["ck", "cname", "nk", "mktsegment"]),
        part: db.add_relation("Part", &["pk", "pname", "brand", "ptype"]),
        partsupp: db.add_relation("Partsupp", &["pk", "sk", "availqty"]),
        orders: db.add_relation("Orders", &["ok", "ck", "ostatus", "oyear", "opriority"]),
        lineitem: db.add_relation(
            "Lineitem",
            &["ok", "pk", "sk", "lnum", "qty", "rflag", "shipmode"],
        ),
    };
    let l = cfg.lineitem_rows.max(40);
    let n_supp = (l / 100).max(4);
    let n_cust = (l / 15).max(8);
    let n_part = (l / 20).max(8);
    let n_ord = (l / 4).max(8);

    let regions = intern_pool(&mut db, &REGIONS);
    let segments = intern_pool(&mut db, &SEGMENTS);
    let priorities = intern_pool(&mut db, &PRIORITIES);
    let statuses = intern_pool(&mut db, &STATUSES);
    let returnflags = intern_pool(&mut db, &RETURNFLAGS);
    let shipmodes = intern_pool(&mut db, &SHIPMODES);
    let brands = intern_pool(&mut db, &BRANDS);
    let types = intern_pool(&mut db, &TYPES);
    // Key spaces are dense 0..n integers: intern each once up front so the
    // hot loops below index a slice instead of probing the dictionary.
    let max_key = n_supp.max(n_cust).max(n_part).max(n_ord).max(25);
    let ints: Vec<ValueId> = (0..max_key as i64)
        .map(|i| db.intern_value(Value::int(i)))
        .collect();

    for (i, &name) in regions.iter().enumerate() {
        db.insert_ids(rels.region, &format!("rg{i}"), &[ints[i], name]);
    }
    for i in 0..25usize {
        let rk = i % 5;
        let nname = db.intern_value(Value::str(&format!("NATION{i:02}")));
        db.insert_ids(rels.nation, &format!("na{i}"), &[ints[i], nname, ints[rk]]);
    }
    for i in 0..n_supp {
        let nk = rng.random_range(0..25usize);
        let sname = db.intern_value(Value::str(&format!("Supplier#{i:05}")));
        db.insert_ids(
            rels.supplier,
            &format!("su{i}"),
            &[ints[i], sname, ints[nk]],
        );
    }
    for i in 0..n_cust {
        let nk = rng.random_range(0..25usize);
        let seg = segments[rng.random_range(0..segments.len())];
        let cname = db.intern_value(Value::str(&format!("Customer#{i:06}")));
        db.insert_ids(
            rels.customer,
            &format!("cu{i}"),
            &[ints[i], cname, ints[nk], seg],
        );
    }
    let part_keys: Vec<ValueId> = ints[..n_part].to_vec();
    for (i, &pk) in part_keys.iter().enumerate() {
        let brand = brands[rng.random_range(0..brands.len())];
        let ptype = types[rng.random_range(0..types.len())];
        let pname = db.intern_value(Value::str(&format!("part {i}")));
        db.insert_ids(rels.part, &format!("pa{i}"), &[pk, pname, brand, ptype]);
    }
    // Each part is stocked by two suppliers (dbgen uses four). Lineitems
    // reference these pairs, as in dbgen.
    let mut ps_pairs: Vec<(usize, usize)> = Vec::with_capacity(2 * n_part);
    let mut ps = 0usize;
    for pk in 0..n_part {
        for _ in 0..2 {
            let sk = rng.random_range(0..n_supp);
            let qty = db.intern_value(Value::int(rng.random_range(1..10_000i64)));
            db.insert_ids(
                rels.partsupp,
                &format!("ps{ps}"),
                &[ints[pk], ints[sk], qty],
            );
            ps_pairs.push((pk, sk));
            ps += 1;
        }
    }
    for i in 0..n_ord {
        let ck = rng.random_range(0..n_cust);
        let status = statuses[rng.random_range(0..statuses.len())];
        let year = db.intern_value(Value::int(rng.random_range(1992..=1998i64)));
        let pri = priorities[rng.random_range(0..priorities.len())];
        db.insert_ids(
            rels.orders,
            &format!("or{i}"),
            &[ints[i], ints[ck], status, year, pri],
        );
    }
    // Lineitems: 1..=7 per order round-robin until the target count; this
    // leaves plenty of orders with ≥ 3 lineitems for Q21's triple self-join.
    let mut li = 0usize;
    let mut order = 0usize;
    while li < l {
        let per = rng.random_range(1..=7usize).min(l - li);
        let ok = order % n_ord;
        order += 1;
        let mut last_pair: Option<(usize, usize)> = None;
        for lnum in 0..per {
            // With probability 0.35 reuse the previous lineitem's part and
            // supplier (the same part shipped in several batches) — this
            // gives the part/supplier-joined queries (Q9, Q21) in-order
            // substitutes, as the full-scale dataset has.
            let (pk, sk) = match last_pair {
                Some(pair) if rng.random_bool(0.35) => pair,
                _ => ps_pairs[rng.random_range(0..ps_pairs.len())],
            };
            last_pair = Some((pk, sk));
            let qty = db.intern_value(Value::int(rng.random_range(1..=50i64)));
            let rf = returnflags[rng.random_range(0..returnflags.len())];
            let sm = shipmodes[rng.random_range(0..shipmodes.len())];
            db.insert_ids(
                rels.lineitem,
                &format!("li{li}"),
                &[ints[ok], ints[pk], ints[sk], ints[lnum], qty, rf, sm],
            );
            li += 1;
        }
    }
    db.build_indexes();
    (db, rels)
}

/// The §5.1 TPC-H abstraction tree: the lineitem annotations (up to
/// `num_leaves` of them) divided into even subcategories, `height` levels
/// deep.
///
/// With `shuffle = false` (the default used by the experiment harness),
/// lineitems stay in insertion order, which clusters lineitems of the same
/// order under shared subcategories — the §4 guidance that domain experts
/// "place annotations of similar tuples in proximity in the tree". With
/// `shuffle = true` the division is uniformly random, as in the paper's
/// scalability stress tests.
pub fn tpch_tree(
    db: &mut Database,
    rels: &TpchRelations,
    num_leaves: usize,
    height: u32,
    seed: u64,
    shuffle: bool,
) -> AbstractionTree {
    let leaves: Vec<AnnotId> = db
        .tuple_annots(rels.lineitem)
        .iter()
        .copied()
        .take(num_leaves)
        .collect();
    let mut counter = 0usize;
    let mut labels: Vec<String> = Vec::new();
    // Pre-intern enough inner labels (worst case: one per leaf per level).
    let spec = BalancedTreeSpec {
        height,
        seed,
        shuffle,
    };
    // Interning happens through the closure; collect names first to satisfy
    // the borrow checker.
    let mut make_name = || {
        let name = format!("licat_{counter}");
        counter += 1;
        labels.push(name.clone());
        name
    };
    // Estimate an upper bound of inner nodes and intern them eagerly.
    let mut interned: Vec<AnnotId> = Vec::new();
    let upper = 2 * leaves.len().max(2) * height as usize + 8;
    for _ in 0..upper {
        let n = make_name();
        interned.push(db.intern_label(&n));
    }
    let mut next = 0usize;
    balanced_tree(&leaves, &spec, || {
        let id = interned[next];
        next += 1;
        id
    })
}

/// Builds a TPC-H abstraction tree guaranteed to cover the lineitem
/// annotations of `example` *and* their same-order siblings (so the
/// K-example's provenance is abstractable and substitutable), padded with
/// further lineitems up to `num_leaves`. Leaves keep insertion order before
/// division, clustering same-order lineitems (see [`tpch_tree`]).
pub fn tpch_tree_covering(
    db: &mut Database,
    rels: &TpchRelations,
    example: &provabs_relational::KExample,
    num_leaves: usize,
    height: u32,
    seed: u64,
    shuffle: bool,
) -> AbstractionTree {
    let mut chosen: std::collections::BTreeSet<AnnotId> = std::collections::BTreeSet::new();
    let annots = db.tuple_annots(rels.lineitem).to_vec();
    // Example lineitems and their same-order siblings, matched on the
    // interned order-key column — id equality, no tuple decoding.
    let ok_col = db.column(rels.lineitem, 0);
    for a in example.variables() {
        if let Some(loc) = db.locate(a) {
            if loc.rel == rels.lineitem {
                let ok = ok_col[loc.row];
                for (i, &u) in ok_col.iter().enumerate() {
                    if u == ok {
                        chosen.insert(annots[i]);
                    }
                }
            }
        }
    }
    // Pad with the remaining lineitems in insertion order.
    for &a in &annots {
        if chosen.len() >= num_leaves {
            break;
        }
        chosen.insert(a);
    }
    let leaves: Vec<AnnotId> = chosen.into_iter().collect();
    let spec = BalancedTreeSpec {
        height,
        seed,
        shuffle,
    };
    let mut interned: Vec<AnnotId> = Vec::new();
    let upper = 2 * leaves.len().max(2) * height as usize + 8;
    for counter in 0..upper {
        let name = format!("licov_{counter}");
        interned.push(db.intern_label(&name));
    }
    let mut next = 0usize;
    balanced_tree(&leaves, &spec, || {
        let id = interned[next];
        next += 1;
        id
    })
}

/// The TPC-H workload (Table 6): queries adapted to CQs. Atom and join
/// counts match the paper's table (Q5 is formed with 7 atoms by routing the
/// part/supplier join through `Partsupp`).
pub fn tpch_queries(schema: &Schema) -> Vec<Workload> {
    let q = |name: &str, text: &str| Workload {
        name: name.to_owned(),
        query: parse_cq(text, schema).unwrap_or_else(|e| panic!("{name}: {e}")),
    };
    vec![
        q(
            "TPCH-Q3",
            "Q(ok) :- Customer(ck, cn, nk, 'BUILDING'), Orders(ok, ck, st, yr, pr), \
             Lineitem(ok, pk, sk, ln, qt, rf, sm)",
        ),
        q(
            "TPCH-Q4",
            "Q(ok) :- Orders(ok, ck, st, yr, '1-URGENT'), Lineitem(ok, pk, sk, ln, qt, rf, sm)",
        ),
        q(
            "TPCH-Q5",
            "Q(nn) :- Customer(ck, cn, nk, seg), Orders(ok, ck, st, yr, pr), \
             Lineitem(ok, pk, sk, ln, qt, rf, sm), Partsupp(pk, sk, aq), \
             Supplier(sk, sn, nk), Nation(nk, nn, rk), Region(rk, 'ASIA')",
        ),
        q(
            "TPCH-Q7",
            "Q(n1, n2) :- Supplier(sk, sn, nk1), Lineitem(ok, pk, sk, ln, qt, rf, sm), \
             Orders(ok, ck, st, yr, pr), Customer(ck, cn, nk2, seg), \
             Nation(nk1, n1, rk1), Nation(nk2, n2, rk2)",
        ),
        q(
            "TPCH-Q9",
            "Q(nn) :- Part(pk, pn, 'Brand#12', pt), Supplier(sk, sn, nk), \
             Lineitem(ok, pk, sk, ln, qt, rf, sm), Partsupp(pk, sk, aq), \
             Orders(ok, ck, st, yr, pr), Nation(nk, nn, rk)",
        ),
        q(
            "TPCH-Q10",
            "Q(ck) :- Customer(ck, cn, nk, seg), Orders(ok, ck, st, yr, pr), \
             Lineitem(ok, pk, sk, ln, qt, 'R', sm), Nation(nk, nn, rk)",
        ),
        q(
            "TPCH-Q21",
            "Q(sn) :- Supplier(sk, sn, nk), Lineitem(ok, pk, sk, l1, q1, r1, m1), \
             Lineitem(ok, p2, s2, l2, q2, r2, m2), Lineitem(ok, p3, s3, l3, q3, r3, m3), \
             Orders(ok, ck, 'F', yr, pr), Nation(nk, nn, rk)",
        ),
    ]
}

/// Draws a fresh RNG for callers that need auxiliary randomness consistent
/// with a config.
pub fn rng_for(cfg: &TpchConfig) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::{EvalLimits, Evaluator, Execution};

    #[test]
    fn generator_is_deterministic() {
        let cfg = TpchConfig::default();
        let (db1, rels) = generate(&cfg);
        let (db2, _) = generate(&cfg);
        assert_eq!(db1.len(), db2.len());
        assert_eq!(db1.tuples(rels.lineitem), db2.tuples(rels.lineitem));
        let (db3, _) = generate(&TpchConfig {
            seed: 43,
            ..cfg.clone()
        });
        assert_ne!(db1.tuples(rels.lineitem), db3.tuples(rels.lineitem));
    }

    #[test]
    fn row_counts_scale() {
        let (db, rels) = generate(&TpchConfig {
            lineitem_rows: 1000,
            seed: 1,
        });
        assert_eq!(db.relation_len(rels.lineitem), 1000);
        assert_eq!(db.relation_len(rels.region), 5);
        assert_eq!(db.relation_len(rels.nation), 25);
        assert_eq!(db.relation_len(rels.orders), 250);
        assert!(db.relation_len(rels.partsupp) >= db.relation_len(rels.part));
    }

    #[test]
    fn all_queries_parse_with_table6_shapes() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 100,
            seed: 1,
        });
        let qs = tpch_queries(db.schema());
        let expected = [
            ("TPCH-Q3", 3, 2),
            ("TPCH-Q4", 2, 1),
            ("TPCH-Q5", 7, 6),
            ("TPCH-Q7", 6, 5),
            ("TPCH-Q9", 6, 5),
            ("TPCH-Q10", 4, 3),
            ("TPCH-Q21", 6, 5),
        ];
        assert_eq!(qs.len(), expected.len());
        for (w, (name, atoms, joins)) in qs.iter().zip(expected) {
            assert_eq!(w.name, name);
            assert_eq!(w.query.body.len(), atoms, "{name}");
            assert_eq!(w.query.num_joins(), joins, "{name}");
            assert!(w.query.is_connected(), "{name}");
            assert!(w.query.is_safe(), "{name}");
        }
    }

    #[test]
    fn queries_produce_output_rows() {
        let (db, _) = generate(&TpchConfig {
            lineitem_rows: 3000,
            seed: 7,
        });
        for w in tpch_queries(db.schema()) {
            // Capped output subset: pinned to the scalar engine.
            let (out, _) = Evaluator::new(&db)
                .execution(Execution::Scalar)
                .limits(EvalLimits {
                    max_outputs: 2,
                    max_derivations: 200_000,
                })
                .eval_cq(&w.query);
            assert!(
                out.len() >= 2,
                "{} produced {} rows; need >= 2 for a K-example",
                w.name,
                out.len()
            );
        }
    }

    #[test]
    fn tree_covers_lineitem_leaves() {
        let (mut db, rels) = generate(&TpchConfig {
            lineitem_rows: 500,
            seed: 3,
        });
        let tree = tpch_tree(&mut db, &rels, 200, 5, 11, false);
        assert_eq!(tree.num_leaves(), 200);
        assert_eq!(tree.height(), 5);
        assert!(tree.compatible_with(&db));
        // Every leaf is a lineitem annotation.
        for &leaf in tree.leaves() {
            let (rel, _) = db.tuple_by_annot(leaf).unwrap();
            assert_eq!(rel, rels.lineitem);
        }
    }
}
