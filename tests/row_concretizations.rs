//! Differential tests of Algorithm 1's row concretizations on random small
//! instances: the connectivity kernel against the plain enumerator plus
//! `monomial_connected`, the bound's row memo against a fresh enumeration,
//! and whole privacy evaluations on warm bounds, fresh bounds and with
//! caching off, row by row and over the whole example at once.

use proptest::prelude::*;
use provabs::core::concretize::{
    concretization_count, connected_row_concretizations, for_each_row_concretization,
};
use provabs::core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig, PrivacyOutcome};
use provabs::core::{AbsRow, Abstraction, Bound, Sym};
use provabs::relational::{monomial_connected, Database, KExample, Tuple};
use provabs::reveng::canonical_key;
use provabs::semiring::{AnnotId, Monomial};
use provabs::tree::{AbstractionTree, TreeBuilder};
use std::sync::Arc;

/// Concretization caps: the small ones cut most rows short, the last never
/// binds.
const CAPS: [usize; 5] = [1, 2, 3, 7, 1_000_000];

/// A deterministic SplitMix64 stream: one seed draws a whole instance.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A random database of 1–3 relations (arity 1–3, 1–5 tuples over a
/// 4-value domain, so tuples often share values), a tree of depth ≤ 3 over
/// its annotations plus leaves that tag no tuple, and a 1–3 row example
/// whose rows all join tuples of one relation sequence, as a query's output
/// rows do.
struct Instance {
    db: Database,
    tree: AbstractionTree,
    example: KExample,
    /// Every tuple annotation.
    annots: Vec<AnnotId>,
    /// Every tree label, inner nodes and leaves alike.
    labels: Vec<AnnotId>,
}

fn instance(rng: &mut Rng) -> Instance {
    let mut db = Database::new();
    let mut annots = Vec::new();
    let mut by_rel: Vec<Vec<AnnotId>> = Vec::new();
    for r in 0..1 + rng.below(3) {
        let arity = 1 + rng.below(3);
        let cols: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        let rel = db.add_relation(&format!("R{r}"), &cols);
        let first = annots.len();
        for t in 0..1 + rng.below(5) {
            let vals: Vec<String> = (0..arity).map(|_| rng.below(4).to_string()).collect();
            let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
            let name = format!("t{r}_{t}");
            db.insert_str(rel, &name, &vals);
            annots.push(db.annotations().get(&name).unwrap());
        }
        by_rel.push(annots[first..].to_vec());
    }
    db.build_indexes();
    let root = db.intern_label("*");
    let mut tb = TreeBuilder::new(root);
    let mut inner = vec![root];
    for g in 0..1 + rng.below(4) {
        let label = db.intern_label(&format!("g{g}"));
        tb.add_child(inner[rng.below(inner.len())], label);
        inner.push(label);
    }
    let mut leaves = annots.clone();
    for k in 0..rng.below(3) {
        leaves.push(db.intern_label(&format!("ghost{k}")));
    }
    for &leaf in &leaves {
        tb.add_child(inner[1 + rng.below(inner.len() - 1)], leaf);
    }
    let tree = tb.build();
    // Each row: one tuple per relation of the sequence (repeats are
    // self-joins); the output is the first tuple's first value.
    let shape: Vec<usize> = (0..1 + rng.below(3))
        .map(|_| rng.below(by_rel.len()))
        .collect();
    let mut rows: Vec<(Tuple, Monomial)> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let picks: Vec<AnnotId> = shape
            .iter()
            .map(|&r| by_rel[r][rng.below(by_rel[r].len())])
            .collect();
        let (_, first) = db.tuple_by_annot(picks[0]).unwrap();
        let output = Tuple::new([first.values()[0].clone()]);
        if rows.iter().all(|(o, _)| *o != output) {
            rows.push((output, Monomial::from_annots(picks)));
        }
    }
    let example = KExample::new(rows);
    let labels = inner.into_iter().chain(leaves).collect();
    Instance {
        db,
        tree,
        example,
        annots,
        labels,
    }
}

/// A random abstracted row of 1–5 symbols drawn from a small pool, so
/// symbols repeat: leaves that tag a tuple or not, and inner nodes.
fn random_row(inst: &Instance, rng: &mut Rng) -> AbsRow {
    let mut pool = vec![Sym::Leaf(inst.annots[rng.below(inst.annots.len())])];
    for _ in 0..3 {
        let label = inst.labels[rng.below(inst.labels.len())];
        pool.push(match inst.tree.node_by_label(label) {
            Some(n) if !inst.tree.is_leaf(n) => Sym::Abs(n),
            _ => Sym::Leaf(label),
        });
    }
    let syms = (0..1 + rng.below(5))
        .map(|_| pool[rng.below(pool.len())])
        .collect();
    AbsRow {
        output: Tuple::parse(&["0"]),
        syms: Arc::new(syms),
    }
}

/// The reference: the plain enumerator, filtered by `monomial_connected`.
fn reference(
    bound: &Bound<'_>,
    row: &AbsRow,
    cap: usize,
    filter: bool,
) -> (Vec<Vec<AnnotId>>, bool, usize) {
    let (mut kept, mut produced) = (Vec::new(), 0);
    let complete = for_each_row_concretization(bound, row, cap, |occs| {
        produced += 1;
        if !filter || monomial_connected(bound.db, occs) {
            kept.push(occs.to_vec());
        }
        true
    });
    (kept, complete, produced)
}

/// How many of the first `cap` whole-example concretizations, in odometer
/// order (row 0 turns slowest), have every row pass `monomial_connected`
/// (all of them when `filter` is off): nested plain row enumerations.
fn whole_example_kept(bound: &Bound<'_>, rows: &[AbsRow], cap: usize, filter: bool) -> usize {
    // Per whole-example prefix, in odometer order: whether its rows pass.
    let mut prefixes = vec![true];
    for row in rows {
        let mut next = Vec::new();
        for &connected in &prefixes {
            for_each_row_concretization(bound, row, usize::MAX, |occs| {
                next.push(connected && (!filter || monomial_connected(bound.db, occs)));
                true
            });
        }
        prefixes = next;
    }
    prefixes.into_iter().take(cap).filter(|&kept| kept).count()
}

/// What every evaluation mode must agree on.
fn observable(o: &PrivacyOutcome) -> (Option<usize>, Vec<String>, bool, usize) {
    let mut cim: Vec<String> = o.cim.iter().map(canonical_key).collect();
    cim.sort();
    (
        o.privacy,
        cim,
        o.stats.truncated,
        o.stats.concretizations_kept,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel and the memo reproduce the reference enumeration: the
    /// same lists in the same order, the same `complete`, the same
    /// produced count, whether computed or served from the memo.
    #[test]
    fn kernel_and_memo_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let inst = instance(&mut rng);
        let bound = Bound::new(&inst.db, &inst.tree, &inst.example).unwrap();
        for _ in 0..4 {
            let row = random_row(&inst, &mut rng);
            for cap in CAPS {
                for filter in [true, false] {
                    let (kept, complete, produced) = reference(&bound, &row, cap, filter);
                    let got = connected_row_concretizations(&bound, &row, cap, filter);
                    let lists: Vec<Vec<AnnotId>> = got.iter().map(<[AnnotId]>::to_vec).collect();
                    prop_assert_eq!(&lists, &kept, "seed {} syms {:?} cap {}", seed, row.syms, cap);
                    prop_assert_eq!(got.complete, complete);
                    prop_assert_eq!(got.produced, produced);

                    let fresh = Bound::new(&inst.db, &inst.tree, &inst.example).unwrap();
                    let (miss, was_hit) = fresh.row_concretizations_cached(&row, cap, filter);
                    prop_assert!(!was_hit);
                    let (hit, was_hit) = fresh.row_concretizations_cached(&row, cap, filter);
                    prop_assert!(was_hit);
                    prop_assert_eq!(&*miss, &got);
                    prop_assert_eq!(&*hit, &got);
                }
            }
        }
    }

    /// Privacy is the same on a warm bound (its row memo filled by an
    /// earlier evaluation), on a fresh bound, and with caching off. With a
    /// cap that never binds, row-by-row and whole-example evaluation agree
    /// with and without the connectivity filter; a whole-example
    /// evaluation keeps exactly the connected concretizations among the
    /// first `cap` of the whole example.
    #[test]
    fn privacy_agrees_on_warm_and_fresh_bounds(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let inst = instance(&mut rng);
        let warm = Bound::new(&inst.db, &inst.tree, &inst.example).unwrap();
        let mut abs = Abstraction::identity(&warm);
        let occs = warm.occurrences();
        for &(r, i) in &occs {
            abs.lifts[r][i] = rng.below(warm.max_lift(r, i) as usize + 1) as u32;
        }
        // Keep the whole example under 2,000 concretizations, so the
        // largest cap never binds and the direct path stays quick.
        let mut rows = abs.apply(&warm).rows;
        while concretization_count(&warm, &rows) > 2_000 {
            let (r, i) = occs[rng.below(occs.len())];
            abs.lifts[r][i] = abs.lifts[r][i].saturating_sub(1);
            rows = abs.apply(&warm).rows;
        }
        for cap in CAPS {
            let mut modes = Vec::new();
            for (row_by_row, filter) in [(true, true), (true, false), (false, true), (false, false)] {
                let cfg = PrivacyConfig {
                    threshold: 1,
                    row_by_row,
                    connectivity_filter: filter,
                    max_concretizations: cap,
                    ..PrivacyConfig::default()
                };
                let fresh_bound = Bound::new(&inst.db, &inst.tree, &inst.example).unwrap();
                let fresh = compute_privacy(&fresh_bound, &rows, &cfg, &PrivacyCache::new());
                compute_privacy(&warm, &rows, &cfg, &PrivacyCache::new());
                let warmed = compute_privacy(&warm, &rows, &cfg, &PrivacyCache::new());
                let uncached_cfg = PrivacyConfig { caching: false, ..cfg.clone() };
                let uncached = compute_privacy(&warm, &rows, &uncached_cfg, &PrivacyCache::new());
                let context = format!("seed {seed} cap {cap} row_by_row {row_by_row} filter {filter}");
                prop_assert_eq!(observable(&warmed), observable(&fresh), "{}", context);
                prop_assert_eq!(observable(&uncached), observable(&fresh), "{}", context);
                let (f, w) = (&fresh.stats, &warmed.stats);
                prop_assert_eq!(w.consistency_cache_hits, f.consistency_cache_hits);
                prop_assert_eq!(w.consistency_cache_misses, f.consistency_cache_misses);
                prop_assert_eq!(
                    w.connectivity_cache_hits + w.connectivity_cache_misses,
                    f.connectivity_cache_hits + f.connectivity_cache_misses
                );
                prop_assert!(w.concretizations_enumerated <= f.concretizations_enumerated);
                if !row_by_row {
                    let kept = whole_example_kept(&warm, &rows, cap, filter);
                    prop_assert_eq!(f.concretizations_kept, kept, "{}", context);
                }
                let (privacy, cim, truncated, _) = observable(&fresh);
                modes.push((privacy, cim, truncated));
            }
            if cap == 1_000_000 {
                for m in &modes[1..] {
                    prop_assert_eq!(m, &modes[0], "seed {} modes disagree", seed);
                }
            }
        }
    }
}
