//! Microbenchmarks of the substrate hot paths: polynomial arithmetic,
//! provenance-tracking evaluation, canonicalization, containment, the
//! consistent-query frontier, row connectivity, privacy.

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_bench::scenario::{imdb_scenarios, ScenarioSettings};
use provabs_core::concretize::{
    connected_row_concretizations, for_each_row_concretization, row_concretization_count,
};
use provabs_core::fixtures::running_example;
use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs_core::{Abstraction, Bound};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::{monomial_connected, parse_cq, Evaluator, Execution};
use provabs_reveng::{
    canonical_form, canonical_key, contained_in, find_consistent_queries, ContainmentMode,
    RevOptions,
};
use provabs_semiring::{AnnotId, Monomial, Polynomial};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group.sample_size(30);

    // Polynomial multiplication: (x0 + ... + x9)^2 * (x10 + ... + x19).
    let p1 = Polynomial::from_terms((0..10).map(|i| (Monomial::from_annots([AnnotId(i)]), 1)));
    let p2 = Polynomial::from_terms((10..20).map(|i| (Monomial::from_annots([AnnotId(i)]), 1)));
    group.bench_function("polynomial_mul", |b| {
        b.iter(|| p1.mul(&p1).mul(&p2));
    });

    let fx = running_example();
    group.bench_function("eval_cq_running_example", |b| {
        // Scalar pin: this timing stays comparable with earlier runs.
        let eval = Evaluator::new(&fx.db).execution(Execution::Scalar);
        b.iter(|| eval.eval_cq(&fx.qreal));
    });

    group.bench_function("canonical_key", |b| {
        b.iter(|| canonical_key(&fx.qreal));
    });

    // Canonical key and canonical query in one search, on TPC-H Q21's
    // triple Lineitem self-join (the largest tie group of the workloads).
    let (tpch_db, _) = tpch::generate(&TpchConfig {
        lineitem_rows: 20,
        seed: 1,
    });
    let q21 = tpch::tpch_queries(tpch_db.schema())
        .into_iter()
        .find(|w| w.name == "TPCH-Q21")
        .expect("TPC-H Q21 is a workload query")
        .query;
    group.bench_function("canonical_form_q21", |b| {
        b.iter(|| canonical_form(&q21));
    });

    group.bench_function("containment_bijective", |b| {
        b.iter(|| contained_in(&fx.qreal, &fx.qgeneral, ContainmentMode::Bijective));
    });

    let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
    let rows = fx.exreal.resolve(&fx.db).unwrap();
    group.bench_function("find_consistent_queries", |b| {
        b.iter(|| find_consistent_queries(&rows, &RevOptions::default()));
    });

    // Privacy of Exabs1 (cold privacy cache each iteration; the bound's row
    // memo is warm after the first).
    let mut abs = Abstraction::identity(&bound);
    for name in ["h1", "h2"] {
        let id = fx.db.annotations().get(name).unwrap();
        for r in 0..bound.num_rows() {
            for (i, &a) in bound.row_occurrences(r).iter().enumerate() {
                if a == id {
                    abs.lifts[r][i] = 1;
                }
            }
        }
    }
    let abs_rows = abs.apply(&bound).rows;
    let cfg = PrivacyConfig {
        threshold: 2,
        ..Default::default()
    };
    group.bench_function("privacy_exabs1_cold", |b| {
        b.iter(|| {
            let cache = PrivacyCache::new();
            compute_privacy(&bound, &abs_rows, &cfg, &cache)
        });
    });

    // Connected concretizations of an IMDB-Q4 row (7 occurrences) whose
    // first occurrences are lifted one level until the row has at least
    // 2,000 concretizations: the kernel, then the plain enumerator with
    // `monomial_connected` on every concretization.
    let imdb_q4 = imdb_scenarios(&ScenarioSettings::default())
        .into_iter()
        .find(|s| s.name == "IMDB-Q4")
        .expect("IMDB-Q4 has a K-example");
    let q4 = Bound::new(&imdb_q4.db, &imdb_q4.tree, &imdb_q4.example).unwrap();
    let mut q4_abs = Abstraction::identity(&q4);
    for i in 0..q4.row_occurrences(0).len() {
        q4_abs.lifts[0][i] = q4.max_lift(0, i).min(1);
        let rows = q4_abs.apply(&q4).rows;
        if row_concretization_count(&q4, &rows[0]) >= 2_000 {
            break;
        }
    }
    let q4_row = q4_abs.apply(&q4).rows.swap_remove(0);

    // The consistent-query frontier of IMDB-Q4's two concrete rows, as
    // Algorithm 1 asks for it (connected queries only): Directs, Genre and
    // Movie each appear twice per row, so 2 * 2 * 2 = 8 alignments, and
    // most of their most-specific queries are disconnected.
    let q4_rows = imdb_q4.example.resolve(&imdb_q4.db).unwrap();
    assert_eq!(q4_rows.len(), 2, "IMDB-Q4's K-example has two rows");
    let connected_only = RevOptions {
        connected_only: true,
        ..RevOptions::default()
    };
    group.bench_function("find_consistent_queries/self_join_2row", |b| {
        b.iter(|| find_consistent_queries(&q4_rows, &connected_only));
    });
    let q4_cap = 20_000;
    group.bench_function("connected_row_concretizations", |b| {
        b.iter(|| connected_row_concretizations(&q4, &q4_row, q4_cap, true));
    });
    group.bench_function("monomial_connected_row_loop", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for_each_row_concretization(&q4, &q4_row, q4_cap, |occs| {
                kept += usize::from(monomial_connected(q4.db, occs));
                true
            });
            kept
        });
    });

    // Parsing.
    group.bench_function("parse_cq", |b| {
        b.iter(|| {
            parse_cq(
                "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', s1), Interests(id, 'Music', s2)",
                fx.db.schema(),
            )
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
