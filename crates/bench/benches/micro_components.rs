//! Microbenchmarks of the substrate hot paths: polynomial arithmetic,
//! provenance-tracking evaluation, canonicalization, containment, privacy.

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_core::fixtures::running_example;
use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs_core::{Abstraction, Bound};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_relational::{eval_cq, parse_cq};
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
        b.iter(|| eval_cq(&fx.db, &fx.qreal));
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

    // Privacy of Exabs1 (cold cache each iteration).
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
