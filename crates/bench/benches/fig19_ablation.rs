//! Criterion companion to Figure 19: each §4.1 component standalone against
//! the brute-force baseline on a tiny scenario, with 3-row K-examples like
//! `figures::fig19` (the smallest row count with a row-by-row pruning step).

use criterion::{criterion_group, criterion_main, Criterion};
use provabs_bench::{run_search, tpch_scenarios, HarnessCaps, ScenarioSettings};
use provabs_core::search::SearchConfig;

fn bench(c: &mut Criterion) {
    let settings = ScenarioSettings {
        tree_leaves: 60,
        tree_height: 3,
        tpch_lineitems: 400,
        rows: 3,
        ..Default::default()
    };
    let caps = HarnessCaps {
        max_candidates: 5_000,
        time_budget_ms: Some(3_000),
        ..Default::default()
    };
    let scenarios = tpch_scenarios(&settings);
    let s = scenarios
        .iter()
        .find(|s| s.name == "TPCH-Q4")
        .expect("scenario");
    type Variant = (&'static str, fn(&mut SearchConfig));
    let variants: [Variant; 4] = [
        ("brute", |c| {
            c.sort_abstractions = false;
            c.prioritize_loi = false;
            c.early_termination = false;
            c.privacy.row_by_row = false;
            c.privacy.connectivity_filter = false;
            c.privacy.caching = false;
        }),
        ("sorting", |c| {
            c.sort_abstractions = true;
            c.prioritize_loi = false;
            c.privacy.row_by_row = false;
            c.privacy.connectivity_filter = false;
            c.privacy.caching = false;
        }),
        ("loi_first", |c| {
            c.sort_abstractions = false;
            c.prioritize_loi = true;
            c.early_termination = false;
            c.privacy.row_by_row = false;
            c.privacy.connectivity_filter = false;
            c.privacy.caching = false;
        }),
        ("all_components", |_| {}),
    ];
    let mut group = c.benchmark_group("fig19_ablation");
    group.sample_size(10);
    for (name, tweak) in variants {
        group.bench_function(name, |b| {
            b.iter(|| run_search(s, 2, &caps, name, tweak));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
