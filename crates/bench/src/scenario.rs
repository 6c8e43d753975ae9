//! Scenario construction: dataset + tree + K-example per workload query.

use provabs_core::loi::LoiDistribution;
use provabs_core::privacy::PrivacyConfig;
use provabs_core::search::{find_optimal_abstraction, SearchConfig};
use provabs_core::Bound;
use provabs_datagen::imdb::{self, ImdbConfig};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::{kexample_for_mode, Workload};
use provabs_relational::{Cq, Database, KExample, PlanMode};
use provabs_tree::AbstractionTree;
use std::time::Instant;

use crate::report::Measurement;

/// Global knobs of one experiment family (the Table 5 settings, scaled to
/// laptop size — the scaling is recorded in EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ScenarioSettings {
    /// Privacy threshold `k` (paper default 5).
    pub threshold: usize,
    /// Abstraction-tree leaves (paper default 10 000; harness default 800).
    pub tree_leaves: usize,
    /// Abstraction-tree height (paper default 5).
    pub tree_height: u32,
    /// K-example rows (paper default 2).
    pub rows: usize,
    /// TPC-H lineitem rows.
    pub tpch_lineitems: usize,
    /// IMDB size.
    pub imdb_people: usize,
    /// IMDB movies.
    pub imdb_movies: usize,
    /// Generator / tree seed.
    pub seed: u64,
    /// Shuffle tree leaves before division (random subcategories) instead
    /// of clustering similar tuples.
    pub shuffle_tree: bool,
    /// Atom-order mode of the K-example-extracting evaluation (the
    /// extraction is output-capped, so the mode decides *which* outputs
    /// become the example). Cost-based by default; the `BENCH_3.json`
    /// intern harness pins [`PlanMode::Greedy`] to reproduce its baseline
    /// scenarios.
    pub plan_mode: PlanMode,
}

impl Default for ScenarioSettings {
    fn default() -> Self {
        Self {
            threshold: 5,
            tree_leaves: 800,
            tree_height: 5,
            rows: 2,
            tpch_lineitems: 2_000,
            imdb_people: 150,
            imdb_movies: 150,
            seed: 42,
            shuffle_tree: false,
            plan_mode: PlanMode::default(),
        }
    }
}

/// Resource caps keeping the NP-hard search laptop-bounded. Hitting a cap is
/// reported through [`Measurement::truncated`].
#[derive(Debug, Clone)]
pub struct HarnessCaps {
    /// Max abstractions enumerated per search.
    pub max_candidates: usize,
    /// Max concretizations per enumeration (see
    /// [`PrivacyConfig::max_concretizations`]).
    pub max_concretizations: usize,
    /// Max alignments per consistency call.
    pub max_alignments: usize,
    /// Wall-clock budget per search in milliseconds.
    pub time_budget_ms: Option<u64>,
    /// Worker threads per search (the thread-count scenario axis):
    /// `Some(1)` pins the sequential trace the paper's figures measure,
    /// `None` uses every core, `Some(n)` pins a pool size. The
    /// `micro_parallel` bench sweeps this axis.
    pub parallelism: Option<usize>,
}

impl Default for HarnessCaps {
    fn default() -> Self {
        Self {
            max_candidates: 200_000,
            max_concretizations: 20_000,
            max_alignments: 20_000,
            time_budget_ms: Some(8_000),
            // Figure benches reproduce the paper's single-threaded runtimes
            // by default; opt into the parallel engine per scenario.
            parallelism: Some(1),
        }
    }
}

/// A ready-to-search scenario: database, compatible tree, K-example.
#[derive(Debug)]
pub struct Scenario {
    /// Workload name (e.g. `TPCH-Q3`).
    pub name: String,
    /// The hidden query that produced the example.
    pub query: Cq,
    /// The annotated database.
    pub db: Database,
    /// The abstraction tree.
    pub tree: AbstractionTree,
    /// The K-example to abstract.
    pub example: KExample,
}

/// Builds one scenario per TPC-H workload query. Queries that cannot yield
/// `settings.rows` output rows at this scale are skipped.
pub fn tpch_scenarios(settings: &ScenarioSettings) -> Vec<Scenario> {
    let cfg = TpchConfig {
        lineitem_rows: settings.tpch_lineitems,
        seed: settings.seed,
    };
    let (db_proto, rels) = tpch::generate(&cfg);
    tpch::tpch_queries(db_proto.schema())
        .into_iter()
        .filter_map(|Workload { name, query }| {
            let mut db = db_proto.clone();
            let example = kexample_for_mode(&db, &query, settings.rows, settings.plan_mode)?;
            let tree = tpch::tpch_tree_covering(
                &mut db,
                &rels,
                &example,
                settings.tree_leaves,
                settings.tree_height,
                settings.seed,
                settings.shuffle_tree,
            );
            Some(Scenario {
                name,
                query,
                db,
                tree,
                example,
            })
        })
        .collect()
}

/// Builds one scenario per IMDB workload query (the ontology tree covers
/// every annotation, so no per-query tree is needed — but the tree is built
/// per scenario because labels are interned into the database registry).
pub fn imdb_scenarios(settings: &ScenarioSettings) -> Vec<Scenario> {
    let cfg = ImdbConfig {
        num_people: settings.imdb_people,
        num_movies: settings.imdb_movies,
        cast_per_movie: 5,
        seed: settings.seed,
    };
    let (db_proto, rels) = imdb::generate(&cfg);
    imdb::imdb_queries(db_proto.schema())
        .into_iter()
        .filter_map(|Workload { name, query }| {
            let mut db = db_proto.clone();
            let example = kexample_for_mode(&db, &query, settings.rows, settings.plan_mode)?;
            let tree = imdb::imdb_tree(&mut db, &rels);
            Some(Scenario {
                name,
                query,
                db,
                tree,
                example,
            })
        })
        .collect()
}

/// Runs Algorithm 2 on a scenario, measuring wall time and the optimum's
/// metrics. `tweak` can adjust the search configuration (ablations,
/// distributions, thresholds).
pub fn run_search(
    scenario: &Scenario,
    threshold: usize,
    caps: &HarnessCaps,
    param: &str,
    tweak: impl FnOnce(&mut SearchConfig),
) -> Measurement {
    let mut cfg = SearchConfig {
        privacy: PrivacyConfig {
            threshold,
            max_alignments: caps.max_alignments,
            max_concretizations: caps.max_concretizations,
            ..Default::default()
        },
        max_candidates: caps.max_candidates,
        time_budget_ms: caps.time_budget_ms,
        distribution: LoiDistribution::Uniform,
        parallelism: caps.parallelism,
        ..Default::default()
    };
    tweak(&mut cfg);
    let bound = match Bound::new(&scenario.db, &scenario.tree, &scenario.example) {
        Ok(b) => b,
        Err(e) => {
            return Measurement {
                query: scenario.name.clone(),
                param: param.to_owned(),
                runtime_ms: 0.0,
                found: false,
                privacy: 0,
                loi: f64::NAN,
                edges: 0,
                abstractions: 0,
                privacy_evals: 0,
                truncated: true,
                note: format!("bind failed: {e}"),
            }
        }
    };
    let start = Instant::now();
    let out = find_optimal_abstraction(&bound, &cfg);
    let runtime_ms = start.elapsed().as_secs_f64() * 1e3;
    let (found, privacy, loi, edges) = match &out.best {
        Some(b) => (true, b.privacy, b.loi, b.edges_used),
        None => (false, 0, f64::NAN, 0),
    };
    Measurement {
        query: scenario.name.clone(),
        param: param.to_owned(),
        runtime_ms,
        found,
        privacy,
        loi,
        edges,
        abstractions: out.stats.abstractions_enumerated,
        privacy_evals: out.stats.privacy_evaluations,
        truncated: out.stats.truncated || out.stats.privacy_stats.truncated,
        note: String::new(),
    }
}
