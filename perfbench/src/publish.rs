//! The publish workloads: the paper's operation end to end, from a
//! confidential query to a published abstraction with privacy ≥ k.
//!
//! One request evaluates the query with provenance over the full answer
//! set, selects the K-example, binds it (`Bound::new`) and runs Algorithm 2
//! (which calls Algorithm 1 per candidate). Data generation and the
//! abstraction trees are set-up, not request work.

use crate::trace::Trace;
use crate::{digest, Round};
use provabs_bench::{HarnessCaps, ScenarioSettings};
use provabs_core::loi::{loss_of_information, LoiDistribution};
use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs_core::search::{find_optimal_abstraction_with_cache, BestAbstraction, SearchConfig};
use provabs_core::Bound;
use provabs_datagen::imdb::{self, ImdbConfig};
use provabs_datagen::tpch::{self, TpchConfig};
use provabs_datagen::Workload;
use provabs_relational::{Database, Evaluator, KExample, KRelation, KRow};
use provabs_semiring::AnnotId;
use provabs_tree::AbstractionTree;
use std::collections::HashSet;
use std::time::Instant;

/// Data sizes: the scenario harness's defaults (2,000 lineitems, IMDB
/// 150 people × 150 movies, trees of 800 leaves and height 5, 2-row
/// K-examples).
fn sizes() -> ScenarioSettings {
    ScenarioSettings::default()
}

/// The search caps: `HarnessCaps` count caps, no wall-clock budget, one
/// worker. The candidate cap is a fortieth and the concretization cap a
/// hundredth of the defaults, so that a `publish-paper` round takes about
/// 2.5 s and a run measures every request about a dozen times. With a
/// tenth of the defaults a round takes 9 s, and three repetitions leave the
/// per-request best at the mercy of the machine's slow periods.
pub fn caps() -> HarnessCaps {
    HarnessCaps {
        max_candidates: 5_000,
        max_concretizations: 200,
        time_budget_ms: None,
        parallelism: Some(1),
        ..HarnessCaps::default()
    }
}

/// Which publish workload a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The 14 paper queries over every dataset at k = 2, a fresh privacy
    /// cache per request.
    Paper,
    /// Each TPC-H query at k = 2, 3, 4, 5 in order, one privacy cache per
    /// dataset.
    Sweep,
}

/// Seeds of the datasets every round publishes over. The inputs are fixed
/// so that every run measures the same search work: the cost of one search
/// varies by orders of magnitude between datasets, so runs over different
/// data would not be comparable. The workload seed orders the requests.
pub const DATASETS: [u64; 2] = [42, 7];

/// A database with its abstraction tree and the queries published over it.
struct Instance {
    /// Index into [`DATASETS`].
    dataset: usize,
    db: Database,
    tree: AbstractionTree,
    queries: Vec<Workload>,
}

/// One publish request, in the fixed order the round runs them.
struct Request {
    instance: usize,
    query: usize,
    k: usize,
}

/// Selects a `rows`-row K-example from the full answer set: greedy
/// max-coverage, each pick maximizing the annotations not seen yet, then
/// the monomial's support size, ties to the earlier answer. The answer set
/// is a sorted map, so the choice does not depend on engine or plan.
pub fn select_kexample(out: &KRelation, rows: usize) -> Option<KExample> {
    let mut remaining: Vec<KRow> = KExample::from_krelation(out, usize::MAX).rows;
    if remaining.len() < rows {
        return None;
    }
    let mut used: HashSet<AnnotId> = HashSet::new();
    let mut chosen = Vec::with_capacity(rows);
    while chosen.len() < rows {
        let score = |r: &KRow| {
            let fresh = r.monomial.support().filter(|a| !used.contains(a)).count();
            (fresh, r.monomial.support_size())
        };
        let best = (0..remaining.len())
            .max_by_key(|&i| (score(&remaining[i]), std::cmp::Reverse(i)))
            .expect("at least `rows` answers remain");
        let row = remaining.remove(best);
        used.extend(row.monomial.support());
        chosen.push(row);
    }
    Some(KExample { rows: chosen })
}

/// Builds the instances over every dataset and the request list, in the
/// order `seed` shuffles them to. Timed as set-up.
fn setup(mode: Mode, seed: u64, trace: &mut Trace) -> (Vec<Instance>, Vec<Request>) {
    let mut instances = Vec::new();
    for (d, &ds) in DATASETS.iter().enumerate() {
        add_instances(mode, d, ds, trace, &mut instances);
    }
    // One group per (instance, query): the sweep publishes a query at
    // k = 2, 3, 4, 5 in that order, so only whole groups are shuffled.
    let ks: &[usize] = match mode {
        Mode::Paper => &[2],
        Mode::Sweep => &[2, 3, 4, 5],
    };
    let mut groups: Vec<(usize, usize)> = instances
        .iter()
        .enumerate()
        .flat_map(|(i, inst)| (0..inst.queries.len()).map(move |q| (i, q)))
        .collect();
    digest::shuffle(seed, &mut groups);
    let requests = groups
        .into_iter()
        .flat_map(|(instance, query)| ks.iter().map(move |&k| Request { instance, query, k }))
        .collect();
    (instances, requests)
}

/// Generates dataset `d` (seeded `ds`) and its trees.
fn add_instances(mode: Mode, d: usize, ds: u64, trace: &mut Trace, instances: &mut Vec<Instance>) {
    let t = Instant::now();
    let (db, rels) = tpch::generate(&TpchConfig {
        lineitem_rows: sizes().tpch_lineitems,
        seed: ds,
    });
    trace.time("datagen.generate_ms", t);
    let t = Instant::now();
    // The TPC-H tree covers the example's lineitems, so building it
    // evaluates the query once; the request evaluates it again.
    for w in tpch::tpch_queries(db.schema()) {
        let mut db = db.clone();
        let (out, _) = Evaluator::new(&db).eval_cq(&w.query);
        let Some(example) = select_kexample(&out, sizes().rows) else {
            continue;
        };
        let tree = tpch::tpch_tree_covering(
            &mut db,
            &rels,
            &example,
            sizes().tree_leaves,
            sizes().tree_height,
            ds,
            false,
        );
        instances.push(Instance {
            dataset: d,
            db,
            tree,
            queries: vec![w],
        });
    }
    trace.time("tree.build_ms", t);
    if mode == Mode::Paper {
        let t = Instant::now();
        let (mut db, rels) = imdb::generate(&ImdbConfig {
            num_people: sizes().imdb_people,
            num_movies: sizes().imdb_movies,
            cast_per_movie: 5,
            seed: ds,
        });
        trace.time("datagen.generate_ms", t);
        let t = Instant::now();
        let tree = imdb::imdb_tree(&mut db, &rels);
        let queries: Vec<Workload> = imdb::imdb_queries(db.schema())
            .into_iter()
            .filter(|w| Evaluator::new(&db).eval_cq(&w.query).0.len() >= sizes().rows)
            .collect();
        trace.time("tree.build_ms", t);
        instances.push(Instance {
            dataset: d,
            db,
            tree,
            queries,
        });
    }
}

fn search_config(k: usize) -> SearchConfig {
    let caps = caps();
    SearchConfig {
        privacy: PrivacyConfig {
            threshold: k,
            max_alignments: caps.max_alignments,
            max_concretizations: caps.max_concretizations,
            ..PrivacyConfig::default()
        },
        max_candidates: caps.max_candidates,
        time_budget_ms: caps.time_budget_ms,
        distribution: LoiDistribution::Uniform,
        parallelism: caps.parallelism,
        ..SearchConfig::default()
    }
}

/// Checks a published abstraction: it fits the bound, its LOI recomputes
/// to the reported value bit for bit, its edge count matches, and a fresh
/// privacy evaluation reaches the reported privacy, which is at least `k`.
pub fn check_published(
    bound: &Bound<'_>,
    best: &BestAbstraction,
    cfg: &SearchConfig,
) -> Result<(), String> {
    let abs = &best.abstraction;
    if !abs.validate(bound) {
        return Err("abstraction does not fit the bound".into());
    }
    let loi = loss_of_information(bound, abs, &cfg.distribution);
    if loi.to_bits() != best.loi.to_bits() {
        return Err(format!("LOI {} reported, {} recomputed", best.loi, loi));
    }
    if abs.edges_used() != best.edges_used {
        return Err(format!(
            "{} edges reported, {} used",
            best.edges_used,
            abs.edges_used()
        ));
    }
    let rows = abs.apply(bound).rows;
    let fresh = compute_privacy(bound, &rows, &cfg.privacy, &PrivacyCache::new());
    match fresh.privacy {
        Some(p) if p == best.privacy && p >= cfg.privacy.threshold => Ok(()),
        other => Err(format!(
            "privacy {} reported, fresh evaluation gives {other:?} (k = {})",
            best.privacy, cfg.privacy.threshold
        )),
    }
}

/// Runs one round: set-up, then every request in the order `seed` gives.
/// With `traced` every request gets its own span tree.
pub fn round(mode: Mode, seed: u64, traced: bool) -> Round {
    let mut trace = Trace::new(traced);
    let t_setup = Instant::now();
    let (instances, requests) = setup(mode, seed, &mut trace);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The sweep shares one privacy cache per dataset, as `provabsd` shares
    // one; the paper workload gives every request a fresh one.
    let shared: Vec<PrivacyCache> = DATASETS.iter().map(|_| PrivacyCache::new()).collect();
    let mut r = Round::new(setup_s, trace);
    for (id, req) in requests.iter().enumerate() {
        let inst = &instances[req.instance];
        let w = &inst.queries[req.query];
        let fresh;
        let cache = match mode {
            Mode::Sweep => &shared[inst.dataset],
            Mode::Paper => {
                fresh = PrivacyCache::new();
                &fresh
            }
        };
        let cfg = search_config(req.k);
        let trace = &mut r.trace;

        let start = Instant::now();
        let whole = trace.begin(id, "request");
        let s = trace.begin(id, "relational.eval");
        let (answers, work) = Evaluator::new(&inst.db).eval_cq(&w.query);
        trace.end(s);
        let s = trace.begin(id, "relational.kexample");
        let example = select_kexample(&answers, sizes().rows);
        trace.end(s);
        let Some(example) = example else {
            trace.end(whole);
            r.fail(format!("{}: fewer than {} answers", w.name, sizes().rows));
            continue;
        };
        let s = trace.begin(id, "core.bound");
        let bound = Bound::new(&inst.db, &inst.tree, &example);
        trace.end(s);
        let bound = match bound {
            Ok(b) => b,
            Err(e) => {
                trace.end(whole);
                r.fail(format!("{}: bind failed: {e}", w.name));
                continue;
            }
        };
        let s = trace.begin(id, "core.search");
        let out = find_optimal_abstraction_with_cache(&bound, &cfg, cache);
        trace.end(s);
        trace.end(whole);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;

        trace.add("relational.eval.rows_examined", work.rows_examined);
        trace.add("relational.eval.derivations", work.derivations);
        trace.add("relational.eval.answer_rows", answers.len() as u64);
        trace.add("core.bound.occurrences", bound.num_occurrences() as u64);
        let st = &out.stats;
        let ps = &st.privacy_stats;
        trace.add(
            "core.search.abstractions_enumerated",
            st.abstractions_enumerated as u64,
        );
        trace.add("core.search.loi_evaluations", st.loi_evaluations as u64);
        trace.add(
            "core.search.privacy_evaluations",
            st.privacy_evaluations as u64,
        );
        trace.add("core.search.rows_abstracted", st.rows_abstracted as u64);
        trace.add("core.search.abs_cache_hits", st.abs_cache_hits as u64);
        trace.add(
            "core.search.truncated_requests",
            u64::from(st.truncated || ps.truncated),
        );
        trace.add("core.search.cap_hit.candidates", u64::from(st.truncated));
        trace.add(
            "core.search.cap_hit.concretizations",
            u64::from(ps.truncated),
        );
        trace.add(
            "core.privacy.concretizations_enumerated",
            ps.concretizations_enumerated as u64,
        );
        trace.add(
            "core.privacy.concretizations_kept",
            ps.concretizations_kept as u64,
        );
        trace.add(
            "core.privacy.consistency_hits",
            ps.consistency_cache_hits as u64,
        );
        trace.add(
            "core.privacy.consistency_misses",
            ps.consistency_cache_misses as u64,
        );
        trace.add(
            "core.privacy.connectivity_hits",
            ps.connectivity_cache_hits as u64,
        );
        trace.add(
            "core.privacy.connectivity_misses",
            ps.connectivity_cache_misses as u64,
        );

        // Why a request without an answer stopped: a cap, never to be read
        // as "no abstraction exists".
        let cause = match (st.truncated, ps.truncated) {
            (false, false) => "complete",
            (true, false) => "cap:max_candidates",
            (false, true) => "cap:max_concretizations",
            (true, true) => "cap:max_candidates+max_concretizations",
        };
        let reg = inst.db.annotations();
        let input = format!(
            "{} {} k={} example=[{}]",
            w.name,
            w.query.display(inst.db.schema()),
            req.k,
            example
                .rows
                .iter()
                .map(|row| format!("{} | {}", row.output, row.monomial.to_string_with(reg)))
                .collect::<Vec<_>>()
                .join("; ")
        );
        let answer = match &out.best {
            Some(b) => format!(
                "found privacy={} loi_bits={:016x} edges={} stop={cause}",
                b.privacy,
                b.loi.to_bits(),
                b.edges_used
            ),
            None => format!("none stop={cause}"),
        };
        let answered = out.best.is_some() || cause == "complete";
        let verdict = match &out.best {
            Some(b) => check_published(&bound, b, &cfg),
            None => Ok(()),
        };
        r.request("publish", latency_ms, answered, input, answer);
        if let Err(e) = verdict {
            r.wrong(format!("{} k={}: {e}", w.name, req.k));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_core::fixtures::running_example;
    use provabs_core::search::find_optimal_abstraction;

    #[test]
    fn check_accepts_the_search_result_and_rejects_a_planted_wrong_loi() {
        let fx = running_example();
        let bound = Bound::new(&fx.db, &fx.tree, &fx.exreal).expect("running example binds");
        let cfg = search_config(2);
        let best = find_optimal_abstraction(&bound, &cfg)
            .best
            .expect("the running example publishes at k = 2");
        assert_eq!(check_published(&bound, &best, &cfg), Ok(()));

        let mut wrong = best.clone();
        wrong.loi = f64::from_bits(best.loi.to_bits() ^ 1);
        assert!(check_published(&bound, &wrong, &cfg).is_err());

        let mut wrong = best.clone();
        wrong.privacy += 1;
        assert!(check_published(&bound, &wrong, &cfg).is_err());
    }

    #[test]
    fn kexample_does_not_depend_on_engine_or_plan() {
        use provabs_relational::{Execution, PlanMode};
        let (db, _) = tpch::generate(&TpchConfig {
            lineitem_rows: 200,
            seed: 3,
        });
        for w in tpch::tpch_queries(db.schema()) {
            let (block, _) = Evaluator::new(&db).eval_cq(&w.query);
            let (scalar, _) = Evaluator::new(&db)
                .plan(PlanMode::Greedy)
                .execution(Execution::Scalar)
                .eval_cq(&w.query);
            assert_eq!(
                select_kexample(&block, 2),
                select_kexample(&scalar, 2),
                "{}",
                w.name
            );
        }
    }
}
