//! Simulated user study (Table 7, Figure 20).
//!
//! The paper's study gave 12 database-literate humans two tasks on
//! IMDB-Q3-style provenance: (1) infer the hidden query, (2) answer 10
//! hypothetical deletion questions. Humans are unavailable to this
//! reproduction, so both tasks are mechanized with the strongest strategy a
//! rational subject could apply:
//!
//! * **Identification** — a subject holding provenance reverse-engineers the
//!   CIM queries; the query is *identified* iff exactly one CIM query exists
//!   and it specializes the original (equal up to constants the two example
//!   rows happen to share — all a subject could ever determine from two
//!   rows). Group A sees raw provenance, Group B the optimal abstraction.
//! * **Hypothetical questions** — "does output row r survive deleting the
//!   tuples matching predicate P?". A subject holding raw provenance reads
//!   the answer off the monomial. With abstracted provenance the answer is
//!   determined only when every leaf below each abstracted node agrees with
//!   the predicate; otherwise the subject cannot answer and scores an error.

use provabs_core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs_core::search::{find_optimal_abstraction, SearchConfig};
use provabs_core::{AbsRow, Bound, Sym};
use provabs_datagen::imdb::{self, ImdbConfig};
use provabs_datagen::kexample_for;
use provabs_relational::{Database, Value};
use provabs_reveng::{contained_in, ContainmentMode};
use provabs_semiring::AnnotId;

/// The outcome of the simulated study.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Trials where the raw-provenance subject identified the query.
    pub group_a_identified: usize,
    /// Trials where the abstracted-provenance subject identified the query.
    pub group_b_identified: usize,
    /// Number of trials per group.
    pub trials: usize,
    /// Per-question correct counts for group A (length 10).
    pub group_a_correct: Vec<usize>,
    /// Per-question correct counts for group B (length 10).
    pub group_b_correct: Vec<usize>,
}

impl StudyOutcome {
    /// Average correct answers out of 10 for group A.
    pub fn group_a_avg(&self) -> f64 {
        self.group_a_correct.iter().sum::<usize>() as f64 / self.trials as f64
    }

    /// Average correct answers out of 10 for group B.
    pub fn group_b_avg(&self) -> f64 {
        self.group_b_correct.iter().sum::<usize>() as f64 / self.trials as f64
    }
}

/// A hypothetical deletion question: a human-readable description plus the
/// deletion predicate over database tuples.
struct Question {
    #[allow(dead_code)]
    text: &'static str,
    predicate: fn(&Database, AnnotId) -> bool,
}

fn questions() -> Vec<Question> {
    fn tuple_field(db: &Database, a: AnnotId, rel_name: &str, col: usize) -> Option<Value> {
        let (rel, t) = db.tuple_by_annot(a)?;
        (db.schema().relation_name(rel) == rel_name).then(|| t[col].clone())
    }
    vec![
        Question {
            text: "delete all Action genre tuples",
            predicate: |db, a| tuple_field(db, a, "Genre", 1) == Some(Value::str("Action")),
        },
        Question {
            text: "delete all Comedy genre tuples",
            predicate: |db, a| tuple_field(db, a, "Genre", 1) == Some(Value::str("Comedy")),
        },
        Question {
            text: "delete movies released after 1990",
            predicate: |db, a| tuple_field(db, a, "Movie", 2).and_then(|v| v.as_int()) > Some(1990),
        },
        Question {
            text: "delete movies released before 1980",
            predicate: |db, a| matches!(tuple_field(db, a, "Movie", 2).and_then(|v| v.as_int()), Some(y) if y < 1980),
        },
        Question {
            text: "delete people born before 1970",
            predicate: |db, a| matches!(tuple_field(db, a, "Person", 2).and_then(|v| v.as_int()), Some(y) if y < 1970),
        },
        Question {
            text: "delete people born after 1985",
            predicate: |db, a| matches!(tuple_field(db, a, "Person", 2).and_then(|v| v.as_int()), Some(y) if y > 1985),
        },
        Question {
            text: "delete every cast edge",
            predicate: |db, a| {
                db.tuple_by_annot(a)
                    .is_some_and(|(rel, _)| db.schema().relation_name(rel) == "CastIn")
            },
        },
        Question {
            text: "delete all director edges",
            predicate: |db, a| {
                db.tuple_by_annot(a)
                    .is_some_and(|(rel, _)| db.schema().relation_name(rel) == "Directs")
            },
        },
        Question {
            text: "delete US people",
            predicate: |db, a| tuple_field(db, a, "Person", 3) == Some(Value::str("USA")),
        },
        Question {
            text: "delete movies released exactly in 1995",
            predicate: |db, a| {
                tuple_field(db, a, "Movie", 2).and_then(|v| v.as_int()) == Some(1995)
            },
        },
    ]
}

/// Answer of a subject holding abstracted provenance: `Some(survives)` when
/// determined, `None` when the abstraction hides the answer.
fn abstracted_answer(
    db: &Database,
    bound: &Bound<'_>,
    row: &AbsRow,
    deleted: &dyn Fn(&Database, AnnotId) -> bool,
) -> Option<bool> {
    let mut any_unknown = false;
    for sym in row.syms.iter() {
        match sym {
            Sym::Leaf(a) => {
                if deleted(db, *a) {
                    return Some(false); // a known participant dies
                }
            }
            Sym::Abs(node) => {
                let leaves = bound.tree.leaves_under(*node);
                let all_deleted = leaves.iter().all(|&l| deleted(db, l));
                let none_deleted = leaves.iter().all(|&l| !deleted(db, l));
                if all_deleted {
                    return Some(false);
                }
                if !none_deleted {
                    any_unknown = true;
                }
            }
        }
    }
    if any_unknown {
        None
    } else {
        Some(true)
    }
}

/// Runs the simulated study: `trials` K-examples drawn from the IMDB-Q3
/// workload (bacon-number-1 actors), privacy threshold 2, optimal
/// abstractions from Algorithm 2.
pub fn run_user_study(trials: usize, seed: u64) -> StudyOutcome {
    let cfg = ImdbConfig {
        num_people: 250,
        num_movies: 200,
        cast_per_movie: 5,
        seed,
    };
    let (db_proto, rels) = imdb::generate(&cfg);
    let q3 = imdb::imdb_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "IMDB-Q3")
        .unwrap();
    let qs = questions();
    let mut outcome = StudyOutcome {
        group_a_identified: 0,
        group_b_identified: 0,
        trials: 0,
        group_a_correct: vec![0; qs.len()],
        group_b_correct: vec![0; qs.len()],
    };
    // Each trial uses a different pair of output rows; shrink the trial
    // count if the workload yields fewer rows at this scale.
    let mut wanted = 2 * trials;
    let full = loop {
        match kexample_for(&db_proto, &q3.query, wanted) {
            Some(ex) => break ex,
            None if wanted > 2 => wanted -= 2,
            None => break Default::default(),
        }
    };
    for t in 0..trials {
        if full.len() < 2 * (t + 1) {
            break;
        }
        let ex = provabs_relational::KExample {
            rows: full.rows[2 * t..2 * t + 2].to_vec(),
        };
        let mut db = db_proto.clone();
        let tree = imdb::imdb_tree(&mut db, &rels);
        let Ok(bound) = Bound::new(&db, &tree, &ex) else {
            continue;
        };
        outcome.trials += 1;
        // A subject's reconstruction candidates from a set of consistent
        // queries: the CIM queries when some exist, otherwise the minimal
        // consistent queries (a human facing, e.g., a ground self-join atom
        // would still write the evident query down). Identified = exactly
        // one candidate and it specializes the original.
        let identifies = |queries: &[provabs_relational::Cq]| {
            let connected: Vec<provabs_relational::Cq> = queries
                .iter()
                .filter(|q| q.is_connected())
                .cloned()
                .collect();
            let pool: &[provabs_relational::Cq] = if connected.is_empty() {
                queries
            } else {
                &connected
            };
            let minimal = provabs_reveng::minimal_queries(pool, ContainmentMode::Bijective);
            minimal.len() == 1 && contained_in(&minimal[0], &q3.query, ContainmentMode::Classical)
        };
        // --- Task 1, group A: raw provenance identification.
        let raw_resolved = ex.resolve(&db).unwrap_or_default();
        let raw_frontier = provabs_reveng::find_consistent_queries(
            &raw_resolved,
            &provabs_reveng::RevOptions::default(),
        )
        .into_cqs();
        if identifies(&raw_frontier) {
            outcome.group_a_identified += 1;
        }
        let cache = PrivacyCache::new();
        let pcfg = PrivacyConfig {
            threshold: 1,
            ..Default::default()
        };
        // --- Task 1, group B: abstracted provenance.
        let search = find_optimal_abstraction(
            &bound,
            &SearchConfig {
                privacy: PrivacyConfig {
                    threshold: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let Some(best) = search.best else {
            continue; // no abstraction found: skip QA for this trial
        };
        let abs_rows = best.abstraction.apply(&bound).rows;
        let abs_out = compute_privacy(&bound, &abs_rows, &pcfg, &cache);
        if identifies(&abs_out.cim) {
            outcome.group_b_identified += 1;
        }
        // --- Task 2: hypothetical questions on the first row.
        for (qi, q) in qs.iter().enumerate() {
            let truth = ex.rows[0]
                .monomial
                .support()
                .all(|a| !(q.predicate)(&db, a));
            // Group A reads the answer from the raw monomial.
            let a_answer = truth;
            if a_answer == truth {
                outcome.group_a_correct[qi] += 1;
            }
            // Group B derives it from the abstracted row when determined.
            if let Some(b_answer) =
                abstracted_answer(&db, &bound, &abs_rows[0], &|db, a| (q.predicate)(db, a))
            {
                if b_answer == truth {
                    outcome.group_b_correct[qi] += 1;
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_shapes_match_table7() {
        // Group A always identifies; group B never; QA accuracy A ≥ B with
        // B still high (Table 7: 100% vs 0%, 9.6 vs 8.5 of 10).
        let out = run_user_study(3, 11);
        assert!(out.trials >= 1);
        assert_eq!(
            out.group_a_identified, out.trials,
            "raw provenance must identify"
        );
        assert_eq!(out.group_b_identified, 0, "abstraction must hide the query");
        let a = out.group_a_avg();
        let b = out.group_b_avg();
        assert!((a - 10.0).abs() < 1e-9);
        assert!(b <= a);
        assert!(
            b >= 5.0,
            "abstracted provenance should stay useful, got {b}"
        );
    }
}
