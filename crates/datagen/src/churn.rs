//! Update-stream (churn) workloads for the incremental update engine.
//!
//! A [`ChurnGenerator`] turns any generated database (TPC-H, IMDB, or
//! custom) into a deterministic stream of [`Delta`] batches with a
//! configurable insert/delete mix — the streaming-update scenario class the
//! batch experiments cannot express. Inserted tuples are synthesized by
//! *column-mixing* two random live donor rows of the target relation, so
//! every column keeps its realistic value domain (keys stay joinable,
//! categories stay categorical) while new join combinations appear.
//! Deletions pick random live tuples, skipping a caller-supplied protected
//! set (e.g. the tuples a K-example's provenance resolves through).

use provabs_relational::{Database, Delta, RelId};
use provabs_semiring::AnnotId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Shape of an update stream.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Changes per batch (inserts + deletes).
    pub batch_size: usize,
    /// Fraction of changes that are inserts, in `[0, 1]`; the rest are
    /// deletes. `1.0` is append-only growth, `0.5` keeps the database size
    /// roughly stable.
    pub insert_ratio: f64,
    /// RNG seed; equal configs over equal databases yield identical
    /// streams.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            batch_size: 16,
            insert_ratio: 0.5,
            seed: 42,
        }
    }
}

impl ChurnConfig {
    /// A growth-dominated stream (90% inserts) — the WAL-append-heavy
    /// recovery workload of the durability experiments.
    pub fn insert_heavy(seed: u64) -> Self {
        Self {
            batch_size: 16,
            insert_ratio: 0.9,
            seed,
        }
    }

    /// A shrink-dominated stream (90% deletes) — stresses swap-remove
    /// posting maintenance, whose path-dependent row order recovery must
    /// reproduce verbatim.
    pub fn delete_heavy(seed: u64) -> Self {
        Self {
            batch_size: 16,
            insert_ratio: 0.1,
            seed,
        }
    }
}

/// Materializes a full recovery workload: `batches` deltas drawn against an
/// evolving copy of `db` — exactly the transaction stream a durability
/// harness replays through a durable database and crashes at arbitrary
/// prefixes. Returns the delta stream and the in-memory oracle state after
/// all of it (prefix oracles are re-derivable by applying a prefix to a
/// clone of `db`).
pub fn recovery_stream(db: &Database, cfg: &ChurnConfig, batches: usize) -> (Vec<Delta>, Database) {
    let mut generator = ChurnGenerator::new(cfg);
    let mut oracle = db.clone();
    let mut deltas = Vec::with_capacity(batches);
    for _ in 0..batches {
        let delta = generator.next_batch(&oracle);
        oracle.apply_delta(&delta);
        deltas.push(delta);
    }
    (deltas, oracle)
}

/// A deterministic source of update batches against an evolving database.
///
/// The generator holds no reference to the database: each call to
/// [`ChurnGenerator::next_batch`] inspects the database as it is *now*, so
/// the stream stays valid however the caller interleaves batches with other
/// mutations.
#[derive(Debug)]
pub struct ChurnGenerator {
    rng: StdRng,
    insert_ratio: f64,
    batch_size: usize,
    /// Annotations that must never be deleted.
    protected: HashSet<AnnotId>,
    /// Relations eligible for churn (default: all).
    relations: Option<Vec<RelId>>,
    /// Monotone counter making insert labels globally fresh.
    fresh: u64,
}

impl ChurnGenerator {
    /// A generator following `cfg`.
    pub fn new(cfg: &ChurnConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xc4c3_a1b2_95d1_e7f3),
            insert_ratio: cfg.insert_ratio.clamp(0.0, 1.0),
            batch_size: cfg.batch_size.max(1),
            protected: HashSet::new(),
            relations: None,
            fresh: 0,
        }
    }

    /// Protects annotations from deletion (chainable).
    pub fn protect(mut self, annots: impl IntoIterator<Item = AnnotId>) -> Self {
        self.protected.extend(annots);
        self
    }

    /// Restricts churn to `rels` (chainable). By default every relation of
    /// the database may receive inserts and deletes.
    pub fn restrict_to(mut self, rels: impl IntoIterator<Item = RelId>) -> Self {
        self.relations = Some(rels.into_iter().collect());
        self
    }

    /// Draws the next batch against the current state of `db`. Deletes
    /// target live, unprotected tuples; inserts column-mix two live donor
    /// rows of a randomly chosen non-empty relation. Either kind degrades
    /// to the other when the database offers no candidates (e.g. deletes on
    /// an empty database become inserts only if a donor exists; with no
    /// donors at all the change is dropped).
    pub fn next_batch(&mut self, db: &Database) -> Delta {
        let rels: Vec<RelId> = match &self.relations {
            Some(r) => r.clone(),
            None => db.schema().relation_ids().collect(),
        };
        let nonempty: Vec<RelId> = rels
            .iter()
            .copied()
            .filter(|&r| db.relation_len(r) > 0)
            .collect();
        let mut delta = Delta::new();
        // Deletes already queued this batch: a tuple may die only once.
        let mut dying: HashSet<AnnotId> = HashSet::new();
        for _ in 0..self.batch_size {
            let want_insert = self.rng.random_bool(self.insert_ratio);
            if want_insert || nonempty.is_empty() {
                if let Some((rel, tuple)) = self.mix_tuple(db, &nonempty) {
                    let label = format!("chg{}", self.fresh);
                    self.fresh += 1;
                    delta.insert(rel, label, tuple);
                }
            } else if let Some(a) = self.pick_victim(db, &nonempty, &dying) {
                dying.insert(a);
                delta.delete(a);
            }
        }
        delta
    }

    /// Column-mixes two random rows of a random non-empty relation.
    ///
    /// Donor cells are read straight from the columnar storage as interned
    /// ids; only the chosen cells decode into the emitted tuple (the
    /// [`Delta`] boundary is owned). Nothing else of the donor rows is
    /// materialized.
    fn mix_tuple(
        &mut self,
        db: &Database,
        nonempty: &[RelId],
    ) -> Option<(RelId, provabs_relational::Tuple)> {
        if nonempty.is_empty() {
            return None;
        }
        let rel = nonempty[self.rng.random_range(0..nonempty.len())];
        let n = db.relation_len(rel);
        let a = self.rng.random_range(0..n);
        let b = self.rng.random_range(0..n);
        let tuple = (0..db.schema().arity(rel))
            .map(|col| {
                let row = if self.rng.random_bool(0.5) { a } else { b };
                db.value(db.column(rel, col)[row]).clone()
            })
            .collect();
        Some((rel, tuple))
    }

    /// Picks a live, unprotected annotation to delete (bounded retries so a
    /// heavily protected database cannot stall the stream).
    fn pick_victim(
        &mut self,
        db: &Database,
        nonempty: &[RelId],
        dying: &HashSet<AnnotId>,
    ) -> Option<AnnotId> {
        for _ in 0..32 {
            let rel = nonempty[self.rng.random_range(0..nonempty.len())];
            let annots = db.tuple_annots(rel);
            let a = annots[self.rng.random_range(0..annots.len())];
            if !self.protected.contains(&a) && !dying.contains(&a) {
                return Some(a);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, TpchConfig};
    use provabs_relational::{parse_cq, Evaluator, Updater};

    fn small_db() -> Database {
        generate(&TpchConfig {
            lineitem_rows: 200,
            seed: 5,
        })
        .0
    }

    #[test]
    fn stream_is_deterministic() {
        let cfg = ChurnConfig {
            batch_size: 8,
            insert_ratio: 0.5,
            seed: 9,
        };
        let db = small_db();
        let a = ChurnGenerator::new(&cfg).next_batch(&db);
        let b = ChurnGenerator::new(&cfg).next_batch(&db);
        assert_eq!(a, b);
        let c = ChurnGenerator::new(&ChurnConfig { seed: 10, ..cfg }).next_batch(&db);
        assert_ne!(a, c);
    }

    #[test]
    fn insert_ratio_controls_the_mix() {
        let db = small_db();
        let grow = ChurnGenerator::new(&ChurnConfig {
            batch_size: 64,
            insert_ratio: 1.0,
            seed: 3,
        })
        .next_batch(&db);
        assert_eq!(grow.inserts.len(), 64);
        assert!(grow.deletes.is_empty());
        let shrink = ChurnGenerator::new(&ChurnConfig {
            batch_size: 64,
            insert_ratio: 0.0,
            seed: 3,
        })
        .next_batch(&db);
        assert!(shrink.inserts.is_empty());
        assert_eq!(shrink.deletes.len(), 64);
        let mixed = ChurnGenerator::new(&ChurnConfig {
            batch_size: 64,
            insert_ratio: 0.5,
            seed: 3,
        })
        .next_batch(&db);
        assert!(!mixed.inserts.is_empty() && !mixed.deletes.is_empty());
    }

    #[test]
    fn protected_annotations_survive() {
        let mut db = small_db();
        let protected: HashSet<AnnotId> = db.tuple_annots(RelId(0)).iter().copied().collect();
        let mut gen = ChurnGenerator::new(&ChurnConfig {
            batch_size: 32,
            insert_ratio: 0.0,
            seed: 7,
        })
        .protect(protected.iter().copied())
        .restrict_to([RelId(0)]);
        // Region has 5 tuples, all protected: every delete attempt gives up.
        let delta = gen.next_batch(&db);
        assert!(delta.deletes.is_empty());
        db.apply_delta(&delta);
        assert_eq!(db.relation_len(RelId(0)), 5);
    }

    #[test]
    fn heavy_presets_skew_the_mix() {
        let db = small_db();
        let grow = ChurnGenerator::new(&ChurnConfig::insert_heavy(3)).next_batch(&db);
        assert!(grow.inserts.len() > grow.deletes.len() * 3);
        let shrink = ChurnGenerator::new(&ChurnConfig::delete_heavy(3)).next_batch(&db);
        assert!(shrink.deletes.len() > shrink.inserts.len() * 3);
    }

    /// Churn streams as recovery workloads: the materialized stream must
    /// replay cleanly through the durable engine, and a reopen after all of
    /// it must land bit-for-bit on the stream's own oracle.
    #[test]
    fn recovery_stream_round_trips_through_durable_storage() {
        use provabs_relational::storage::{shared, DurableDatabase, DurableOptions, MemVfs};
        let mut db = small_db();
        db.build_indexes();
        for cfg in [ChurnConfig::insert_heavy(21), ChurnConfig::delete_heavy(21)] {
            let (deltas, oracle) = recovery_stream(&db, &cfg, 6);
            assert_eq!(deltas.len(), 6);
            let vfs = shared(MemVfs::new());
            let mut ddb = DurableDatabase::create(
                vfs.clone(),
                "churn",
                db.clone(),
                DurableOptions::default(),
            )
            .unwrap();
            for delta in &deltas {
                ddb.apply_delta(delta).unwrap();
            }
            drop(ddb);
            let (re, info) =
                DurableDatabase::open(vfs, "churn", DurableOptions::default()).unwrap();
            assert_eq!(info.committed_txns, 6);
            assert!(re.db().same_state(&oracle), "reopen != churn oracle");
        }
    }

    #[test]
    fn batches_stay_applicable_and_maintainable_over_many_steps() {
        let (mut db, rels) = generate(&TpchConfig {
            lineitem_rows: 300,
            seed: 11,
        });
        let q = parse_cq(
            "Q(ok) :- Orders(ok, ck, st, yr, '1-URGENT'), Lineitem(ok, pk, sk, ln, qt, rf, sm)",
            db.schema(),
        )
        .unwrap();
        let (mut cached, _) = Evaluator::new(&db).eval_cq(&q);
        let mut gen = ChurnGenerator::new(&ChurnConfig {
            batch_size: 12,
            insert_ratio: 0.5,
            seed: 13,
        })
        .restrict_to([rels.orders, rels.lineitem]);
        let before = db.len();
        for step in 0..10 {
            let delta = gen.next_batch(&db);
            assert!(!delta.is_empty(), "step {step} produced nothing");
            let out = Updater::new().apply(&mut db, &delta, std::slice::from_ref(&q));
            assert!(out.deltas[0].merge_into(&mut cached), "step {step}");
            assert_eq!(cached, Evaluator::new(&db).eval_cq(&q).0, "step {step}");
        }
        // Roughly balanced churn keeps the database near its original size.
        let after = db.len() as f64 / before as f64;
        assert!((0.8..1.2).contains(&after), "size drifted to {after}");
    }
}
