//! A synthetic IMDB-like dataset and the §5.1 IMDB workload.
//!
//! People (with birth years and countries), movies (with release years),
//! genres, and cast/directs edges. Two named anchors — Kevin Bacon and Tom
//! Cruise — are guaranteed to exist with sufficiently many co-stars so that
//! the anchored queries (Q3, Q6) return multiple rows.

use provabs_relational::{parse_cq, Database, RelId, Schema, Value, ValueId};
use provabs_semiring::AnnotId;
use provabs_tree::{AbstractionTree, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Workload;

/// Scale and seed of the generator.
#[derive(Debug, Clone)]
pub struct ImdbConfig {
    /// Number of people (actors and directors).
    pub num_people: usize,
    /// Number of movies.
    pub num_movies: usize,
    /// Average cast size per movie.
    pub cast_per_movie: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        Self {
            num_people: 150,
            num_movies: 150,
            cast_per_movie: 5,
            seed: 42,
        }
    }
}

/// Relation ids of a generated IMDB database.
#[derive(Debug, Clone, Copy)]
pub struct ImdbRelations {
    /// `Person(pid, name, birthyear, country)`.
    pub person: RelId,
    /// `Movie(mid, title, year)`.
    pub movie: RelId,
    /// `Genre(mid, genre)`.
    pub genre: RelId,
    /// `CastIn(mid, pid)`.
    pub cast: RelId,
    /// `Directs(mid, pid)`.
    pub directs: RelId,
}

const GENRES: [&str; 6] = ["Action", "Comedy", "Drama", "Thriller", "Romance", "Horror"];
const COUNTRIES: [&str; 5] = ["USA", "UK", "France", "India", "Japan"];

/// Generates the database.
pub fn generate(cfg: &ImdbConfig) -> (Database, ImdbRelations) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();
    let rels = ImdbRelations {
        person: db.add_relation("Person", &["pid", "pname", "byear", "country"]),
        movie: db.add_relation("Movie", &["mid", "title", "myear"]),
        genre: db.add_relation("Genre", &["mid", "gname"]),
        cast: db.add_relation("CastIn", &["mid", "pid"]),
        directs: db.add_relation("Directs", &["mid", "pid"]),
    };
    let n_people = cfg.num_people.max(20);
    let n_movies = cfg.num_movies.max(20);
    // Direct interned emission: the categorical pools and the dense id key
    // space intern once, every row lands as ids (see the TPC-H generator).
    let genre_ids: Vec<ValueId> = GENRES
        .iter()
        .map(|g| db.intern_value(Value::str(g)))
        .collect();
    let country_ids: Vec<ValueId> = COUNTRIES
        .iter()
        .map(|c| db.intern_value(Value::str(c)))
        .collect();
    let ints: Vec<ValueId> = (0..n_people.max(n_movies) as i64)
        .map(|i| db.intern_value(Value::int(i)))
        .collect();
    // Person 0 is Kevin Bacon, person 1 is Tom Cruise.
    let person_keys: Vec<ValueId> = ints[..n_people].to_vec();
    for (i, &pid) in person_keys.iter().enumerate() {
        let name = match i {
            0 => "Kevin Bacon".to_owned(),
            1 => "Tom Cruise".to_owned(),
            _ => format!("Person {i:05}"),
        };
        // Triangular concentration around 1960: real casts cluster in
        // cohorts, which keeps birth-year *ranges* (the ontology tree's
        // inner nodes) well populated.
        let byear = 1930 + (rng.random_range(0..=32i64) + rng.random_range(0..=33i64));
        let byear = if i == 0 { 1958 } else { byear };
        let country = country_ids[rng.random_range(0..country_ids.len())];
        let name = db.intern_value(Value::str(&name));
        let byear = db.intern_value(Value::int(byear));
        db.insert_ids(rels.person, &format!("pe{i}"), &[pid, name, byear, country]);
    }
    let mut cast_edge = 0usize;
    let mut genre_edge = 0usize;
    for m in 0..n_movies {
        // Concentrated release years (1980–2009, triangular around 1995).
        let year = 1980 + (rng.random_range(0..=14i64) + rng.random_range(0..=15i64));
        // Every 10th movie is from 1995 so Q1 has results.
        let year = if m % 10 == 0 { 1995 } else { year };
        let title = db.intern_value(Value::str(&format!("Movie {m:05}")));
        let year = db.intern_value(Value::int(year));
        db.insert_ids(rels.movie, &format!("mo{m}"), &[ints[m], title, year]);
        // 1–2 genres.
        let g1 = rng.random_range(0..genre_ids.len());
        db.insert_ids(
            rels.genre,
            &format!("ge{genre_edge}"),
            &[ints[m], genre_ids[g1]],
        );
        genre_edge += 1;
        if rng.random_bool(0.4) {
            let g2 = (g1 + 1 + rng.random_range(0..genre_ids.len() - 1)) % genre_ids.len();
            db.insert_ids(
                rels.genre,
                &format!("ge{genre_edge}"),
                &[ints[m], genre_ids[g2]],
            );
            genre_edge += 1;
        }
        // Cast: every 5th movie includes Kevin Bacon, every 7th Tom Cruise.
        let mut members: Vec<usize> = Vec::new();
        if m % 5 == 0 {
            members.push(0);
        }
        if m % 7 == 0 {
            members.push(1);
        }
        while members.len() < cfg.cast_per_movie.max(2) {
            let p = rng.random_range(0..n_people);
            if !members.contains(&p) {
                members.push(p);
            }
        }
        for p in members {
            db.insert_ids(rels.cast, &format!("ca{cast_edge}"), &[ints[m], ints[p]]);
            cast_edge += 1;
        }
        // One director (exactly one per movie, so `m` numbers the edge).
        let d = rng.random_range(0..n_people);
        db.insert_ids(rels.directs, &format!("di{m}"), &[ints[m], ints[d]]);
    }
    db.build_indexes();
    (db, rels)
}

/// The §5.1 IMDB ontology tree:
///
/// 1. people categorized by birth year, then by ranges of years;
/// 2. cast/directs edges categorized similarly by year — we use the
///    *movie's* release year, which clusters the edges of one movie under a
///    shared subcategory (the §4 "similar tuples in proximity" guidance; the
///    paper's wording, "categorized similarly", leaves the year choice
///    open);
/// 3. genre tuples categorized by genre type;
/// 4. movies categorized by release year, then ranges;
/// 5. main categories under the root.
pub fn imdb_tree(db: &mut Database, rels: &ImdbRelations) -> AbstractionTree {
    // Collect the categorization data before interning (borrow discipline).
    // All reads are columnar: year/genre columns decode per *distinct* cell
    // through the dictionary, and the movie-year join below is keyed by the
    // interned movie id — cast/directs edges never decode their key column.
    let int_col = |db: &Database, rel: RelId, col: usize, default: i64| -> Vec<i64> {
        db.column(rel, col)
            .iter()
            .map(|&v| db.value(v).as_int().unwrap_or(default))
            .collect()
    };
    let birth_year_of: Vec<(AnnotId, i64)> = db
        .tuple_annots(rels.person)
        .iter()
        .copied()
        .zip(int_col(db, rels.person, 2, 1970))
        .collect();
    let movie_year: std::collections::HashMap<ValueId, i64> = db
        .column(rels.movie, 0)
        .iter()
        .copied()
        .zip(int_col(db, rels.movie, 2, 2000))
        .collect();
    let movie_year_of: Vec<(AnnotId, i64)> = db
        .tuple_annots(rels.movie)
        .iter()
        .copied()
        .zip(int_col(db, rels.movie, 2, 2000))
        .collect();
    let genre_of: Vec<(AnnotId, String)> = db
        .tuple_annots(rels.genre)
        .iter()
        .zip(db.column(rels.genre, 1))
        .map(|(&a, &g)| (a, db.value(g).as_str().unwrap_or("Unknown").to_owned()))
        .collect();
    let edge_years = |rel: RelId, db: &Database| -> Vec<(AnnotId, i64)> {
        db.tuple_annots(rel)
            .iter()
            .zip(db.column(rel, 0))
            .map(|(&a, mid)| (a, movie_year.get(mid).copied().unwrap_or(2000)))
            .collect()
    };
    let cast_years = edge_years(rels.cast, db);
    let dir_years = edge_years(rels.directs, db);

    let root = db.intern_label("imdb_root");
    let mut b = TreeBuilder::new(root);
    let add_year_category =
        |db: &mut Database, b: &mut TreeBuilder, name: &str, items: &[(AnnotId, i64)]| {
            let cat = db.intern_label(name);
            b.add_child(root, cat);
            // Ranges of 20 years, then single years, then the leaves.
            let mut by_range: std::collections::BTreeMap<i64, Vec<(AnnotId, i64)>> =
                std::collections::BTreeMap::new();
            for &(a, y) in items {
                by_range
                    .entry(y - y.rem_euclid(20))
                    .or_default()
                    .push((a, y));
            }
            for (range_start, members) in by_range {
                let range_label =
                    db.intern_label(&format!("{name}_{range_start}_{}", range_start + 19));
                b.add_child(cat, range_label);
                let mut by_year: std::collections::BTreeMap<i64, Vec<AnnotId>> =
                    std::collections::BTreeMap::new();
                for (a, y) in members {
                    by_year.entry(y).or_default().push(a);
                }
                for (year, annots) in by_year {
                    let year_label = db.intern_label(&format!("{name}_y{year}"));
                    b.add_child(range_label, year_label);
                    for a in annots {
                        b.add_child(year_label, a);
                    }
                }
            }
        };
    add_year_category(db, &mut b, "people_by_birth", &birth_year_of);
    add_year_category(db, &mut b, "cast_by_year", &cast_years);
    add_year_category(db, &mut b, "directs_by_year", &dir_years);
    add_year_category(db, &mut b, "movies_by_year", &movie_year_of);
    // Genres by type.
    let genre_cat = db.intern_label("genres");
    b.add_child(root, genre_cat);
    let mut by_type: std::collections::BTreeMap<String, Vec<AnnotId>> =
        std::collections::BTreeMap::new();
    for (a, g) in genre_of {
        by_type.entry(g).or_default().push(a);
    }
    for (g, annots) in by_type {
        let label = db.intern_label(&format!("genre_{g}"));
        b.add_child(genre_cat, label);
        for a in annots {
            b.add_child(label, a);
        }
    }
    b.build()
}

/// The IMDB workload (§5.1 / Table 6 shapes).
pub fn imdb_queries(schema: &Schema) -> Vec<Workload> {
    let q = |name: &str, text: &str| Workload {
        name: name.to_owned(),
        query: parse_cq(text, schema).unwrap_or_else(|e| panic!("{name}: {e}")),
    };
    vec![
        // Q1: actors starring in a movie from 1995 (3 atoms, 2 joins).
        q(
            "IMDB-Q1",
            "Q(a) :- Person(a, an, ay, ac), CastIn(m, a), Movie(m, t, 1995)",
        ),
        // Q2: actors in a drama directed by an American director (6/5).
        q(
            "IMDB-Q2",
            "Q(a) :- Person(a, an, ay, ac), CastIn(m, a), Movie(m, t, y), \
             Genre(m, 'Drama'), Directs(m, d), Person(d, dn, dy, 'USA')",
        ),
        // Q3: actors with Bacon number 1 (5/4).
        q(
            "IMDB-Q3",
            "Q(a) :- Person(a, an, ay, ac), CastIn(m, a), Movie(m, t, y), \
             CastIn(m, kb), Person(kb, 'Kevin Bacon', ky, kc)",
        ),
        // Q4: directors of both an action and a comedy movie (7/6).
        q(
            "IMDB-Q4",
            "Q(d) :- Person(d, dn, dy, dc), Directs(m1, d), Genre(m1, 'Action'), \
             Movie(m1, t1, y1), Directs(m2, d), Genre(m2, 'Comedy'), Movie(m2, t2, y2)",
        ),
        // Q5: comedy movies starring an actor born in 1978 (4/3).
        q(
            "IMDB-Q5",
            "Q(m) :- Movie(m, t, y), Genre(m, 'Comedy'), CastIn(m, a), \
             Person(a, an, 1978, ac)",
        ),
        // Q6: directors who directed a movie starring Tom Cruise (5/4).
        q(
            "IMDB-Q6",
            "Q(d) :- Person(d, dn, dy, dc), Directs(m, d), Movie(m, t, y), \
             CastIn(m, tc), Person(tc, 'Tom Cruise', ty, tcc)",
        ),
        // Q7: actors in at least two action movies (7/6).
        q(
            "IMDB-Q7",
            "Q(a) :- Person(a, an, ay, ac), CastIn(m1, a), Genre(m1, 'Action'), \
             Movie(m1, t1, y1), CastIn(m2, a), Genre(m2, 'Action'), Movie(m2, t2, y2)",
        ),
    ]
}

/// A seeded RNG consistent with a config, for auxiliary draws.
pub fn rng_for(cfg: &ImdbConfig) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ 0x6a09_e667_f3bc_c909)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::{EvalLimits, Evaluator, Execution};

    #[test]
    fn generator_is_deterministic() {
        let cfg = ImdbConfig::default();
        let (db1, rels) = generate(&cfg);
        let (db2, _) = generate(&cfg);
        assert_eq!(db1.tuples(rels.cast), db2.tuples(rels.cast));
    }

    #[test]
    fn anchors_exist() {
        let (db, rels) = generate(&ImdbConfig::default());
        let people = db.tuples(rels.person);
        let names: Vec<&str> = people.iter().filter_map(|t| t[1].as_str()).collect();
        assert!(names.contains(&"Kevin Bacon"));
        assert!(names.contains(&"Tom Cruise"));
    }

    #[test]
    fn queries_match_table6_shapes() {
        let (db, _) = generate(&ImdbConfig::default());
        let expected = [
            ("IMDB-Q1", 3, 2),
            ("IMDB-Q2", 6, 5),
            ("IMDB-Q3", 5, 4),
            ("IMDB-Q4", 7, 6),
            ("IMDB-Q5", 4, 3),
            ("IMDB-Q6", 5, 4),
            ("IMDB-Q7", 7, 6),
        ];
        for (w, (name, atoms, joins)) in imdb_queries(db.schema()).iter().zip(expected) {
            assert_eq!(w.name, name);
            assert_eq!(w.query.body.len(), atoms, "{name}");
            assert_eq!(w.query.num_joins(), joins, "{name}");
            assert!(w.query.is_connected(), "{name}");
        }
    }

    #[test]
    fn queries_produce_output_rows() {
        let (db, _) = generate(&ImdbConfig::default());
        for w in imdb_queries(db.schema()) {
            // Capped output subset: pinned to the scalar engine.
            let (out, _) = Evaluator::new(&db)
                .execution(Execution::Scalar)
                .limits(EvalLimits {
                    max_outputs: 2,
                    max_derivations: 500_000,
                })
                .eval_cq(&w.query);
            assert!(
                out.len() >= 2,
                "{} produced {} rows; need >= 2",
                w.name,
                out.len()
            );
        }
    }

    #[test]
    fn ontology_tree_covers_all_annotations() {
        let (mut db, rels) = generate(&ImdbConfig {
            num_people: 50,
            num_movies: 40,
            cast_per_movie: 3,
            seed: 5,
        });
        let total = db.len();
        let tree = imdb_tree(&mut db, &rels);
        assert_eq!(tree.num_leaves(), total);
        assert!(tree.compatible_with(&db));
        // Leaves sit at depth 4 (category/range/year/leaf) or 3 (genres).
        for &leaf in tree.leaves() {
            let node = tree.node_by_label(leaf).unwrap();
            assert!(tree.depth(node) >= 3 && tree.depth(node) <= 4);
        }
    }
}
