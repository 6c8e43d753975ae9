//! Attacker's view: how much does abstracted provenance reveal?
//!
//! Plays both sides on an IMDB-style dataset: the publisher releases the
//! provenance of the "bacon number 1" query (IMDB-Q3) either raw or
//! abstracted; the attacker reverse-engineers the candidate CIM queries and
//! tries to pin the original.
//!
//! ```text
//! cargo run --release --example imdb_attacker
//! ```

use provabs::core::privacy::{compute_privacy, PrivacyCache, PrivacyConfig};
use provabs::core::search::{find_optimal_abstraction, SearchConfig};
use provabs::core::{Abstraction, Bound};
use provabs::datagen::imdb::{self, ImdbConfig};
use provabs::datagen::kexample_for;
use provabs::reveng::{find_consistent_queries, RevOptions};

fn main() {
    let (db_proto, rels) = imdb::generate(&ImdbConfig::default());
    let q3 = imdb::imdb_queries(db_proto.schema())
        .into_iter()
        .find(|w| w.name == "IMDB-Q3")
        .expect("IMDB-Q3");
    let mut db = db_proto;
    let example = kexample_for(&db, &q3.query, 2).expect("two rows");
    let tree = imdb::imdb_tree(&mut db, &rels);
    let bound = Bound::new(&db, &tree, &example).unwrap();

    println!("hidden query: {}", q3.query.display(db.schema()));
    println!(
        "\npublished raw provenance:\n{}",
        example.to_string_with(db.annotations())
    );

    // --- Attacker vs raw provenance.
    let rows = example.resolve(&db).unwrap();
    let frontier = find_consistent_queries(&rows, &RevOptions::default());
    println!(
        "\nattacker on RAW provenance reconstructs {} candidate(s):",
        frontier.len()
    );
    for q in frontier.cqs() {
        println!("  {}", q.display(db.schema()));
    }

    // --- Publisher abstracts to privacy >= 2.
    let search = find_optimal_abstraction(
        &bound,
        &SearchConfig {
            privacy: PrivacyConfig {
                threshold: 2,
                ..Default::default()
            },
            time_budget_ms: Some(15_000),
            ..Default::default()
        },
    );
    let Some(best) = search.best else {
        println!("\n(no abstraction met the threshold within the budget)");
        return;
    };
    let abstracted = best.abstraction.apply(&bound);
    println!(
        "\npublished ABSTRACTED provenance (LOI {:.2}):\n{}",
        best.loi,
        abstracted.to_string_with(&bound, db.annotations())
    );

    // --- Attacker vs abstracted provenance: every CIM query is a plausible
    // hidden query; the attacker cannot tell which one is real.
    let cache = PrivacyCache::new();
    let outcome = compute_privacy(
        &bound,
        &abstracted.rows,
        &PrivacyConfig {
            threshold: 1,
            ..Default::default()
        },
        &cache,
    );
    println!(
        "\nattacker on abstracted provenance faces {} indistinguishable CIM queries:",
        outcome.privacy.unwrap_or(0)
    );
    for q in outcome.cim.iter().take(6) {
        println!("  {}", q.display(db.schema()));
    }
    let identity = Abstraction::identity(&bound);
    assert_eq!(identity.edges_used(), 0); // sanity: raw = identity abstraction
}
