//! Quickstart: build a database, run a query with provenance tracking,
//! abstract the provenance to a target privacy level, and inspect the
//! result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use provabs::core::loi::LoiDistribution;
use provabs::core::privacy::PrivacyConfig;
use provabs::core::search::{find_optimal_abstraction, SearchConfig};
use provabs::core::{Abstraction, Bound};
use provabs::relational::{parse_cq, Database, Evaluator, KExample};
use provabs::tree::TreeBuilder;

fn main() {
    // 1. An annotated database: every tuple carries a distinct annotation.
    let mut db = Database::new();
    let employees = db.add_relation("Employee", &["eid", "dept", "city"]);
    let sales = db.add_relation("Sale", &["eid", "product"]);
    for (annot, row) in [
        ("e1", ["1", "Retail", "Paris"]),
        ("e2", ["2", "Retail", "Lyon"]),
        ("e3", ["3", "Support", "Paris"]),
        ("e4", ["4", "Retail", "Nice"]),
    ] {
        db.insert_str(employees, annot, &row);
    }
    for (annot, row) in [
        ("s1", ["1", "Laptop"]),
        ("s2", ["2", "Laptop"]),
        ("s3", ["3", "Phone"]),
        ("s4", ["4", "Phone"]),
    ] {
        db.insert_str(sales, annot, &row);
    }
    db.build_indexes();

    // 2. The confidential query: retail employees who sold laptops.
    let query = parse_cq(
        "Q(eid) :- Employee(eid, 'Retail', city), Sale(eid, 'Laptop')",
        db.schema(),
    )
    .unwrap();
    let (output, _work) = Evaluator::new(&db).eval_cq(&query);
    println!("query output ({} rows):", output.len());
    for (tuple, prov) in output.iter() {
        println!("  {tuple}  |  {}", prov.to_string_with(db.annotations()));
    }

    // 3. An abstraction tree grouping annotations into categories.
    let root = db.intern_label("all");
    let emp_cat = db.intern_label("employees");
    let sale_cat = db.intern_label("sales");
    let mut builder = TreeBuilder::new(root);
    builder.add_child(root, emp_cat);
    builder.add_child(root, sale_cat);
    for e in ["e1", "e2", "e3", "e4"] {
        builder.add_child(emp_cat, db.annotations().get(e).unwrap());
    }
    for s in ["s1", "s2", "s3", "s4"] {
        builder.add_child(sale_cat, db.annotations().get(s).unwrap());
    }
    let tree = builder.build();

    // 4. The K-example to publish: both output rows with their provenance.
    let example = KExample::from_krelation(&output, 2);
    let bound = Bound::new(&db, &tree, &example).unwrap();

    // 5. Identity abstraction reveals the query (privacy 1); ask Algorithm 2
    //    for the cheapest abstraction with privacy >= 2.
    let identity = Abstraction::identity(&bound);
    println!(
        "\nidentity abstraction: LOI = {:.3}",
        provabs::core::loi::loss_of_information(&bound, &identity, &LoiDistribution::Uniform)
    );
    let cfg = SearchConfig {
        privacy: PrivacyConfig {
            threshold: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    match find_optimal_abstraction(&bound, &cfg).best {
        Some(best) => {
            println!(
                "optimal abstraction: privacy={} LOI={:.3} edges={}",
                best.privacy, best.loi, best.edges_used
            );
            let abstracted = best.abstraction.apply(&bound);
            println!("published K-example:");
            println!("{}", abstracted.to_string_with(&bound, db.annotations()));
        }
        None => println!("no abstraction reaches privacy 2 on this tree"),
    }
}
