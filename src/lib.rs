//! # provabs — privacy/utility trade-off optimization for data provenance
//!
//! A Rust implementation of *"On Optimizing the Trade-off between Privacy
//! and Utility in Data Provenance"* (Deutch, Frankenthal, Gilad, Moskovitch —
//! SIGMOD 2021), including every substrate the paper relies on:
//!
//! * [`semiring`] — provenance polynomials (`N[X]`), the coarser provenance
//!   semirings, aggregate semimodules;
//! * [`relational`] — annotated databases, CQ/UCQ queries and parser,
//!   provenance-tracking evaluation, K-examples;
//! * [`tree`] — provenance abstraction trees;
//! * [`reveng`] — reverse-engineering consistent queries from provenance,
//!   containment orders, CIM extraction;
//! * [`core`] — the paper's contribution: abstraction functions,
//!   concretizations, loss of information, privacy (Algorithm 1), optimal
//!   abstraction search (Algorithm 2), the dual problem, and the
//!   compression baseline of \[24\];
//! * [`datagen`] — synthetic TPC-H / IMDB generators and the paper's
//!   workload queries.
//!
//! # Quickstart
//!
//! ```
//! use provabs::core::{fixtures, search::{find_optimal_abstraction, SearchConfig}};
//! use provabs::core::privacy::PrivacyConfig;
//!
//! // The paper's running example: an advertising database, the Figure 3
//! // abstraction tree, and the output of the confidential query Qreal.
//! let fx = fixtures::running_example();
//! let bound = provabs::core::Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
//!
//! // Find the cheapest abstraction with privacy >= 2 (Example 3.15).
//! let cfg = SearchConfig {
//!     privacy: PrivacyConfig { threshold: 2, ..Default::default() },
//!     ..Default::default()
//! };
//! let best = find_optimal_abstraction(&bound, &cfg).best.unwrap();
//! assert_eq!(best.privacy, 2);
//! assert!((best.loi - 15f64.ln()).abs() < 1e-9); // ln |C| = ln 15
//! ```
//!
//! # Maintaining results under updates
//!
//! Cached provenance survives database churn through delta maintenance
//! (the README's churn quickstart, verified here):
//!
//! ```
//! use provabs::relational::{parse_cq, Database, Delta, Evaluator, Tuple, Updater};
//!
//! let mut db = Database::new();
//! let r = db.add_relation("R", &["a", "b"]);
//! let s = db.add_relation("S", &["b"]);
//! db.insert_str(r, "r1", &["1", "10"]);
//! db.insert_str(s, "s1", &["10"]);
//! db.build_indexes();
//! let q = parse_cq("Q(x) :- R(x, y), S(y)", db.schema()).unwrap();
//! let (mut cached, _) = Evaluator::new(&db).eval_cq(&q);
//!
//! let mut delta = Delta::new();
//! delta.insert(r, "r2", Tuple::parse(&["2", "10"]));
//! delta.delete(db.annotations().get("s1").unwrap());
//!
//! let out = Updater::new().apply(&mut db, &delta, std::slice::from_ref(&q));
//! assert!(out.deltas[0].merge_into(&mut cached));
//! assert_eq!(cached, Evaluator::new(&db).eval_cq(&q).0); // bit-for-bit equal to re-eval
//! ```

#![forbid(unsafe_code)]

pub use provabs_core as core;
pub use provabs_datagen as datagen;
pub use provabs_relational as relational;
pub use provabs_reveng as reveng;
pub use provabs_semiring as semiring;
pub use provabs_tree as tree;
