//! Annotated relational layer for the provabs system.
//!
//! Implements the §2.1 preliminaries of *"On Optimizing the Trade-off between
//! Privacy and Utility in Data Provenance"* (SIGMOD 2021): database schemas
//! over a domain of constants, **abstractly-tagged K-databases** (every tuple
//! annotated with a distinct element of the annotation set `X`), unions of
//! conjunctive queries, provenance-tracking query evaluation in `N[X]`
//! (Def. 2.2), and **K-examples** (Def. 2.4) — pairs of output examples and
//! their provenance.
//!
//! # Example
//!
//! ```
//! use provabs_relational::{Database, parse_cq, Evaluator};
//!
//! let mut db = Database::new();
//! let person = db.add_relation("Person", &["pid", "name", "age"]);
//! db.insert_str(person, "p1", &["1", "James T", "27"]);
//! db.insert_str(person, "p2", &["2", "Brenda P", "31"]);
//!
//! let q = parse_cq("Q(id) :- Person(id, name, age)", db.schema()).unwrap();
//! let (out, _work) = Evaluator::new(&db).eval_cq(&q);
//! assert_eq!(out.len(), 2);
//! ```
//!
//! Every evaluation goes through [`Evaluator`] (CQs, UCQs, delta passes,
//! batches; owned or [interned](Evaluator::interned) results) or
//! [`Updater`] (the incremental-maintenance cycle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod delta;
pub mod epochmap;
mod eval;
mod evaluator;
mod exec;
mod interned;
mod kexample;
pub mod oracle;
mod parser;
pub mod plan;
pub mod plancache;
mod query;
mod schema;
pub mod session;
pub mod sharded;
pub mod storage;
mod tuple;
mod value;
mod vintern;

pub use database::{Database, TupleRef};
pub use delta::{
    AppliedDelta, Delta, DeltaEvalOutcome, DeltaInsert, IDeltaEvalOutcome, KRelationDelta,
};
pub use epochmap::EpochMap;
pub use eval::{EvalLimits, EvalWork, KRelation};
pub use evaluator::{Evaluator, InternedEvaluator, Updater};
pub use exec::{Execution, DEFAULT_BLOCK_SIZE};
pub use interned::{IKRelation, IKRelationDelta};
pub use kexample::{monomial_connected, ConcreteRow, KExample, KRow};
pub use parser::{parse_cq, parse_ucq, ParseError};
pub use plan::{plan_cq, PlanMode, PlanStep, PlanTrace, PlanWork, QueryPlan};
pub use plancache::{PlanCache, PlanCacheStats};
pub use query::{Atom, Cq, RelId, Term, Ucq, VarId};
pub use schema::{RelationSchema, Schema};
pub use session::{PublishStats, SessionDb, SessionRegistry, SnapshotWriter};
pub use sharded::ShardedMap;
pub use tuple::Tuple;
pub use value::Value;
pub use vintern::{hash_width, ValueId, ValueInterner, ID_WIDTH, VALUE_MOVE_WIDTH};
