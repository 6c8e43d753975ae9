//! Synthetic datasets and workloads for the provabs experiments (§5.1).
//!
//! The paper evaluates on a 1 GB TPC-H sample \[5\] and the IMDB dataset \[37\].
//! Neither raw dataset ships with this reproduction, so this crate provides
//! deterministic, seeded generators with the same *structural* properties
//! the experiments exercise (key-joinable relations, self-joinable fact
//! tables, categorizable attributes), plus:
//!
//! * the 7 TPC-H queries (Q3, Q4, Q5, Q7, Q9, Q10, Q21) and 7 IMDB queries
//!   (Q1–Q7) adapted to CQs exactly as §5.1 prescribes (aggregation and
//!   arithmetic predicates dropped);
//! * the paper's abstraction trees: the TPC-H tree (lineitem randomly
//!   divided into even subcategories) and the IMDB ontology tree
//!   (birth-year / release-year ranges, genre types);
//! * workload helpers turning query outputs into K-examples and deriving
//!   the join-scaling variants of Figure 16;
//! * update-stream (churn) generators feeding the incremental update
//!   engine with deterministic insert/delete batches ([`churn`]);
//! * closed-loop service workloads — zipf-skewed query schedules with
//!   interleaved churn — for the `provabsd` session service ([`service`]);
//! * adversarially-ordered query variants stressing the cost-based planner
//!   ([`adversarial`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod churn;
pub mod imdb;
pub mod service;
pub mod tpch;
pub mod workload;

pub use adversarial::{adversarial_order, adversarial_workloads};
pub use churn::{recovery_stream, ChurnConfig, ChurnGenerator};
pub use service::{service_schedule, ServiceOp, ServiceWorkloadConfig, Zipf};
pub use workload::{join_variants, kexample_for, kexample_for_mode, Workload};
