//! Experiment harness reproducing the paper's evaluation (§5).
//!
//! One runner per figure/table; the `figures` binary drives them and prints
//! the series each figure plots (plus CSV files under `results/`). Absolute
//! numbers differ from the paper (Rust vs Java 13, synthetic vs raw
//! datasets, laptop-scale sizes); the reproduced claims
//! are the *shapes*: who wins, what grows, where the crossovers sit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod figures;
pub mod gate;
pub mod intern;
pub mod plancache;
pub mod planner;
pub mod report;
pub mod scenario;
pub mod sched;
pub mod service;
pub mod storage;
pub mod updates;
pub mod user_study;
pub mod vectorized;

pub use durability::{run_durability_comparison, DurabilitySettings};
pub use gate::{check, Gate, Rule, GATES};
pub use intern::{run_intern_comparison, InternSettings};
pub use plancache::{run_plancache_comparison, PlanCacheSettings};
pub use planner::{run_planner_comparison, PlannerSettings};
pub use report::{
    gate_table, parse_gate_json, print_table, write_csv, write_gate_json, Field, GateEntry,
    Measurement,
};
pub use scenario::{
    imdb_scenarios, run_search, tpch_scenarios, HarnessCaps, Scenario, ScenarioSettings,
};
pub use sched::{run_sched_sweeps, SchedSettings};
pub use service::{run_service_comparison, ServiceSettings};
pub use storage::{run_storage_comparison, StorageSettings};
pub use updates::{run_update_comparison, UpdateSettings};
pub use vectorized::{run_vectorized_comparison, VectorizedSettings};
