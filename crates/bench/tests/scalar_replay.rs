//! Scalar-replay determinism contract: the vectorized rebuild of the
//! evaluation hot path must not disturb a single counter recorded on the
//! scalar engine.
//!
//! The checked-in `BENCH_4.json` / `BENCH_5.json` baselines were emitted
//! before the block pipeline existed. Re-running their gate configurations
//! today — through the `Evaluator`/`Updater` builders pinned to
//! [`Execution::Scalar`] — must reproduce every deterministic counter
//! **exactly**, not merely within the perf gate's 15% tolerance. Any drift
//! means the scalar path stopped being a bit-identical replay of the
//! pre-vectorization engine, which breaks the migration story for every
//! downstream baseline.
//!
//! Every count field of every entry is diffed, so a counter added later is
//! covered without editing this test; wall-clock fields (`*_ms`) are the
//! only ones excluded.

use provabs_bench::{
    parse_gate_json, run_planner_comparison, run_storage_comparison, GateEntry, PlannerSettings,
    StorageSettings,
};

fn replay_exactly(baseline_file: &str, current: Vec<GateEntry>) {
    let path = format!("{}/../../{baseline_file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let (_, baseline) = parse_gate_json(&text).unwrap_or_else(|| panic!("parse {baseline_file}"));
    assert!(!baseline.is_empty(), "{baseline_file} is empty");
    for base in &baseline {
        let cur = current
            .iter()
            .find(|m| m.name == base.name)
            .unwrap_or_else(|| panic!("{}: scenario vanished from the sweep", base.name));
        assert_eq!(
            cur.counts(),
            base.counts(),
            "{}: counters drifted",
            base.name
        );
        assert_eq!(
            cur.get_flag("equal"),
            Some(true),
            "{}: outputs diverged from the oracle",
            base.name
        );
    }
}

#[test]
fn storage_counters_replay_bench_4_exactly() {
    replay_exactly(
        "BENCH_4.json",
        run_storage_comparison(&StorageSettings::ci_gate()),
    );
}

#[test]
fn planner_counters_replay_bench_5_exactly() {
    replay_exactly(
        "BENCH_5.json",
        run_planner_comparison(&PlannerSettings::ci_gate()),
    );
}
