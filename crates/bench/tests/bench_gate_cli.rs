//! `bench_gate` usage errors exit with status 2 before any harness runs.

use std::process::Command;

fn bench_gate(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("run bench_gate")
        .status
        .code()
}

#[test]
fn a_baseline_of_another_bench_is_a_usage_error() {
    let out = std::env::temp_dir().join("provabs_bench_gate_cli.json");
    let out = out.to_str().expect("utf-8 temp path");
    let check = ["--bench", "service", "--check", "BENCH_7.json", out];
    assert_eq!(bench_gate(&check), Some(2));
}

#[test]
fn an_unknown_bench_is_a_usage_error() {
    assert_eq!(
        bench_gate(&["--bench", "nope", "--emit", "x.json"]),
        Some(2)
    );
}
