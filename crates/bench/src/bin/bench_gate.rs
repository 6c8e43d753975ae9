//! The perf-regression gate: emits and checks `BENCH_*.json` baselines.
//!
//! ```text
//! bench_gate [--bench NAME] --emit PATH
//! bench_gate [--bench NAME] --check BASELINE PATH
//! ```
//!
//! `NAME` is one of `updates` (the default, `BENCH_2.json`), `intern`,
//! `storage`, `planner`, `durability`, `vectorized`, `service`, `plancache`
//! or `sched` (`BENCH_10.json`). Each runs its harness at the fixed
//! `ci_gate()` configuration. `--emit` writes the report; `--check` also
//! writes it, then checks it against the baseline under the bench's rule
//! table in [`provabs_bench::GATES`] (see [`provabs_bench::gate`] for the
//! rule vocabulary and the fail-closed protocol).
//!
//! Exit status: 0 clean, 1 regression, 2 usage/IO error — including an
//! unknown bench, or a baseline that does not parse or belongs to another
//! bench.

use provabs_bench::{check, gate_table, write_gate_json, Gate, GATES};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
    eprintln!(
        "usage: bench_gate [--bench {}] --emit PATH | --check BASELINE PATH",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let name = if args.first().map(String::as_str) == Some("--bench") {
        if args.len() < 2 {
            return usage();
        }
        args.drain(0..2).nth(1).expect("two arguments")
    } else {
        GATES[0].name.to_owned()
    };
    let Some(gate) = Gate::named(&name) else {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        eprintln!(
            "bench_gate: unknown bench '{name}'; known benches: {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match args.as_slice() {
        [flag, path] if flag == "--emit" => {
            if let Err(code) = run_and_write(gate, path) {
                return code;
            }
            println!("bench_gate: wrote {path}");
            ExitCode::SUCCESS
        }
        [flag, baseline_path, out_path] if flag == "--check" => {
            let baseline = match std::fs::read_to_string(baseline_path)
                .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))
                .and_then(|text| {
                    gate.read_baseline(&text)
                        .map_err(|e| format!("baseline {baseline_path} is {e}"))
                }) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("bench_gate: {e}");
                    return ExitCode::from(2);
                }
            };
            let current = match run_and_write(gate, out_path) {
                Ok(c) => c,
                Err(code) => return code,
            };
            let failures = check(gate.rules, &baseline, &current);
            if failures.is_empty() {
                println!(
                    "bench_gate: OK ({} entries within tolerance)",
                    baseline.len()
                );
                return ExitCode::SUCCESS;
            }
            for f in &failures {
                eprintln!("bench_gate: REGRESSION: {f}");
            }
            ExitCode::FAILURE
        }
        _ => usage(),
    }
}

/// Runs the gate's harness, writes its report to `path` and prints it.
fn run_and_write(gate: &Gate, path: &str) -> Result<Vec<provabs_bench::GateEntry>, ExitCode> {
    let entries = (gate.run)();
    if let Err(e) = write_gate_json(Path::new(path), gate.bench, &entries) {
        eprintln!("bench_gate: cannot write {path}: {e}");
        return Err(ExitCode::from(2));
    }
    print!("{}", gate_table(&entries));
    Ok(entries)
}
