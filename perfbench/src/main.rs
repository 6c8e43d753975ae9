//! End-to-end benchmark of the paper's operation and of the `provabsd`
//! service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <publish-paper|tradeoff-sweep|serve-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *rounds* until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]). A round builds its inputs from the seed (set-up) and then
//! runs the workload's request list in order on one thread. Every round
//! builds the same inputs, so the deterministic counters and the per-request
//! digests must repeat exactly, and the outputs are checked every round.
//! Latency figures use each request's best latency over the rounds, which
//! keeps bursts of machine noise out of the result.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` every round runs twice, untraced
//! then traced, and the object holds the per-layer metrics, including the
//! tracing overhead (traced minus untraced latency). Per-request input and
//! answer digests precede it; a traced run prints each request's spans on
//! standard error.

mod digest;
mod publish;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{mean, quantile, Trace};

/// Fewest untraced rounds a run measures (set-up time is their median).
const MIN_ROUNDS: u64 = 3;

/// What one round observed.
pub struct Round {
    /// Set-up time of the round in seconds.
    pub setup_s: f64,
    /// Spans, counters and timings of the round.
    pub trace: Trace,
    /// Request class per completed request (`publish`, `query`, `apply`).
    pub classes: Vec<&'static str>,
    /// Latency per completed request in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests that returned a definite answer.
    pub answered: u64,
    /// Requests that errored.
    pub failures: Vec<String>,
    /// Output-check mismatches.
    pub wrong: Vec<String>,
    /// Per-request input digests.
    pub inputs: Vec<String>,
    /// Per-request answer digests.
    pub answers: Vec<String>,
}

impl Round {
    fn new(setup_s: f64, trace: Trace) -> Self {
        Self {
            setup_s,
            trace,
            classes: Vec::new(),
            latencies_ms: Vec::new(),
            answered: 0,
            failures: Vec::new(),
            wrong: Vec::new(),
            inputs: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Records a request that completed (`answered == false`: it stopped
    /// without a definite answer, e.g. at a search cap).
    fn request(
        &mut self,
        class: &'static str,
        latency_ms: f64,
        answered: bool,
        input: String,
        answer: String,
    ) {
        self.classes.push(class);
        self.latencies_ms.push(latency_ms);
        self.answered += u64::from(answered);
        self.inputs.push(input);
        self.answers.push(answer);
    }

    /// Records a request that errored.
    fn fail(&mut self, why: String) {
        self.inputs.push(format!("failed: {why}"));
        self.answers.push(String::new());
        self.failures.push(why);
    }

    /// Records an output-check mismatch.
    fn wrong(&mut self, why: String) {
        self.wrong.push(why);
    }

    fn attempted(&self) -> usize {
        self.latencies_ms.len() + self.failures.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PublishPaper,
    TradeoffSweep,
    ServeChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "publish-paper" => Some(Self::PublishPaper),
            "tradeoff-sweep" => Some(Self::TradeoffSweep),
            "serve-churn" => Some(Self::ServeChurn),
            _ => None,
        }
    }

    /// One round of a run seeded `seed`.
    fn round(self, seed: u64, traced: bool) -> Round {
        match self {
            Self::PublishPaper => publish::round(publish::Mode::Paper, seed, traced),
            Self::TradeoffSweep => publish::round(publish::Mode::Sweep, seed, traced),
            Self::ServeChurn => serve::round(seed, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The generic end-to-end figures of a set of rounds.
struct Figures {
    geomean_ms: f64,
    p90_ms: f64,
    requests_per_s: f64,
}

/// Each request's best latency over `rounds` (which ran the same request
/// list), for the requests of `class` (`None`: all). The machine this runs
/// on slows down for seconds at a time; the best of the repetitions is the
/// figure such bursts leave alone.
fn request_best(rounds: &[&Round], class: Option<&str>) -> Vec<f64> {
    let first = rounds[0];
    (0..first.latencies_ms.len())
        .filter(|&j| class.is_none_or(|c| first.classes[j] == c))
        .map(|j| {
            rounds
                .iter()
                .filter_map(|r| r.latencies_ms.get(j).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Requests per second of busy time.
fn per_second(latencies_ms: &[f64]) -> f64 {
    latencies_ms.len() as f64 / (latencies_ms.iter().sum::<f64>() / 1e3)
}

fn figures(rounds: &[&Round]) -> Figures {
    let best = request_best(rounds, None);
    let log_mean = best.iter().map(|l| l.ln()).sum::<f64>() / best.len() as f64;
    Figures {
        geomean_ms: log_mean.exp(),
        p90_ms: quantile(&best, 0.9),
        requests_per_s: per_second(&best),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run, with their units. Counters are
/// per round (every round repeats them).
fn per_layer(plain: &[&Round], traced: &[&Round]) -> Vec<(&'static str, f64, &'static str)> {
    let fixed = traced[0];
    let c = |n: &str| fixed.trace.counter(n);
    let cf = |n: &str| c(n) as f64;
    // Mean span time per call across the traced rounds.
    let span_ms = |layer: &str| {
        let xs: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.trace.layer_ms(layer))
            .collect();
        mean(&xs)
    };
    let span_max_ms = |layer: &str| {
        traced
            .iter()
            .flat_map(|r| r.trace.layer_ms(layer))
            .fold(0.0, f64::max)
    };
    let timing_median = |n: &str| {
        let xs: Vec<f64> = plain.iter().map(|r| r.trace.timing(n)).collect();
        quantile(&xs, 0.5)
    };
    let publish = request_best(plain, Some("publish"));
    let queries = request_best(plain, Some("query"));
    let applies = request_best(plain, Some("apply"));
    let serve_ops: Vec<f64> = queries.iter().chain(&applies).copied().collect();
    let untraced = figures(plain);
    let with_trace = figures(traced);
    let attempted: usize = plain.iter().map(|r| r.attempted()).sum();
    let failed: usize = plain.iter().map(|r| r.failures.len()).sum();
    let applied = c("provabsd.applied");
    vec![
        ("relational.eval.eval_ms", span_ms("relational.eval"), "ms"),
        (
            "relational.eval.rows_examined",
            cf("relational.eval.rows_examined"),
            "count",
        ),
        (
            "relational.eval.derivations",
            cf("relational.eval.derivations"),
            "count",
        ),
        (
            "relational.eval.answer_rows_per_row_examined",
            ratio(
                c("relational.eval.answer_rows"),
                c("relational.eval.rows_examined"),
            ),
            "ratio",
        ),
        (
            "relational.kexample.select_ms",
            span_ms("relational.kexample"),
            "ms",
        ),
        ("core.bound.new_ms", span_ms("core.bound"), "ms"),
        ("core.bound.new_ms_max", span_max_ms("core.bound"), "ms"),
        (
            "core.bound.occurrences",
            cf("core.bound.occurrences"),
            "count",
        ),
        ("core.search.search_ms", span_ms("core.search"), "ms"),
        (
            "core.search.abstractions_enumerated",
            cf("core.search.abstractions_enumerated"),
            "count",
        ),
        (
            "core.search.loi_evaluations",
            cf("core.search.loi_evaluations"),
            "count",
        ),
        (
            "core.search.privacy_evaluations",
            cf("core.search.privacy_evaluations"),
            "count",
        ),
        (
            "core.search.rows_abstracted",
            cf("core.search.rows_abstracted"),
            "count",
        ),
        (
            "core.search.abs_cache_hits",
            cf("core.search.abs_cache_hits"),
            "count",
        ),
        (
            "core.search.truncated_requests",
            cf("core.search.truncated_requests"),
            "count",
        ),
        (
            "core.search.cap_hit.candidates",
            cf("core.search.cap_hit.candidates"),
            "count",
        ),
        (
            "core.search.cap_hit.concretizations",
            cf("core.search.cap_hit.concretizations"),
            "count",
        ),
        (
            "core.privacy.concretizations_enumerated",
            cf("core.privacy.concretizations_enumerated"),
            "count",
        ),
        (
            "core.privacy.concretizations_kept",
            cf("core.privacy.concretizations_kept"),
            "count",
        ),
        (
            "core.privacy.kept_ratio",
            ratio(
                c("core.privacy.concretizations_kept"),
                c("core.privacy.concretizations_enumerated"),
            ),
            "ratio",
        ),
        (
            "core.privacy.consistency_hits",
            cf("core.privacy.consistency_hits"),
            "count",
        ),
        (
            "core.privacy.consistency_misses",
            cf("core.privacy.consistency_misses"),
            "count",
        ),
        (
            "core.privacy.consistency_hit_ratio",
            ratio(
                c("core.privacy.consistency_hits"),
                c("core.privacy.consistency_hits") + c("core.privacy.consistency_misses"),
            ),
            "ratio",
        ),
        (
            "core.privacy.connectivity_hits",
            cf("core.privacy.connectivity_hits"),
            "count",
        ),
        (
            "core.privacy.connectivity_misses",
            cf("core.privacy.connectivity_misses"),
            "count",
        ),
        // Every consistency-cache miss is one `find_consistent_queries` call.
        (
            "reveng.calls",
            cf("core.privacy.consistency_misses"),
            "count",
        ),
        ("provabsd.admitted", cf("provabsd.admitted"), "count"),
        ("provabsd.rejected", cf("provabsd.rejected"), "count"),
        ("provabsd.cancelled", cf("provabsd.cancelled"), "count"),
        (
            "provabsd.max_request_work",
            cf("provabsd.max_request_work"),
            "count",
        ),
        ("provabsd.apply_ms", span_ms("provabsd.apply"), "ms"),
        (
            "provabsd.epochs_published",
            cf("provabsd.epochs_published"),
            "count",
        ),
        (
            "relational.session.pin_us",
            span_ms("relational.session") * 1e3,
            "us",
        ),
        (
            "relational.session.repins",
            cf("relational.session.repins"),
            "count",
        ),
        (
            "relational.plancache.hits",
            cf("relational.plancache.hits"),
            "count",
        ),
        (
            "relational.plancache.misses",
            cf("relational.plancache.misses"),
            "count",
        ),
        (
            "relational.plancache.invalidations",
            cf("relational.plancache.invalidations"),
            "count",
        ),
        (
            "relational.plancache.hit_ratio",
            ratio(
                c("relational.plancache.hits"),
                c("relational.plancache.hits") + c("relational.plancache.misses"),
            ),
            "ratio",
        ),
        (
            "relational.storage.bytes_written",
            cf("relational.storage.bytes_written"),
            "B",
        ),
        (
            "relational.storage.writes",
            cf("relational.storage.writes"),
            "count",
        ),
        (
            "relational.storage.syncs",
            cf("relational.storage.syncs"),
            "count",
        ),
        (
            "relational.storage.bytes_written_per_txn",
            ratio(c("relational.storage.bytes_written"), applied),
            "B",
        ),
        (
            "datagen.generate_ms",
            timing_median("datagen.generate_ms"),
            "ms",
        ),
        ("tree.build_ms", timing_median("tree.build_ms"), "ms"),
        ("publish.p50_ms", quantile(&publish, 0.5), "ms"),
        ("publish.p75_ms", quantile(&publish, 0.75), "ms"),
        ("publish.total_s", publish.iter().sum::<f64>() / 1e3, "s"),
        ("serve.query_p50_ms", quantile(&queries, 0.5), "ms"),
        ("serve.query_p99_ms", quantile(&queries, 0.99), "ms"),
        ("serve.apply_p50_ms", quantile(&applies, 0.5), "ms"),
        ("serve.apply_p90_ms", quantile(&applies, 0.9), "ms"),
        (
            "serve.ops_per_s",
            if serve_ops.is_empty() {
                0.0
            } else {
                per_second(&serve_ops)
            },
            "1/s",
        ),
        (
            "failed_share",
            ratio(failed as u64, attempted as u64),
            "ratio",
        ),
        (
            "overhead.request_geomean_ms",
            with_trace.geomean_ms - untraced.geomean_ms,
            "ms",
        ),
        (
            "overhead.request_p90_ms",
            with_trace.p90_ms - untraced.p90_ms,
            "ms",
        ),
    ]
}

/// Prints every span of the first traced round on standard error, one
/// request per line, so a slow call is attributed to its request.
fn print_spans(r: &Round) {
    let mut by_request: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for s in r.trace.spans() {
        by_request.entry(s.request).or_default().push(format!(
            "{}={:.3}ms",
            s.layer,
            s.dur_ns as f64 / 1e6
        ));
    }
    for (id, spans) in by_request {
        let what = r.inputs.get(id).map_or("", String::as_str);
        let what = what.split(" example=").next().unwrap_or(what);
        eprintln!("span {id} [{what}] {}", spans.join(" "));
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <publish-paper|tradeoff-sweep|serve-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(args.workload.round(args.seed, false));
        if args.trace {
            rounds.push(args.workload.round(args.seed, true));
        }
        // The traced run's latencies are not the end-to-end figures, so it
        // needs no minimum beyond one pair.
        let plain = rounds.iter().filter(|r| !r.trace.on()).count() as u64;
        let min = if args.trace { 1 } else { MIN_ROUNDS };
        if plain >= min && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Every round builds the same inputs, traced or not: its digests and
    // counters must equal round 0's.
    let first = &rounds[0];
    for (j, (input, answer)) in first.inputs.iter().zip(&first.answers).enumerate() {
        println!("input {j} {input}");
        println!("answer {j} {answer}");
    }
    let mut problems: Vec<String> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        problems.extend(r.wrong.iter().map(|w| format!("round {i}: {w}")));
        if r.inputs != first.inputs || r.answers != first.answers {
            problems.push(format!("round {i}: digests differ from round 0"));
        }
        if r.trace.counters() != first.trace.counters() {
            problems.push(format!("round {i}: work counters differ from round 0"));
        }
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    for f in rounds.iter().flat_map(|r| &r.failures) {
        eprintln!("perfbench: request failed: {f}");
    }

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.trace.on()).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.trace.on()).collect();
    let attempted: usize = plain.iter().map(|r| r.attempted()).sum();
    let failed: usize = plain.iter().map(|r| r.failures.len()).sum();
    let answered: u64 = plain.iter().map(|r| r.answered).sum();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        print_spans(traced[0]);
        per_layer(&plain, &traced)
    } else {
        let f = figures(&plain);
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        vec![
            ("setup_s", quantile(&setups, 0.5), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("answered_share", ratio(answered, attempted as u64), "ratio"),
            ("request_geomean_ms", f.geomean_ms, "ms"),
            ("request_p90_ms", f.p90_ms, "ms"),
            ("requests_per_s", f.requests_per_s, "1/s"),
        ]
    };
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
