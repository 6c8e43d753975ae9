//! Exhaustive schedule enumeration: DFS over scheduling decisions with a
//! sleep-set partial-order reduction and an optional preemption bound.
//!
//! Every run spawns fresh virtual threads and replays a prescribed prefix of
//! decisions, then extends it depth-first. Two co-enabled operations that
//! touch different objects (or are both pure reads of the same object)
//! commute, so sleep sets prune one of the two interleavings without losing
//! any reachable state; with `preemption_bound: None` the sweep is therefore
//! exhaustive over the sequentially-consistent state space. A finite
//! preemption bound composes with the reduction as a further (heuristic)
//! cut, trading exhaustiveness for depth.
//!
//! Determinism contract: scenario closures must be deterministic functions
//! of the schedule (no wall clock, no OS randomness, no `RandomState`
//! hashing feeding control flow). Under that contract the explorer visits an
//! identical schedule tree on every machine, so schedule / pruned / decision
//! counts are exact-equality gateable (see `bench_gate --bench sched`).

use crate::runtime::{self, Execution, Op, SchedState, Status, TraceEntry};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Exploration limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Maximum number of preemptions (switches away from a still-enabled
    /// thread) per schedule; `None` sweeps without a bound.
    pub preemption_bound: Option<u32>,
    /// Hard cap on attempted schedules (complete + pruned); exceeding it
    /// stops the sweep with `Outcome::complete == false`. A safety net, not
    /// a tuning knob — sized far above any gated scenario.
    pub max_schedules: u64,
    /// Per-schedule cap on scheduling decisions; exceeding it is reported as
    /// a violation (fail-closed livelock guard).
    pub max_steps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            preemption_bound: Some(2),
            max_schedules: 200_000,
            max_steps: 20_000,
        }
    }
}

impl Config {
    /// An unbounded-preemption config: sleep sets are the only reduction, so
    /// the sweep is exhaustive over the SC state space.
    pub fn unbounded() -> Self {
        Self {
            preemption_bound: None,
            ..Self::default()
        }
    }
}

/// A recorded sequence of scheduling decisions (the tid chosen at each
/// point). Serializes to a dot-separated seed string for replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Chosen virtual-thread id per decision, in order.
    pub choices: Vec<u32>,
}

impl Schedule {
    /// Serializes to a seed like `"0.1.1.2.0"` (empty string for an empty
    /// schedule).
    pub fn seed(&self) -> String {
        self.choices
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }

    /// Parses a seed produced by [`Schedule::seed`]; `None` on malformed
    /// input.
    pub fn from_seed(seed: &str) -> Option<Self> {
        if seed.is_empty() {
            return Some(Self::default());
        }
        let choices = seed
            .split('.')
            .map(|p| p.parse::<u32>().ok())
            .collect::<Option<Vec<u32>>>()?;
        Some(Self { choices })
    }
}

/// A schedule on which a scenario assertion failed (or the model deadlocked
/// / exceeded its step budget).
#[derive(Debug, Clone)]
pub struct Violation {
    /// The full decision sequence that reproduces the failure; feed it to
    /// [`replay`] (possibly via [`Schedule::seed`]) for a byte-identical
    /// re-execution.
    pub schedule: Schedule,
    /// The panic message (or deadlock / budget report).
    pub message: String,
    /// The decision trace of the violating execution.
    pub trace: Vec<TraceEntry>,
    /// How many schedules ran to completion before this one.
    pub schedules_before: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        writeln!(f, "seed: {}", self.schedule.seed())?;
        writeln!(f, "trace ({} decisions):", self.trace.len())?;
        for e in &self.trace {
            writeln!(f, "  v{} {}", e.tid, e.op)?;
        }
        Ok(())
    }
}

/// Result of a sweep.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Schedules run to completion (the violating one, if any, included).
    pub schedules: u64,
    /// Partial schedules cut by the sleep-set reduction or preemption bound.
    pub pruned: u64,
    /// Total scheduling decisions across all runs.
    pub decisions: u64,
    /// True iff the DFS exhausted the (reduced, bounded) schedule tree. A
    /// sweep that stops early — on a violation or on `max_schedules` — is
    /// incomplete.
    pub complete: bool,
    /// The first violation found, if any (the sweep stops on it).
    pub violation: Option<Violation>,
    /// Label-level "acquired B while holding A" edges observed across all
    /// runs, sorted. The global lock-order audit: a cycle here means two
    /// code paths acquire the same labels in opposite orders.
    pub lock_edges: Vec<(String, String)>,
}

impl Outcome {
    /// Panics (with the full violation trace) unless the sweep completed
    /// with no violation. The standard assertion for healthy scenarios.
    pub fn expect_clean(&self) {
        if let Some(v) = &self.violation {
            panic!("schedule sweep found a violation\n{v}");
        }
        assert!(
            self.complete,
            "schedule sweep did not exhaust its tree (hit max_schedules)"
        );
    }

    /// A cycle in the label-level lock-order graph, if one exists: the
    /// labels along the cycle, first repeated at the end. `None` means every
    /// observed acquisition order is consistent with one global hierarchy.
    pub fn lock_cycle(&self) -> Option<Vec<String>> {
        let labels: BTreeSet<&str> = self
            .lock_edges
            .iter()
            .flat_map(|(a, b)| [a.as_str(), b.as_str()])
            .collect();
        let mut color: std::collections::BTreeMap<&str, u8> =
            labels.iter().map(|&l| (l, 0u8)).collect();
        let mut stack: Vec<&str> = Vec::new();
        fn visit<'a>(
            node: &'a str,
            edges: &'a [(String, String)],
            color: &mut std::collections::BTreeMap<&'a str, u8>,
            stack: &mut Vec<&'a str>,
        ) -> Option<Vec<String>> {
            color.insert(node, 1);
            stack.push(node);
            for (a, b) in edges {
                if a == node {
                    match color.get(b.as_str()).copied().unwrap_or(0) {
                        1 => {
                            let start = stack.iter().position(|&s| s == b.as_str()).unwrap_or(0);
                            let mut cycle: Vec<String> =
                                stack[start..].iter().map(|s| s.to_string()).collect();
                            cycle.push(b.clone());
                            return Some(cycle);
                        }
                        0 => {
                            if let Some(c) = visit(b.as_str(), edges, color, stack) {
                                return Some(c);
                            }
                        }
                        _ => {}
                    }
                }
            }
            stack.pop();
            color.insert(node, 2);
            None
        }
        for &l in &labels {
            if color.get(l).copied() == Some(0) {
                if let Some(c) = visit(l, &self.lock_edges, &mut color, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }
}

/// Result of replaying one recorded schedule.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The decision trace of the replayed execution.
    pub trace: Vec<TraceEntry>,
    /// The violation (or divergence) message, `None` if the run completed
    /// cleanly.
    pub message: Option<String>,
    /// Scheduling decisions consumed.
    pub decisions: u64,
}

/// Sweeps every schedule of `f` under the default [`Config`].
pub fn explore<F>(f: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    explore_with(Config::default(), f)
}

/// Sweeps every schedule of `f` under `cfg`. `f` is the body of virtual
/// thread 0; it may [`crate::thread::spawn`] further virtual threads and
/// must construct all shared state itself (each schedule runs a fresh
/// instance).
pub fn explore_with<F>(cfg: Config, f: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    runtime::install_panic_filter();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut dfs = Dfs { nodes: Vec::new() };
    let mut out = Outcome {
        schedules: 0,
        pruned: 0,
        decisions: 0,
        complete: false,
        violation: None,
        lock_edges: Vec::new(),
    };
    let mut edges: BTreeSet<(&'static str, &'static str)> = BTreeSet::new();
    loop {
        if out.schedules + out.pruned >= cfg.max_schedules {
            out.complete = false;
            break;
        }
        let r = run_one(&f, Mode::Dfs(&mut dfs, &cfg));
        out.decisions += r.choices.len() as u64;
        edges.extend(r.lock_edges.iter().copied());
        match r.end {
            RunEnd::Completed => out.schedules += 1,
            RunEnd::Pruned => out.pruned += 1,
            RunEnd::Violation(message) => {
                let schedules_before = out.schedules;
                out.schedules += 1;
                out.violation = Some(Violation {
                    schedule: Schedule { choices: r.choices },
                    message,
                    trace: r.trace,
                    schedules_before,
                });
                break;
            }
            RunEnd::Diverged(message) => {
                unreachable!("divergence outside replay mode: {message}")
            }
        }
        if !dfs.advance() {
            out.complete = true;
            break;
        }
    }
    out.lock_edges = edges
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    out
}

/// Re-executes `f` under exactly the decisions of `schedule`. With the
/// schedule of a [`Violation`], the replay reproduces the identical trace
/// and the identical failure message, byte for byte.
pub fn replay<F>(schedule: &Schedule, f: F) -> Replay
where
    F: Fn() + Send + Sync + 'static,
{
    runtime::install_panic_filter();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let r = run_one(&f, Mode::Fixed(&schedule.choices));
    Replay {
        decisions: r.choices.len() as u64,
        message: match r.end {
            RunEnd::Violation(m) | RunEnd::Diverged(m) => Some(m),
            RunEnd::Completed | RunEnd::Pruned => None,
        },
        trace: r.trace,
    }
}

// ---------------------------------------------------------------------------
// DFS internals
// ---------------------------------------------------------------------------

/// One node of the schedule tree (one scheduling point along the current
/// prefix). `candidates` and `sleep` are fixed at creation; `ops` is
/// refreshed on every pass so child sleep sets are computed from the live
/// per-execution object ids.
struct Node {
    /// Threads to try at this point, in order (previous thread first, then
    /// ascending tid), already filtered by sleep set and preemption bound.
    candidates: Vec<usize>,
    /// Index into `candidates` currently being explored.
    tried: usize,
    /// Sleep set on entry: threads whose pending op was already explored in
    /// an equivalent interleaving, so running them first here is redundant.
    sleep: Vec<usize>,
    /// Pending op of every parked thread at this point (refreshed per run).
    ops: Vec<(usize, Op)>,
}

struct Dfs {
    nodes: Vec<Node>,
}

impl Dfs {
    /// Advances to the next unexplored branch; false when the tree is
    /// exhausted.
    fn advance(&mut self) -> bool {
        while let Some(n) = self.nodes.last_mut() {
            n.tried += 1;
            if n.tried < n.candidates.len() {
                return true;
            }
            self.nodes.pop();
        }
        false
    }
}

enum Mode<'a> {
    Dfs(&'a mut Dfs, &'a Config),
    Fixed(&'a [u32]),
}

enum RunEnd {
    Completed,
    Pruned,
    Violation(String),
    Diverged(String),
}

struct RunResult {
    end: RunEnd,
    choices: Vec<u32>,
    trace: Vec<TraceEntry>,
    lock_edges: Vec<(&'static str, &'static str)>,
}

/// Two pending ops commute (running them in either order reaches the same
/// state): different objects always do; pure reads of the same object do;
/// start / yield / join have no object effect at all. Lock *releases* are
/// not scheduling points, but a release only ever enables the other op, and
/// a thread cannot release a lock the other could have been holding while
/// both were co-enabled — so merging releases into the preceding segment
/// preserves commutation.
fn independent(a: Op, b: Op) -> bool {
    fn access(op: Op) -> Option<(u32, bool)> {
        match op {
            Op::Start | Op::Yield | Op::Join(_) => None,
            Op::MutexLock(o) | Op::RwWrite(o) | Op::AtomicStore(o) | Op::AtomicRmw(o) => {
                Some((o, true))
            }
            Op::RwRead(o) | Op::AtomicLoad(o) => Some((o, false)),
        }
    }
    match (access(a), access(b)) {
        (Some((oa, wa)), Some((ob, wb))) => oa != ob || (!wa && !wb),
        _ => true,
    }
}

fn run_one(f: &Arc<dyn Fn() + Send + Sync>, mut mode: Mode<'_>) -> RunResult {
    let exec = Execution::new();
    {
        let f = Arc::clone(f);
        runtime::spawn_thread(&exec, move || f());
    }
    let mut choices: Vec<u32> = Vec::new();
    let mut last_running: Option<usize> = None;
    let mut preemptions = 0u32;
    let end = loop {
        let mut st = exec.wait_quiescent();
        if st.abandoned || st.violation.is_some() {
            let msg = st
                .violation
                .clone()
                .unwrap_or_else(|| "execution abandoned".to_string());
            break RunEnd::Violation(msg);
        }
        let parked: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t].status == Status::Parked)
            .collect();
        if parked.is_empty() {
            // every thread finished
            break RunEnd::Completed;
        }
        let enabled: Vec<usize> = parked
            .iter()
            .copied()
            .filter(|&t| {
                let op = st.threads[t].pending.expect("parked thread has pending op");
                st.op_enabled(op)
            })
            .collect();
        if enabled.is_empty() {
            let mut desc: Vec<String> = Vec::new();
            for &t in &parked {
                let op = st.threads[t].pending.expect("parked thread has pending op");
                desc.push(format!("v{t} blocked at {op:?}"));
            }
            let msg = format!("deadlock: no enabled thread ({})", desc.join(", "));
            break RunEnd::Violation(msg);
        }
        let depth = choices.len();
        let decision = match &mut mode {
            Mode::Fixed(sched) => {
                if depth >= sched.len() {
                    let msg = format!(
                        "replay diverged: schedule exhausted after {depth} decisions but \
                         threads are still live"
                    );
                    break RunEnd::Diverged(msg);
                }
                let tid = sched[depth] as usize;
                if !enabled.contains(&tid) {
                    let msg = format!("replay diverged: v{tid} not enabled at decision {depth}");
                    break RunEnd::Diverged(msg);
                }
                Some(tid)
            }
            Mode::Dfs(dfs, cfg) => {
                if depth as u64 >= cfg.max_steps {
                    let msg = format!(
                        "schedule exceeded max_steps = {} (possible livelock)",
                        cfg.max_steps
                    );
                    break RunEnd::Violation(msg);
                }
                dfs_decide(dfs, cfg, depth, &st, &enabled, last_running, preemptions)
            }
        };
        let Some(tid) = decision else {
            // sleep-set or preemption-bound blocked: this partial schedule
            // is redundant (or out of budget); abandon it quietly.
            break RunEnd::Pruned;
        };
        if let Some(lr) = last_running {
            if tid != lr && enabled.contains(&lr) {
                preemptions += 1;
            }
        }
        st.apply_decision(tid);
        choices.push(u32::try_from(tid).expect("tid fits in u32"));
        last_running = Some(tid);
        drop(st);
        exec.cv.notify_all();
    };
    // Unconditionally drain: abandons any still-parked threads (no-op after
    // a completed run) and joins every OS thread of this execution.
    exec.drain();
    let st = exec.state.lock().unwrap();
    RunResult {
        end,
        choices,
        trace: st.trace.clone(),
        lock_edges: st.lock_edges.iter().copied().collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_decide(
    dfs: &mut Dfs,
    cfg: &Config,
    depth: usize,
    st: &SchedState,
    enabled: &[usize],
    last_running: Option<usize>,
    preemptions: u32,
) -> Option<usize> {
    let pend: Vec<(usize, Op)> = (0..st.threads.len())
        .filter(|&t| st.threads[t].status == Status::Parked)
        .map(|t| {
            (
                t,
                st.threads[t].pending.expect("parked thread has pending op"),
            )
        })
        .collect();
    if depth < dfs.nodes.len() {
        // prescribed prefix: replay the branch currently under exploration
        let node = &mut dfs.nodes[depth];
        node.ops = pend;
        let tid = node.candidates[node.tried];
        assert!(
            enabled.contains(&tid),
            "scenario nondeterminism: prescribed thread v{tid} not enabled at depth {depth} \
             (scenario closures must be deterministic functions of the schedule)"
        );
        Some(tid)
    } else {
        // new frontier node: compute sleep set from the parent's decision
        let sleep: Vec<usize> = match dfs.nodes.last() {
            None => Vec::new(),
            Some(parent) => {
                let chosen = parent.candidates[parent.tried];
                let chosen_op = parent
                    .ops
                    .iter()
                    .find(|(t, _)| *t == chosen)
                    .map(|(_, op)| *op)
                    .expect("chosen thread was parked at parent");
                let mut s: Vec<usize> = Vec::new();
                for &u in parent
                    .sleep
                    .iter()
                    .chain(parent.candidates[..parent.tried].iter())
                {
                    if u == chosen || s.contains(&u) {
                        continue;
                    }
                    if let Some((_, op_u)) = parent.ops.iter().find(|(t, _)| *t == u) {
                        if independent(*op_u, chosen_op) {
                            s.push(u);
                        }
                    }
                }
                s
            }
        };
        let allowed: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|t| !sleep.contains(t))
            .collect();
        let can_continue = last_running.is_some_and(|lr| enabled.contains(&lr));
        let at_bound = cfg.preemption_bound.is_some_and(|b| preemptions >= b);
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(lr) = last_running {
            if can_continue && allowed.contains(&lr) {
                candidates.push(lr);
            }
        }
        for &t in &allowed {
            if Some(t) == last_running {
                continue;
            }
            if can_continue && at_bound {
                // switching away from a still-enabled thread would exceed
                // the preemption bound
                continue;
            }
            candidates.push(t);
        }
        dfs.nodes.push(Node {
            candidates,
            tried: 0,
            sleep,
            ops: pend,
        });
        dfs.nodes.last().and_then(|n| n.candidates.first()).copied()
    }
}
