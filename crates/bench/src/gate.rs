//! The perf-regression gates behind `bench_gate`: for each bench, the
//! harness that emits its [`GateEntry`]s and the [`Rule`] table a run is
//! checked against.
//!
//! Every rule reads integer counters or flags, never a ratio's rendered
//! text, so a gate verdict is as deterministic as the counters themselves.
//! [`check`] is the one loop that applies a table; it fails closed (see its
//! documentation).

use crate::report::{parse_gate_json, ratio, GateEntry};
use crate::{
    run_durability_comparison, run_intern_comparison, run_plancache_comparison,
    run_planner_comparison, run_sched_sweeps, run_service_comparison, run_storage_comparison,
    run_update_comparison, run_vectorized_comparison, DurabilitySettings, InternSettings,
    PlanCacheSettings, PlannerSettings, SchedSettings, ServiceSettings, StorageSettings,
    UpdateSettings, VectorizedSettings,
};
use Rule::*;

/// Allowed relative drift of a gated ratio or budget past its baseline.
pub const TOLERANCE: f64 = 0.15;
/// Absolute slack on top (keeps near-zero ratios from gating on noise).
pub const ABS_SLACK: f64 = 0.02;

/// One gate rule. Field names refer to [`GateEntry`] keys; "current" is the
/// fresh run, "baseline" the checked-in entry of the same scenario.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// The current flag is true.
    Holds(&'static str),
    /// Current `a < b`.
    Below(&'static str, &'static str),
    /// Current `2a <= b`: the fast path at least halves the reference work.
    Halves(&'static str, &'static str),
    /// Current `a <= b`.
    AtMost(&'static str, &'static str),
    /// Current `num / den` is at most the baseline's
    /// `× (1 + TOLERANCE) + ABS_SLACK`.
    RatioCeiling(&'static str, &'static str),
    /// Current `num / den` is at least the baseline's
    /// `× (1 − TOLERANCE) − ABS_SLACK`.
    RatioFloor(&'static str, &'static str),
    /// Current `hits / (hits + misses)` is at least the given floor.
    HitRateFloor(&'static str, &'static str, f64),
    /// The current count is at most the baseline's `× (1 + TOLERANCE)`
    /// plus the given absolute slack.
    PagesBudget(&'static str, u64),
    /// A path that fired in the baseline (count > 0) still fires.
    MustFire(&'static str),
    /// `FrozenWhile(guard, field)`: when the baseline's `guard` fired,
    /// `field` may not grow past the baseline.
    FrozenWhile(&'static str, &'static str),
    /// The counts equal the baseline's exactly.
    Exact(&'static [&'static str]),
    /// The flag equals the baseline's.
    Unchanged(&'static str),
    /// The two current flags are equal.
    FlagEquals(&'static str, &'static str),
    /// `HoldsUnless(flag, guard)`: the current flag is true unless the
    /// current guard is.
    HoldsUnless(&'static str, &'static str),
    /// The inner rule, applied only to scenarios whose name starts with
    /// the prefix.
    Scoped(&'static str, &'static Rule),
}

/// A baseline entry next to the current run's entry of the same scenario.
/// Every accessor reads the field on both sides, so a rule whose field is
/// missing from either side fails by name instead of reading a default.
struct Pair<'a> {
    base: &'a GateEntry,
    cur: &'a GateEntry,
}

impl Pair<'_> {
    fn side<T>(
        &self,
        key: &str,
        kind: &str,
        get: fn(&GateEntry, &str) -> Option<T>,
    ) -> Result<(T, T), String> {
        let missing = |side: &str| format!("{kind} `{key}` missing from the {side}");
        Ok((
            get(self.base, key).ok_or_else(|| missing("baseline"))?,
            get(self.cur, key).ok_or_else(|| missing("current run"))?,
        ))
    }

    fn counts(&self, key: &str) -> Result<(u64, u64), String> {
        self.side(key, "count", GateEntry::get_count)
    }

    fn flags(&self, key: &str) -> Result<(bool, bool), String> {
        self.side(key, "flag", GateEntry::get_flag)
    }
}

fn ensure(ok: bool, why: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why.into())
    }
}

impl Rule {
    /// `Err(reason)` when the pair violates the rule (or lacks a field it
    /// reads). The reason starts with the rule itself.
    fn eval(&self, p: &Pair<'_>) -> Result<(), String> {
        match *self {
            Scoped(prefix, inner) if p.cur.name.starts_with(prefix) => inner.eval(p),
            Scoped(..) => Ok(()),
            _ => self.verdict(p).map_err(|why| format!("{self:?}: {why}")),
        }
    }

    fn verdict(&self, p: &Pair<'_>) -> Result<(), String> {
        let pct = TOLERANCE * 100.0;
        match *self {
            Holds(f) => ensure(p.flags(f)?.1, "is false"),
            Below(a, b) => {
                let (x, y) = (p.counts(a)?.1, p.counts(b)?.1);
                ensure(x < y, format!("{x} is not below {y}"))
            }
            Halves(a, b) => {
                let (x, y) = (p.counts(a)?.1, p.counts(b)?.1);
                ensure(x * 2 <= y, format!("{x} is more than half of {y}"))
            }
            AtMost(a, b) => {
                let (x, y) = (p.counts(a)?.1, p.counts(b)?.1);
                ensure(x <= y, format!("{x} exceeds {y}"))
            }
            RatioCeiling(num, den) => {
                let ((bn, cn), (bd, cd)) = (p.counts(num)?, p.counts(den)?);
                let (base, cur) = (ratio(bn, bd), ratio(cn, cd));
                let allowed = base * (1.0 + TOLERANCE) + ABS_SLACK;
                ensure(
                    cur <= allowed,
                    format!(
                        "{cur:.4} exceeds baseline {base:.4} (+{pct:.0}% & slack = {allowed:.4})"
                    ),
                )
            }
            RatioFloor(num, den) => {
                let ((bn, cn), (bd, cd)) = (p.counts(num)?, p.counts(den)?);
                let (base, cur) = (ratio(bn, bd), ratio(cn, cd));
                let floor = base * (1.0 - TOLERANCE) - ABS_SLACK;
                ensure(
                    cur >= floor,
                    format!("{cur:.4} below baseline {base:.4} (-{pct:.0}% & slack = {floor:.4})"),
                )
            }
            HitRateFloor(hits, misses, floor) => {
                let (h, m) = (p.counts(hits)?.1, p.counts(misses)?.1);
                let rate = ratio(h, h + m);
                ensure(
                    rate >= floor,
                    format!("hit rate {rate:.4} ({h} hits / {m} misses) below {floor}"),
                )
            }
            PagesBudget(f, slack) => {
                let (b, c) = p.counts(f)?;
                let budget = b as f64 * (1.0 + TOLERANCE) + slack as f64;
                ensure(
                    c as f64 <= budget,
                    format!("{c} exceeds baseline {b} (+{pct:.0}% & slack = {budget:.0})"),
                )
            }
            MustFire(f) => {
                let (b, c) = p.counts(f)?;
                ensure(b == 0 || c > 0, format!("no longer fires (baseline {b})"))
            }
            FrozenWhile(guard, f) => {
                let (g, (b, c)) = (p.counts(guard)?.0, p.counts(f)?);
                ensure(
                    g == 0 || c <= b,
                    format!("grew {b} -> {c} while the guard fired"),
                )
            }
            Exact(fields) => {
                let mut drift = Vec::new();
                for &f in fields {
                    let (b, c) = p.counts(f)?;
                    if b != c {
                        drift.push(format!("{f} {b} -> {c}"));
                    }
                }
                ensure(drift.is_empty(), format!("drifted ({})", drift.join(", ")))
            }
            Unchanged(f) => {
                let (b, c) = p.flags(f)?;
                ensure(b == c, format!("flipped ({b} -> {c})"))
            }
            FlagEquals(a, b) => {
                let (x, y) = (p.flags(a)?.1, p.flags(b)?.1);
                ensure(x == y, format!("{x} != {y}"))
            }
            HoldsUnless(f, guard) => {
                let (c, g) = (p.flags(f)?.1, p.flags(guard)?.1);
                ensure(c || g, "is false while the guard is false")
            }
            Scoped(..) => unreachable!("eval() unwraps scopes"),
        }
    }
}

/// Checks a current run against its baseline under `rules`, returning one
/// message per failure (empty = pass).
///
/// Fails closed: an empty baseline, a current scenario absent from the
/// baseline (ungated), a baseline scenario absent from the current run,
/// and a field a rule reads that is missing on either side are failures.
pub fn check(rules: &[Rule], baseline: &[GateEntry], current: &[GateEntry]) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.is_empty() {
        failures.push("baseline holds no entries — re-emit it with --emit".to_owned());
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            failures.push(format!(
                "{}: scenario has no baseline entry (ungated) — re-emit the baseline",
                cur.name
            ));
        }
    }
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.name == base.name) else {
            failures.push(format!("{}: entry missing from current run", base.name));
            continue;
        };
        let pair = Pair { base, cur };
        for rule in rules {
            if let Err(why) = rule.eval(&pair) {
                failures.push(format!("{}: {why}", base.name));
            }
        }
    }
    failures
}

/// One `bench_gate --bench` target.
pub struct Gate {
    /// The `--bench` name.
    pub name: &'static str,
    /// The `bench` field of its report.
    pub bench: &'static str,
    /// The checked-in baseline at the repository root.
    pub baseline: &'static str,
    /// Runs the harness at its fixed `ci_gate()` configuration.
    pub run: fn() -> Vec<GateEntry>,
    /// The rules every baseline entry is checked against.
    pub rules: &'static [Rule],
}

impl Gate {
    /// The gate named `name`.
    pub fn named(name: &str) -> Option<&'static Gate> {
        GATES.iter().find(|g| g.name == name)
    }

    /// Parses a baseline report for this gate. A report that does not
    /// parse, or that belongs to another bench, is an error.
    pub fn read_baseline(&self, text: &str) -> Result<Vec<GateEntry>, String> {
        let (bench, entries) = parse_gate_json(text).ok_or("not a gate report")?;
        if bench != self.bench {
            return Err(format!("a `{bench}` report, not `{}`", self.bench));
        }
        Ok(entries)
    }
}

/// Every gate, in the order the usage line lists them; the first is the
/// default.
pub const GATES: &[Gate] = &[
    Gate {
        name: "updates",
        bench: "micro_updates",
        baseline: "BENCH_2.json",
        run: || run_update_comparison(&UpdateSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            Below("delta_rows", "full_rows"),
            Below("delta_derivations", "full_derivations"),
            RatioCeiling("delta_rows", "full_rows"),
        ],
    },
    Gate {
        name: "intern",
        bench: "micro_intern",
        baseline: "BENCH_3.json",
        run: || run_intern_comparison(&InternSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            Halves("cached_work", "owned_work"),
            RatioCeiling("cached_work", "owned_work"),
        ],
    },
    Gate {
        name: "storage",
        bench: "micro_storage",
        baseline: "BENCH_4.json",
        run: || run_storage_comparison(&StorageSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            Halves("id_probe_bytes", "value_probe_bytes"),
            Halves("id_moved_bytes", "value_moved_bytes"),
            RatioCeiling("id_probe_bytes", "value_probe_bytes"),
            RatioCeiling("id_moved_bytes", "value_moved_bytes"),
        ],
    },
    Gate {
        name: "planner",
        bench: "micro_planner",
        baseline: "BENCH_5.json",
        run: || run_planner_comparison(&PlannerSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            Halves("planned_rows", "written_rows"),
            RatioCeiling("planned_rows", "written_rows"),
            RatioCeiling("planned_probes", "written_probes"),
        ],
    },
    Gate {
        name: "durability",
        bench: "micro_durability",
        baseline: "BENCH_6.json",
        run: || run_durability_comparison(&DurabilitySettings::ci_gate()),
        rules: &[
            Holds("equal"),
            Halves("reopen_bytes", "rebuild_bytes"),
            RatioCeiling("reopen_bytes", "rebuild_bytes"),
            PagesBudget("pages_read", 2),
        ],
    },
    Gate {
        name: "vectorized",
        bench: "micro_vectorized",
        baseline: "BENCH_7.json",
        run: || run_vectorized_comparison(&VectorizedSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            Halves("block_probe_bytes", "scalar_probe_bytes"),
            Halves("block_moved_bytes", "scalar_moved_bytes"),
            RatioCeiling("block_probe_bytes", "scalar_probe_bytes"),
            RatioCeiling("block_moved_bytes", "scalar_moved_bytes"),
        ],
    },
    Gate {
        name: "service",
        bench: "micro_service",
        baseline: "BENCH_8.json",
        run: || run_service_comparison(&ServiceSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            AtMost("max_request_work", "work_budget"),
            MustFire("rejected"),
            MustFire("cancelled"),
            MustFire("degraded_writes"),
            FrozenWhile("degraded_writes", "applied_txns"),
            MustFire("epochs_published"),
            RatioFloor("completed", "operations"),
        ],
    },
    Gate {
        name: "plancache",
        bench: "micro_plancache",
        baseline: "BENCH_9.json",
        run: || run_plancache_comparison(&PlanCacheSettings::ci_gate()),
        rules: &[
            Holds("equal"),
            // Cached plans are byte-identical to cold plans, so the cache
            // scenario gates on the hit rate, not a row ratio.
            Scoped(
                "plan-cache/",
                &HitRateFloor("cache_hits", "cache_misses", 0.9),
            ),
            Scoped("plan-cache/", &MustFire("cache_invalidations")),
        ],
    },
    Gate {
        name: "sched",
        bench: "micro_sched",
        baseline: "BENCH_10.json",
        run: || run_sched_sweeps(&SchedSettings::ci_gate()),
        // The seeded-bug contract is absolute, and the schedule counters
        // are pure functions of the seam's synchronization structure: any
        // drift means the structure changed and the baseline is re-emitted.
        rules: &[
            Unchanged("expect_violation"),
            FlagEquals("caught", "expect_violation"),
            HoldsUnless("complete", "expect_violation"),
            Exact(&["schedules", "pruned", "decisions"]),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render_gate_json, Field};

    fn baseline_text(gate: &Gate) -> String {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), gate.baseline);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    fn baseline(gate: &Gate) -> Vec<GateEntry> {
        gate.read_baseline(&baseline_text(gate))
            .unwrap_or_else(|e| panic!("{}: {e}", gate.baseline))
    }

    fn gate(name: &str) -> &'static Gate {
        Gate::named(name).expect("known gate")
    }

    fn set(e: &mut GateEntry, key: &str, value: Field) {
        e.fields.iter_mut().find(|(k, _)| k == key).expect(key).1 = value;
    }

    fn count(e: &GateEntry, key: &str) -> u64 {
        e.get_count(key).expect(key)
    }

    fn leaf(rule: &Rule) -> &Rule {
        match rule {
            Scoped(_, inner) => leaf(inner),
            r => r,
        }
    }

    /// The largest `n` with `fits(n)`, searched down from `start` (the
    /// float estimate of the bound) and then up.
    fn last_fitting(start: f64, fits: impl Fn(u64) -> bool) -> u64 {
        let mut n = start.max(0.0) as u64;
        while n > 0 && !fits(n) {
            n -= 1;
        }
        while fits(n + 1) {
            n += 1;
        }
        n
    }

    /// Moves `base`/`cur` one step inside (`past == false`) or one step past
    /// the bound of `rule`. `false` when this entry cannot be moved past it
    /// (a ratio floor at or below zero, say).
    fn step(rule: &Rule, base: &mut GateEntry, cur: &mut GateEntry, past: bool) -> bool {
        let p = past as u64;
        match *leaf(rule) {
            Holds(f) => set(cur, f, Field::Flag(!past)),
            Below(a, b) => {
                let y = count(cur, b);
                if y == 0 {
                    return false;
                }
                set(cur, a, Field::Count(y - 1 + p));
            }
            Halves(a, b) => set(cur, a, Field::Count(count(cur, b) / 2 + p)),
            AtMost(a, b) => set(cur, a, Field::Count(count(cur, b) + p)),
            RatioCeiling(num, den) => {
                let allowed =
                    ratio(count(base, num), count(base, den)) * (1.0 + TOLERANCE) + ABS_SLACK;
                let d = count(cur, den);
                let n = last_fitting(allowed * d.max(1) as f64, |n| ratio(n, d) <= allowed);
                set(cur, num, Field::Count(n + p));
            }
            RatioFloor(num, den) => {
                let floor =
                    ratio(count(base, num), count(base, den)) * (1.0 - TOLERANCE) - ABS_SLACK;
                if floor <= 0.0 {
                    return false;
                }
                let d = count(cur, den);
                let n = last_fitting(floor * d.max(1) as f64, |n| ratio(n, d) < floor) + 1;
                set(cur, num, Field::Count(n - p));
            }
            HitRateFloor(hits, misses, floor) => {
                let total = count(cur, hits) + count(cur, misses);
                let h = last_fitting(floor * total as f64, |h| ratio(h, total) < floor) + 1;
                if h > total || h == 0 {
                    return false;
                }
                set(cur, hits, Field::Count(h - p));
                set(cur, misses, Field::Count(total - (h - p)));
            }
            PagesBudget(f, slack) => {
                let budget = count(base, f) as f64 * (1.0 + TOLERANCE) + slack as f64;
                set(cur, f, Field::Count(budget.floor() as u64 + p));
            }
            MustFire(f) => {
                set(cur, f, Field::Count(0));
                set(base, f, Field::Count(p));
            }
            FrozenWhile(guard, f) => {
                set(base, guard, Field::Count(count(base, guard).max(1)));
                let c = count(cur, f).max(1);
                set(cur, f, Field::Count(c));
                set(base, f, Field::Count(c - p));
            }
            Exact(fields) => set(cur, fields[0], Field::Count(count(base, fields[0]) + p)),
            Unchanged(f) => {
                let c = cur.get_flag(f).expect(f);
                set(base, f, Field::Flag(c != past));
            }
            FlagEquals(a, b) => {
                let y = cur.get_flag(b).expect(b);
                set(cur, a, Field::Flag(y != past));
            }
            HoldsUnless(f, guard) => {
                set(cur, guard, Field::Flag(false));
                set(cur, f, Field::Flag(!past));
            }
            Scoped(..) => unreachable!("leaf() unwraps scopes"),
        }
        true
    }

    #[test]
    fn every_rule_fires_exactly_one_step_past_its_bound() {
        let mut tested = 0;
        for gate in GATES {
            let entries = baseline(gate);
            assert_eq!(
                check(gate.rules, &entries, &entries),
                Vec::<String>::new(),
                "{}: the baseline fails its own gate",
                gate.baseline
            );
            for rule in gate.rules {
                let in_scope = |e: &&GateEntry| match rule {
                    Scoped(prefix, _) => e.name.starts_with(prefix),
                    _ => true,
                };
                let moved = entries.iter().filter(in_scope).any(|entry| {
                    let run = |past| {
                        let (mut base, mut cur) = (entry.clone(), entry.clone());
                        step(rule, &mut base, &mut cur, past)
                            .then(|| check(std::slice::from_ref(rule), &[base], &[cur]))
                    };
                    let Some(inside) = run(false) else {
                        return false;
                    };
                    assert_eq!(
                        inside,
                        Vec::<String>::new(),
                        "{}: {rule:?} one step inside",
                        entry.name
                    );
                    let past = run(true).expect("movable");
                    let want = format!("{}: {:?}: ", entry.name, leaf(rule));
                    assert!(
                        past.len() == 1 && past[0].starts_with(&want),
                        "{}: {rule:?} one step past reported {past:?}",
                        entry.name
                    );
                    true
                });
                assert!(moved, "{}: no entry can cross {rule:?}", gate.name);
                tested += 1;
            }
        }
        assert_eq!(tested, 40, "rule count changed");
    }

    #[test]
    fn an_empty_baseline_fails() {
        assert_eq!(
            check(gate("updates").rules, &[], &[]),
            ["baseline holds no entries — re-emit it with --emit"]
        );
    }

    #[test]
    fn an_ungated_current_scenario_fails() {
        let base = baseline(gate("intern"));
        let mut current = base.clone();
        let mut extra = current[0].clone();
        extra.name = "search/NEW".into();
        current.push(extra);
        assert_eq!(
            check(gate("intern").rules, &base, &current),
            ["search/NEW: scenario has no baseline entry (ungated) — re-emit the baseline"]
        );
    }

    #[test]
    fn a_baseline_scenario_missing_from_the_run_fails() {
        let base = baseline(gate("planner"));
        let current = &base[1..];
        assert_eq!(
            check(gate("planner").rules, &base, current),
            [format!("{}: entry missing from current run", base[0].name)]
        );
    }

    #[test]
    fn a_field_missing_from_either_side_is_a_named_failure() {
        // The four must-fire counters stripped from BENCH_8.json: reading
        // them as 0 would switch their rules off silently.
        let gate = gate("service");
        let stripped_keys = [
            "rejected",
            "cancelled",
            "degraded_writes",
            "epochs_published",
        ];
        let text: String = baseline_text(gate)
            .lines()
            .filter(|l| {
                !stripped_keys
                    .iter()
                    .any(|k| l.trim_start().starts_with(&format!("\"{k}\"")))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let stripped = gate.read_baseline(&text).expect("still a service report");
        let full = baseline(gate);
        for (base, cur, side) in [
            (&stripped, &full, "baseline"),
            (&full, &stripped, "current run"),
        ] {
            let failures = check(gate.rules, base, cur);
            for key in stripped_keys {
                let want = format!("count `{key}` missing from the {side}");
                assert!(
                    failures.iter().any(|f| f.ends_with(&want)),
                    "no `{want}` in {failures:?}"
                );
            }
        }
    }

    #[test]
    fn a_baseline_of_another_bench_is_rejected() {
        let err = gate("service")
            .read_baseline(&baseline_text(gate("vectorized")))
            .unwrap_err();
        assert_eq!(err, "a `micro_vectorized` report, not `micro_service`");
        assert_eq!(
            gate("service").read_baseline("not json").unwrap_err(),
            "not a gate report"
        );
    }

    #[test]
    fn checked_in_baselines_rerender_byte_identically() {
        for gate in GATES {
            let text = baseline_text(gate);
            let entries = gate.read_baseline(&text).expect("parses");
            assert_eq!(
                render_gate_json(gate.bench, &entries),
                text,
                "{}",
                gate.baseline
            );
        }
    }
}
