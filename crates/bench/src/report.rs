//! Measurement records, table printing, CSV output, and the `BENCH_*.json`
//! gate report ([`GateEntry`]) the perf-regression CI gate diffs.

use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;

/// One measured point of a figure's series.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub query: String,
    /// The varied parameter (x-axis value).
    pub param: String,
    /// Wall time of the search in milliseconds.
    pub runtime_ms: f64,
    /// Whether an abstraction meeting the threshold was found.
    pub found: bool,
    /// Privacy of the optimum.
    pub privacy: usize,
    /// Loss of information of the optimum.
    pub loi: f64,
    /// Tree edges used by the optimum ("optimal abstraction size").
    pub edges: u32,
    /// Abstractions enumerated.
    pub abstractions: usize,
    /// Privacy evaluations performed.
    pub privacy_evals: usize,
    /// Whether any cap truncated the search.
    pub truncated: bool,
    /// Free-form note.
    pub note: String,
}

impl Measurement {
    fn csv_row(&self) -> String {
        format!(
            "{},{},{:.3},{},{},{:.6},{},{},{},{},{}",
            self.query,
            self.param,
            self.runtime_ms,
            self.found,
            self.privacy,
            self.loi,
            self.edges,
            self.abstractions,
            self.privacy_evals,
            self.truncated,
            self.note.replace(',', ";"),
        )
    }
}

/// Renders measurements as an aligned text table (one row per point).
pub fn print_table(title: &str, rows: &[Measurement]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>7} {:>8} {:>9} {:>6} {:>8} {:>6}",
        "query", "param", "runtime_ms", "found", "privacy", "loi", "edges", "abstrs", "trunc"
    );
    for m in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12.2} {:>7} {:>8} {:>9.3} {:>6} {:>8} {:>6}",
            m.query,
            m.param,
            m.runtime_ms,
            m.found,
            m.privacy,
            m.loi,
            m.edges,
            m.abstractions,
            m.truncated
        );
    }
    out
}

/// Writes measurements as CSV under `dir/name.csv`.
pub fn write_csv(dir: &Path, name: &str, rows: &[Measurement]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut body = String::from(
        "query,param,runtime_ms,found,privacy,loi,edges,abstractions,privacy_evals,truncated,note\n",
    );
    for m in rows {
        body.push_str(&m.csv_row());
        body.push('\n');
    }
    fs::write(dir.join(format!("{name}.csv")), body)
}

/// One value of a [`GateEntry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field {
    /// A deterministic work counter: what the gate rules read.
    Count(u64),
    /// A counter-derived ratio, rendered `{:.6}`. Carried for humans: the
    /// rules recompute every ratio from the counts.
    Ratio(f64),
    /// Wall time in milliseconds, rendered `{:.3}`; never gated.
    Ms(f64),
    /// A yes/no outcome such as `equal`.
    Flag(bool),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Count(v) => write!(f, "{v}"),
            Field::Ratio(v) => write!(f, "{v:.6}"),
            Field::Ms(v) => write!(f, "{v:.3}"),
            Field::Flag(v) => write!(f, "{v}"),
        }
    }
}

/// `num / den`, with an empty denominator counted as 1 — the one ratio every
/// gate report carries and every gate rule recomputes.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// One entry of a `BENCH_*.json` report: a scenario name and its named
/// fields, in the order the report carries them.
///
/// The counters are deterministic (same code, same configuration ⇒ same
/// counts on every machine); the gate rules in [`crate::gate`] read only
/// them. Wall-clock fields ride along for humans.
#[derive(Debug, Clone, PartialEq)]
pub struct GateEntry {
    /// Scenario name, e.g. `TPCH-Q3/ins50` or `plan-cache/zipf`.
    pub name: String,
    /// `(key, value)` pairs in report order.
    pub fields: Vec<(String, Field)>,
}

impl GateEntry {
    /// An entry with no fields yet.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a counter.
    pub fn count(self, key: &str, value: u64) -> Self {
        self.with(key, Field::Count(value))
    }

    /// Appends the ratio `num / den` (an empty `den` counts as 1).
    pub fn ratio(self, key: &str, num: u64, den: u64) -> Self {
        self.with(key, Field::Ratio(ratio(num, den)))
    }

    /// Appends a wall time in milliseconds.
    pub fn ms(self, key: &str, value: f64) -> Self {
        self.with(key, Field::Ms(value))
    }

    /// Appends a flag.
    pub fn flag(self, key: &str, value: bool) -> Self {
        self.with(key, Field::Flag(value))
    }

    fn with(mut self, key: &str, value: Field) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    fn get(&self, key: &str) -> Option<Field> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The counter named `key`; `None` if absent or not a counter.
    pub fn get_count(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Field::Count(v) => Some(v),
            _ => None,
        }
    }

    /// The flag named `key`; `None` if absent or not a flag.
    pub fn get_flag(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Field::Flag(v) => Some(v),
            _ => None,
        }
    }

    /// Every counter, in report order.
    pub fn counts(&self) -> Vec<(&str, u64)> {
        self.fields
            .iter()
            .filter_map(|(k, v)| match *v {
                Field::Count(c) => Some((k.as_str(), c)),
                _ => None,
            })
            .collect()
    }
}

/// Serializes a gate report. Hand-rolled (the workspace has no
/// serialization dependency): one scalar per line, stable key order — the
/// exact shape [`parse_gate_json`] reads back.
pub fn render_gate_json(bench: &str, entries: &[GateEntry]) -> String {
    let mut out = format!("{{\n  \"schema\": 1,\n  \"bench\": \"{bench}\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(out, "    {{\n      \"name\": \"{}\"", e.name);
        for (key, value) in &e.fields {
            let _ = write!(out, ",\n      \"{key}\": {value}");
        }
        out.push_str(if i + 1 < entries.len() {
            "\n    },\n"
        } else {
            "\n    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes a gate report to `path` (creating parent directories).
pub fn write_gate_json(path: &Path, bench: &str, entries: &[GateEntry]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, render_gate_json(bench, entries))
}

/// Parses a report produced by [`render_gate_json`] (line-oriented: one
/// `"key": value` pair per line). Returns `(bench name, entries)`; `None`
/// on any malformed line or a missing `bench`. Not a general JSON parser —
/// exactly the shape the writer emits, which is all the gate needs offline.
///
/// A value's kind is read off its text: `true`/`false` is a flag, an
/// integer is a counter, a decimal under a `*_ms` key is a wall time and
/// any other decimal a ratio.
pub fn parse_gate_json(text: &str) -> Option<(String, Vec<GateEntry>)> {
    let mut bench = None;
    let mut entries: Vec<GateEntry> = Vec::new();
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || matches!(line, "{" | "}" | "[" | "]" | "\"entries\": [") {
            continue;
        }
        let (key, value) = line.split_once(':')?;
        let (key, value) = (key.trim().trim_matches('"'), value.trim());
        match key {
            "schema" => {}
            "bench" => bench = Some(value.trim_matches('"').to_owned()),
            "name" => entries.push(GateEntry::new(value.trim_matches('"'))),
            _ => {
                let field = match value {
                    "true" => Field::Flag(true),
                    "false" => Field::Flag(false),
                    v if !v.contains('.') => Field::Count(v.parse().ok()?),
                    v if key.ends_with("_ms") => Field::Ms(v.parse().ok()?),
                    v => Field::Ratio(v.parse().ok()?),
                };
                entries.last_mut()?.fields.push((key.to_owned(), field));
            }
        }
    }
    Some((bench?, entries))
}

/// Renders entries as an aligned text table: one row per scenario, one
/// column per field (headed by the first entry's keys).
pub fn gate_table(entries: &[GateEntry]) -> String {
    let Some(first) = entries.first() else {
        return String::new();
    };
    let row = |name: &str, cells: Vec<String>| {
        std::iter::once(name.to_owned())
            .chain(cells)
            .collect::<Vec<_>>()
    };
    let mut rows = vec![row(
        "scenario",
        first.fields.iter().map(|(k, _)| k.clone()).collect(),
    )];
    rows.extend(entries.iter().map(|e| {
        row(
            &e.name,
            e.fields.iter().map(|(_, v)| v.to_string()).collect(),
        )
    }));
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let widths: Vec<usize> = (0..cols)
        .map(|i| {
            rows.iter()
                .filter_map(|r| r.get(i))
                .map(String::len)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for r in &rows {
        for (i, (cell, w)) in r.iter().zip(&widths).enumerate() {
            let _ = if i == 0 {
                write!(out, "{cell:<w$}")
            } else {
                write!(out, " {cell:>w$}")
            };
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measurement {
        Measurement {
            query: "TPCH-Q3".into(),
            param: "5".into(),
            runtime_ms: 12.5,
            found: true,
            privacy: 5,
            loi: 2.708,
            edges: 2,
            abstractions: 40,
            privacy_evals: 7,
            truncated: false,
            note: String::new(),
        }
    }

    #[test]
    fn table_contains_values() {
        let t = print_table("Fig 9", &[sample()]);
        assert!(t.contains("TPCH-Q3"));
        assert!(t.contains("12.50"));
        assert!(t.contains("2.708"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("provabs_report_test");
        write_csv(&dir, "fig9", &[sample()]).unwrap();
        let content = std::fs::read_to_string(dir.join("fig9.csv")).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.lines().nth(1).unwrap().starts_with("TPCH-Q3,5,"));
    }
}
