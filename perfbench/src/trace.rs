//! Spans and counters recorded from outside the program: the benchmark
//! wraps each call it makes into a layer's public functions in a span, and
//! adds the counters that call returns.
//!
//! A disabled trace costs one branch per span. Spans are kept in memory and
//! summarized when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request the call served (spans of one request share it).
    pub request: usize,
    /// The layer, e.g. `core.search`.
    pub layer: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// Per-run recorder of spans and counters.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
    timings: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A recorder; `on == false` records no spans.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            timings: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span of `layer` for `request`.
    pub fn begin(&mut self, request: usize, layer: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            request,
            layer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        Open(Some(idx))
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].dur_ns = end - self.spans[idx].start_ns;
    }

    /// Adds `by` to counter `name`. Counters are kept with tracing off as
    /// well, so they are identical either way.
    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// Adds the milliseconds elapsed since `since` to timing `name`.
    /// Timings are kept with tracing off as well (set-up is timed either
    /// way) and never compared for equality.
    pub fn time(&mut self, name: &'static str, since: Instant) {
        *self.timings.entry(name).or_default() += since.elapsed().as_secs_f64() * 1e3;
    }

    /// Timing `name` in milliseconds (0 when never timed).
    pub fn timing(&self, name: &str) -> f64 {
        self.timings.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name` (0 when never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span of `layer`.
    pub fn layer_ms(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }
}

/// The `q`-quantile (`0..=1`) of `xs` by the nearest-rank method; 0 when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn disabled_trace_records_no_spans_but_counts() {
        let mut t = Trace::new(false);
        let s = t.begin(0, "layer");
        t.add("c", 3);
        t.end(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 3);
    }
}
