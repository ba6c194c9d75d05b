//! In-memory span and counter recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Every span carries a name, start and end (nanoseconds since the run's
//! origin), the index of the span that caused it and a request id shared by
//! all spans of one operation. Counters are recorded at the same boundaries.
//! Everything stays in memory until [`Tracer::write_json`] at the end of the
//! run.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One counter observation.
#[derive(Debug, Clone, Copy)]
pub struct Count {
    pub name: &'static str,
    pub request: u64,
    pub value: f64,
}

/// Span and counter store of one thread of a run. Disabled tracers record
/// nothing, so untraced runs pay only the `enabled` checks.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its index for
    /// use as a parent, or `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span; returns its result, the span's duration in
    /// milliseconds and the span index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64, Option<usize>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64() * 1e3, id)
    }

    pub fn count(&mut self, name: &'static str, request: u64, value: f64) {
        if self.enabled {
            self.counts.push(Count {
                name,
                request,
                value,
            });
        }
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Values of every counter observation named `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// Per-request differences `a − Σ b` between span durations sharing a
    /// request id: the self time of `a` after removing the parts `b` timed
    /// on their own.
    pub fn self_ms(&self, a: &str, minus: &[&str]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == a)
            .map(|s| {
                let others: f64 = self
                    .spans
                    .iter()
                    .filter(|o| o.request == s.request && minus.contains(&o.name))
                    .map(Span::ms)
                    .sum();
                s.ms() - others
            })
            .collect()
    }

    /// Append another thread's spans and counters (re-indexing parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counts.extend(other.counts);
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span and counter as one JSON document.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("\n], \"counts\": [\n");
        for (i, c) in self.counts.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"request\": {}, \"value\": {}}}",
                if i == 0 { "" } else { ",\n" },
                c.name,
                c.request,
                crate::common::json_num(c.value)
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
