//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into each
//! crate's public functions: name, start, end, the span that caused it, and
//! the request it belongs to. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::report::percentile;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Call count, busy time and per-call quantiles of one span family.
#[derive(Debug, Clone, Copy, Default)]
pub struct Family {
    pub calls: usize,
    pub busy_s: f64,
    pub p50_s: f64,
    pub p95_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records one leaf span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose duration was measured elsewhere (for example a
    /// solver's own `runtime_s`), ending now.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        seconds: f64,
    ) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub((seconds * 1e9) as u64);
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
    }

    pub fn family(&self, name: &str) -> Family {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        if durations.is_empty() {
            return Family::default();
        }
        durations.sort_by(f64::total_cmp);
        Family {
            calls: durations.len(),
            busy_s: durations.iter().sum(),
            p50_s: percentile(&durations, 0.50),
            p95_s: percentile(&durations, 0.95),
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
