//! In-memory span buffer for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer: `{name, start_ns, end_ns, parent, request_id}`. They
//! stay in memory until the run ends, are written to
//! `out/trace-<workload>.jsonl`, and roll up into per-name self times
//! (a span's duration minus the part its children cover). An untraced run
//! carries a disabled tracer whose `span` is a plain call.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `request_id` of a span that belongs to no sampled request.
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name roll-up of a span buffer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open. Returns `f`'s result and the span's duration in nanoseconds
    /// (measured even when tracing is off, so callers can time with it).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        if !self.enabled {
            let r = f(self);
            return (r, self.now_ns() - start_ns);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request_id });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Records a span whose bounds were measured elsewhere (a wire round
    /// trip timed by the generator, a phase split reported by the layer),
    /// as a child of whichever span is open.
    pub fn record(&mut self, name: &'static str, request_id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.open.last().copied().unwrap_or(NO_PARENT);
            self.spans.push(Span { name, start_ns, end_ns, parent, request_id });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: duration minus the time covered by child
    /// spans.
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let r = out.entry(s.name).or_default();
            r.count += 1;
            r.total_ns += total;
            r.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Every duration of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                NO_PARENT => write!(w, "null")?,
                p => write!(w, "{p}")?,
            }
            match s.request_id {
                NO_REQUEST => writeln!(w, ",\"request_id\":null}}")?,
                r => writeln!(w, ",\"request_id\":{r}}}")?,
            }
        }
        w.flush()
    }
}
