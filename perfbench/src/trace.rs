//! In-memory spans recorded around each call the benchmark makes into a
//! layer of the program, written out as one JSON file when the run ends.
//!
//! A span carries its name (the layer call, e.g. `core.simulate`), start
//! and end in nanoseconds since the tracer was created, the span that
//! caused it, the row it belongs to, and the counter deltas the layer
//! returned for that call (`RunStats`, server `STATS`). With tracing off
//! every method is a no-op, so the untraced run pays one branch per call.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::{json_num, json_str};

/// Identifier of a recorded span (`0` when tracing is off).
pub type SpanId = usize;

struct Span {
    name: &'static str,
    row: String,
    parent: SpanId,
    start_ns: u128,
    end_ns: u128,
    counters: Vec<(String, f64)>,
}

/// Span recorder for one benchmark run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; ids start at 1 so `0` can mean "no parent".
    pub fn begin(&mut self, name: &'static str, row: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            row: row.to_string(),
            parent,
            start_ns: self.epoch.elapsed().as_nanos(),
            end_ns: 0,
            counters: Vec::new(),
        });
        self.spans.len()
    }

    /// Closes a span, attaching the counter deltas of the call.
    pub fn end(&mut self, id: SpanId, counters: Vec<(String, f64)>) {
        if id == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos();
        let span = &mut self.spans[id - 1];
        span.end_ns = now;
        span.counters = counters;
    }

    /// Writes every span as a JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [",
            json_str(workload)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                .collect();
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"row\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"counters\": {{{}}}}}{}",
                i + 1,
                s.parent,
                json_str(s.name),
                json_str(&s.row),
                s.start_ns,
                s.end_ns,
                counters.join(", "),
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
