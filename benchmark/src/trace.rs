//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from outside: the benchmark opens one before it calls
//! a crate's public function and closes it when the call returns. They are
//! kept in a pre-sized vector and written to `out/<workload>.trace.jsonl`
//! when the traced pass ends, one JSON object per line:
//! `{"name","start_ns","end_ns","parent","op_id"}` — `parent` is the line
//! index of the enclosing span (`null` at the root) and spans of one
//! operation (one optimiser step, one request) share an `op_id`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

/// Index of an open span, to close it and to parent its children.
pub type SpanId = u32;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Records a span whose ends another thread stamped.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op_id: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op_id,
        });
    }

    /// Times one call as a child span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op_id);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_index_and_share_an_op_id() {
        let mut t = Tracer::new();
        let root = t.open("step", None, 7);
        let got = t.span("nn.forward", Some(root), 7, || 42);
        t.close(root);
        let (from, to) = (t.t0, t.t0 + std::time::Duration::from_micros(3));
        t.record("serve.tcp", from, to, None, 8);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!((s[1].parent, s[1].op_id, s[2].parent), (Some(0), 7, None));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_us("serve.tcp"), [3.0]);
        assert!(t.durations_us("absent").is_empty());
    }
}
