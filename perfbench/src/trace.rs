//! The span recorder of the traced run.
//!
//! Spans are taken from the benchmark's side of each layer boundary (around
//! calls into `revterm_lang`, `revterm_ts`, `revterm`, `revterm_serve` and
//! `revterm_fuzzgen`), kept in memory, and written out once the run ends.
//! A disabled tracer records nothing and reads no clock, so the untraced run
//! pays only for the per-op latency timer it needs anyway.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, used as the parent of spans opened inside it.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.prove`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// The op (cell, program or request) the span belongs to.
    pub op: u64,
}

/// An in-memory span recorder; off unless built with [`Tracer::on`].
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { epoch: Instant::now(), spans: None }
    }

    /// A recording tracer whose timestamps count from `epoch` (threads that
    /// share an epoch can be merged with [`Tracer::absorb`]).
    pub fn on(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Some(Vec::new()) }
    }

    /// A tracer of the same kind as `self`, sharing its epoch.
    pub fn sibling(&self) -> Tracer {
        Tracer { epoch: self.epoch, spans: self.spans.as_ref().map(|_| Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        let start_ns = if self.spans.is_some() { self.now_ns() } else { return None };
        let spans = self.spans.as_mut().expect("checked above");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        Some(spans.len() - 1)
    }

    /// Closes a span returned by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.as_mut().expect("ids come from an enabled tracer")[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        if let (Some(spans), Some(theirs)) = (self.spans.as_mut(), other.spans) {
            let offset = spans.len();
            spans.extend(
                theirs.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
            );
        }
    }

    /// The recorded spans (empty when off).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Total seconds inside spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans().iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut main = Tracer::on(epoch);
        main.span("a", 0, None, || ());
        let mut worker = main.sibling();
        let root = worker.open("b", 1, None);
        worker.span("c", 1, root, || ());
        worker.close(root);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "c");
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("a", 0, None);
        assert_eq!(t.span("b", 0, id, || 7), 7);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("a"), 0.0);
    }
}
