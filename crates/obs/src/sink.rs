//! Trace sinks: where finished spans go.
//!
//! The engine always *times* phases (histograms are cheap); emitting
//! per-span records is opt-in via a [`TraceSink`]. [`NullSink`] is the
//! default, [`CollectingSink`] backs tests, and [`JsonLinesSink`] streams
//! one JSON object per span to any writer (the REPL's `:trace on`,
//! `pool_server --trace`). Sinks are `Send + Sync`: a pool's router, its
//! workers and their engines all emit into one shared sink.

use crate::json_escape;
use std::io::Write;
use std::sync::{Mutex, MutexGuard};

/// One finished span: a named phase or lifecycle stamp with a start time,
/// a duration, correlation fields, and integer attributes (counts, sizes).
///
/// * `trace_id` — the request this span belongs to (0 = no request: a
///   standalone engine, or background replay work in a pool).
/// * `parent` — set on spans emitted *inside* another component on behalf
///   of the request (a pool worker's engine phase spans carry the owning
///   request id here); `None` on top-level lifecycle events.
///
/// Instantaneous lifecycle stamps are spans with `dur_ns == 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    pub trace_id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub attrs: Vec<(String, u64)>,
}

impl SpanRecord {
    /// Render as a single-line JSON object: `"kind":"span"`, the name, the
    /// trace id, the parent when present, the timing, then the attributes
    /// as flat integer fields in order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"kind\":\"span\",\"name\":\"");
        json_escape(&self.name, &mut out);
        out.push_str(&format!("\",\"trace_id\":{}", self.trace_id));
        if let Some(p) = self.parent {
            out.push_str(&format!(",\"parent\":{p}"));
        }
        out.push_str(&format!(
            ",\"start_ns\":{},\"dur_ns\":{}",
            self.start_ns, self.dur_ns
        ));
        for (k, v) in &self.attrs {
            out.push_str(",\"");
            json_escape(k, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push('}');
        out
    }
}

/// A consumer of finished spans, shared across threads. `&self` with
/// interior mutability; emission must never fail the traced computation.
pub trait TraceSink: Send + Sync {
    fn emit(&self, span: &SpanRecord);
}

/// Discards every span.
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _span: &SpanRecord) {}
}

/// Keeps every span in memory, in emission order — the test sink.
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl CollectingSink {
    pub fn new() -> Self {
        CollectingSink::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A copy of the collected spans, in emission order.
    pub fn events(&self) -> Vec<SpanRecord> {
        self.lock().clone()
    }

    /// Drain the collected spans.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.lock())
    }
}

impl TraceSink for CollectingSink {
    fn emit(&self, span: &SpanRecord) {
        self.lock().push(span.clone());
    }
}

/// Writes one JSON object per span to the wrapped writer. Write errors are
/// swallowed: tracing must never fail the traced computation.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn emit(&self, span: &SpanRecord) {
        let mut line = span.to_json();
        line.push('\n');
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn record() -> SpanRecord {
        SpanRecord {
            name: "infer".into(),
            trace_id: 0,
            parent: None,
            start_ns: 10,
            dur_ns: 32,
            attrs: vec![("unify_steps".into(), 4)],
        }
    }

    #[test]
    fn span_record_json_shape() {
        assert_eq!(
            record().to_json(),
            "{\"kind\":\"span\",\"name\":\"infer\",\"trace_id\":0,\"start_ns\":10,\"dur_ns\":32,\"unify_steps\":4}"
        );
        let ev = SpanRecord {
            name: "pool.dequeued".into(),
            trace_id: 7,
            parent: None,
            start_ns: 10,
            dur_ns: 3,
            attrs: vec![("worker".into(), 1)],
        };
        assert_eq!(
            ev.to_json(),
            "{\"kind\":\"span\",\"name\":\"pool.dequeued\",\"trace_id\":7,\"start_ns\":10,\"dur_ns\":3,\"worker\":1}"
        );
        let child = SpanRecord {
            name: "engine.parse".into(),
            trace_id: 7,
            parent: Some(7),
            start_ns: 12,
            dur_ns: 1,
            attrs: vec![],
        };
        assert_eq!(
            child.to_json(),
            "{\"kind\":\"span\",\"name\":\"engine.parse\",\"trace_id\":7,\"parent\":7,\"start_ns\":12,\"dur_ns\":1}"
        );
    }

    #[test]
    fn collecting_sink_collects_in_order_across_threads() {
        let s = Arc::new(CollectingSink::new());
        assert!(s.is_empty());
        s.emit(&record());
        std::thread::scope(|scope| {
            let s = Arc::clone(&s);
            scope.spawn(move || {
                s.emit(&SpanRecord {
                    name: "eval".into(),
                    dur_ns: 9,
                    attrs: vec![],
                    ..record()
                })
            });
        });
        assert_eq!(s.len(), 2);
        assert_eq!(s.events().len(), 2, "events() copies, it does not drain");
        let spans = s.take();
        assert_eq!(spans[0].name, "infer");
        assert_eq!(spans[1].name, "eval");
        assert!(s.is_empty());
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_span() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(&record());
        sink.emit(&record());
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        for l in text.lines() {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn null_sink_is_a_noop() {
        NullSink.emit(&record());
    }
}
