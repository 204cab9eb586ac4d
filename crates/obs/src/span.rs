//! Spans and the tracer that times them.
//!
//! A [`Tracer`] bundles a [`Clock`] and a [`TraceSink`]. Starting a span
//! reads the clock once; finishing it reads the clock again, returns the
//! duration (callers feed it into a histogram), and — only when tracing is
//! enabled — emits a [`SpanRecord`] to the sink. A span does not borrow
//! the tracer while open, so the traced computation is free to take `&mut`
//! over whatever owns the tracer.
//!
//! An embedding layer places the tracer's spans in its own trace without
//! wrapping the sink: [`Tracer::set_trace_id`] names the request the
//! following spans run on behalf of, and [`Tracer::set_scope`] sets the
//! constants every span carries (a name prefix and trailing attributes).

use crate::clock::{Clock, WallClock};
use crate::sink::{NullSink, SpanRecord, TraceSink};
use std::sync::Arc;

/// Clock + sink + an on/off switch for record emission. Timing itself is
/// always on; only the per-span records are gated.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    sink: Arc<dyn TraceSink>,
    enabled: bool,
    trace_id: u64,
    prefix: String,
    attrs: Vec<(String, u64)>,
}

impl Tracer {
    /// Wall clock, null sink, emission disabled — the production default.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Arc::new(WallClock::new()), Arc::new(NullSink))
        }
    }

    pub fn new(clock: Arc<dyn Clock>, sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            clock,
            sink,
            enabled: true,
            trace_id: 0,
            prefix: String::new(),
            attrs: Vec::new(),
        }
    }

    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Install a sink and enable emission.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
        self.enabled = true;
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The request id stamped on spans started from now on: their
    /// record's `trace_id`, and its `parent` when nonzero. 0 (the
    /// default) marks spans that serve no request.
    pub fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
    }

    /// Constants for every emitted record: `prefix` is prepended to the
    /// span name and `attrs` follow the span's own attributes. An
    /// embedding layer sets them once (a pool worker: `engine.`, its
    /// worker index and generation); by default both are empty.
    pub fn set_scope(&mut self, prefix: impl Into<String>, attrs: Vec<(String, u64)>) {
        self.prefix = prefix.into();
        self.attrs = attrs;
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Start a span at the current clock reading, under the current trace
    /// id.
    pub fn span(&self, name: impl Into<String>) -> Span {
        Span {
            name: name.into(),
            trace_id: self.trace_id,
            start_ns: self.clock.now_ns(),
            attrs: Vec::new(),
        }
    }
}

/// An open span: a name, a start time, and integer attributes attached
/// along the way. Finish with [`Span::finish`] to get the duration.
#[derive(Clone, Debug)]
pub struct Span {
    name: String,
    trace_id: u64,
    start_ns: u64,
    attrs: Vec<(String, u64)>,
}

impl Span {
    pub fn attr(&mut self, key: impl Into<String>, value: u64) {
        self.attrs.push((key.into(), value));
    }

    /// Close the span against `tracer`: reads the clock, emits the record
    /// if tracing is enabled, and returns the measured duration in ns.
    pub fn finish(self, tracer: &Tracer) -> u64 {
        let dur_ns = tracer.now_ns().saturating_sub(self.start_ns);
        if tracer.enabled {
            let mut attrs = self.attrs;
            attrs.extend(tracer.attrs.iter().cloned());
            let name = if tracer.prefix.is_empty() {
                self.name
            } else {
                format!("{}{}", tracer.prefix, self.name)
            };
            tracer.sink.emit(&SpanRecord {
                name,
                trace_id: self.trace_id,
                parent: (self.trace_id != 0).then_some(self.trace_id),
                start_ns: self.start_ns,
                dur_ns,
                attrs,
            });
        }
        dur_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::sink::CollectingSink;

    #[test]
    fn span_measures_clock_delta() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(clock.clone(), Arc::new(NullSink));
        let sp = tracer.span("parse");
        clock.advance(250);
        assert_eq!(sp.finish(&tracer), 250);
    }

    #[test]
    fn stepping_clock_gives_nonzero_spans() {
        let tracer = Tracer::new(Arc::new(ManualClock::with_step(100)), Arc::new(NullSink));
        let sp = tracer.span("infer");
        assert_eq!(sp.finish(&tracer), 100);
    }

    #[test]
    fn enabled_tracer_emits_records_with_attrs() {
        let sink = Arc::new(CollectingSink::new());
        let mut tracer = Tracer::new(Arc::new(ManualClock::with_step(10)), sink.clone());
        let mut sp = tracer.span("eval");
        sp.attr("fuel", 7);
        sp.finish(&tracer);
        let spans = sink.events();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "eval");
        assert_eq!(spans[0].dur_ns, 10);
        assert_eq!((spans[0].trace_id, spans[0].parent), (0, None));
        assert_eq!(spans[0].attrs, vec![("fuel".to_string(), 7)]);

        tracer.set_enabled(false);
        tracer.span("eval").finish(&tracer);
        assert_eq!(sink.len(), 1, "disabled tracer must not emit");
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut tracer = Tracer::disabled();
        tracer.set_clock(Arc::new(ManualClock::with_step(33)));
        let sp = tracer.span("parse");
        assert_eq!(sp.finish(&tracer), 33);
    }

    #[test]
    fn trace_id_and_scope_stamp_records() {
        let sink = Arc::new(CollectingSink::new());
        let mut tracer = Tracer::new(Arc::new(ManualClock::with_step(1)), sink.clone());
        tracer.set_scope(
            "engine.",
            vec![("worker".into(), 2), ("generation".into(), 1)],
        );
        tracer.set_trace_id(42);
        let mut sp = tracer.span("parse");
        // The id is taken at span start: clearing it before the finish
        // still stamps the span with the request it started under.
        tracer.set_trace_id(0);
        sp.attr("tokens", 9);
        sp.finish(&tracer);
        tracer.span("parse").finish(&tracer);
        let spans = sink.events();
        assert_eq!(spans[0].name, "engine.parse");
        assert_eq!((spans[0].trace_id, spans[0].parent), (42, Some(42)));
        assert_eq!(
            spans[0].attrs,
            vec![
                ("tokens".to_string(), 9),
                ("worker".to_string(), 2),
                ("generation".to_string(), 1)
            ]
        );
        assert_eq!(
            (spans[1].trace_id, spans[1].parent),
            (0, None),
            "cleared id must not leak"
        );
        assert_eq!(spans[1].attrs.len(), 2, "scope attributes stay");
    }
}
