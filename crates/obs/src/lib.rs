//! Zero-dependency observability for the polyview pipeline.
//!
//! The paper's workflow (Section 4) is a database session: classes are
//! declared once and then served many queries. Optimising that loop —
//! kinded unification in Fig. 1's sense, the Fig. 3/5 translation size,
//! evaluation fuel — requires a measurement substrate first. This crate is
//! that substrate, built on `std` alone so the tier-1 pipeline stays fully
//! offline (DESIGN.md §7: no external crates, not even `tracing`):
//!
//! * [`Clock`] — a nanosecond time source. [`WallClock`] wraps
//!   [`std::time::Instant`]; [`ManualClock`] is injectable and advances
//!   deterministically, so phase-timing assertions are exact in tests.
//! * [`Span`] / [`Tracer`] — lightweight begin/finish spans. Finishing a
//!   span yields its duration and, when tracing is enabled, emits a
//!   [`SpanRecord`] to the configured [`TraceSink`], stamped with the
//!   tracer's trace id and scope.
//! * [`Registry`] — named monotone [`Counter`]s, settable [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s (latencies, sizes), exportable as JSON
//!   lines (one JSON object per line) without any serialization
//!   dependency.
//! * [`TraceSink`] — [`NullSink`] (drop everything), [`CollectingSink`]
//!   (keep records in memory, for tests), and [`JsonLinesSink`] (write one
//!   JSON object per record to any [`std::io::Write`]).
//!
//! Every type is `Send + Sync`, so one vocabulary serves a single engine
//! and a replicated pool alike: handles are `Arc`-shared atomics, sinks
//! and registries lock only to append or to resolve a name, and a pool
//! hands its clock and sink straight to each replica's engine. [`jsonl`]
//! provides a tiny std-only JSON line codec for smoke-testing the exports.
//! The [`window`] module layers sliding-window views (rates, windowed
//! quantiles) over the cumulative registries as reader-side snapshot
//! deltas — storage stays cumulative, and a layer that never ticks a
//! window never reads a clock.

pub mod clock;
pub mod jsonl;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod window;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use sink::{CollectingSink, JsonLinesSink, NullSink, SpanRecord, TraceSink};
pub use span::{Span, Tracer};
pub use window::{RegistrySnapshot, SnapshotRing, WindowView};

/// Minimal JSON string escaping (quotes, backslashes, control characters).
/// Metric and span names are ASCII identifiers in practice, but the escape
/// keeps the JSON-lines exports well-formed for arbitrary input. Public so
/// downstream JSON-lines renderers (the engine's profile export) share one
/// escaping discipline with the registry's.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles only if every public type of the crate can cross threads.
    #[test]
    fn every_public_type_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Clock>();
        assert_send_sync::<WallClock>();
        assert_send_sync::<ManualClock>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<HistogramSnapshot>();
        assert_send_sync::<Registry>();
        assert_send_sync::<dyn TraceSink>();
        assert_send_sync::<SpanRecord>();
        assert_send_sync::<NullSink>();
        assert_send_sync::<CollectingSink>();
        assert_send_sync::<JsonLinesSink<Vec<u8>>>();
        assert_send_sync::<JsonLinesSink<std::io::Stderr>>();
        assert_send_sync::<Span>();
        assert_send_sync::<Tracer>();
        assert_send_sync::<RegistrySnapshot>();
        assert_send_sync::<SnapshotRing>();
        assert_send_sync::<WindowView>();
        assert_send_sync::<jsonl::JsonError>();
        assert_send_sync::<jsonl::JsonValue>();
        assert_send_sync::<jsonl::ObjectBuilder>();
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
