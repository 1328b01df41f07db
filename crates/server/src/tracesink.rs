//! Collection point for the server's causal-trace spans.
//!
//! A connection's handler records each completed [`SpanEvent`] of its
//! session into the session's own buffer, so the session's whole causal
//! tree — `client_submit` roots, `wal_append` and `shard_job` children,
//! `detector_feed` grandchildren — can be written out as one Chrome trace
//! file when the session finishes. A bounded ring of the most recent
//! spans (any session) answers the `TraceSnapshot` admin frame.
//!
//! Both buffers are bounded: a session past [`SESSION_SPAN_CAP`] drops
//! further spans (counted in
//! `arbalest_server_trace_spans_dropped_total`), and the ring overwrites
//! its oldest entries. Tracing never grows server memory without bound.

use arbalest_obs::{Counter, Registry, SpanEvent};
use arbalest_sync::Mutex;
use std::collections::VecDeque;

/// Spans kept per session before further ones are dropped (and counted).
pub const SESSION_SPAN_CAP: usize = 4096;
/// Most-recent spans kept for `TraceSnapshot`, across all sessions.
pub const RECENT_SPAN_CAP: usize = 1024;

/// The most-recent ring, plus the drop counter of per-session buffers.
pub struct TraceSink {
    recent: Mutex<VecDeque<SpanEvent>>,
    /// `arbalest_server_trace_spans_dropped_total`: spans refused by a
    /// full per-session buffer.
    dropped: Counter,
}

impl TraceSink {
    /// A sink whose drop counter records into `reg`.
    pub fn new(reg: &Registry) -> TraceSink {
        TraceSink {
            recent: Mutex::new(VecDeque::new()),
            dropped: reg.counter("arbalest_server_trace_spans_dropped_total", &[]),
        }
    }

    /// Record a completed span into its session's buffer `session` (while
    /// it has room) and into the recent ring.
    pub fn record(&self, session: &mut Vec<SpanEvent>, ev: SpanEvent) {
        if session.len() < SESSION_SPAN_CAP {
            session.push(ev);
        } else {
            self.dropped.inc();
        }
        let mut recent = self.recent.lock();
        if recent.len() >= RECENT_SPAN_CAP {
            recent.pop_front();
        }
        recent.push_back(ev);
    }

    /// The most recent spans across all sessions, oldest first.
    pub fn recent(&self) -> Vec<SpanEvent> {
        self.recent.lock().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start_ns: u64) -> SpanEvent {
        SpanEvent {
            name: "test",
            tid: 0,
            start_ns,
            dur_ns: 1,
            trace: u128::from(start_ns) + 1,
            span: start_ns + 1,
            parent: 0,
        }
    }

    #[test]
    fn session_buffer_is_bounded_and_drops_are_counted() {
        let reg = Registry::new();
        let sink = TraceSink::new(&reg);
        let mut session = Vec::new();
        for i in 0..(SESSION_SPAN_CAP as u64 + 10) {
            sink.record(&mut session, ev(i));
        }
        assert_eq!(session.len(), SESSION_SPAN_CAP);
        assert_eq!(
            reg.snapshot().counter("arbalest_server_trace_spans_dropped_total", &[]),
            Some(10)
        );
    }

    #[test]
    fn recent_ring_keeps_the_newest() {
        let reg = Registry::new();
        let sink = TraceSink::new(&reg);
        let mut session = Vec::new();
        for i in 0..(RECENT_SPAN_CAP as u64 + 5) {
            sink.record(&mut session, ev(i));
        }
        let recent = sink.recent();
        assert_eq!(recent.len(), RECENT_SPAN_CAP);
        // The oldest five were overwritten.
        assert_eq!(recent.first().unwrap().start_ns, 5);
    }
}
