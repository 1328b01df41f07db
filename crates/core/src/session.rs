//! A reusable, incrementally-fed detector handle.
//!
//! [`certify`](crate::replay::certify) and the offline
//! [`replay`](arbalest_offload::trace::replay) entry points assume the
//! whole event stream is in hand. A long-lived analysis service gets
//! events in batches, interleaved across many concurrent sessions, and
//! needs one detector *per session* that can be fed piecemeal and asked
//! for its findings at the end. [`AnalysisSession`] is that handle: an
//! [`Arbalest`] instance plus event accounting, with the same
//! event-dispatch semantics as a replay (so a session fed a trace yields
//! exactly the reports an in-process replay of that trace yields).

use crate::detector::{Arbalest, ArbalestConfig, DetectorSnapshot, RestoreError};
use arbalest_offload::report::Report;
use arbalest_offload::trace::{apply, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Complete serializable state of an [`AnalysisSession`]: the detector
/// dump plus the fed-event count (recovery uses the count to skip
/// already-applied events when replaying a WAL tail over a snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Events fed when the snapshot was taken.
    pub events: u64,
    /// Detector state.
    pub detector: DetectorSnapshot,
}

/// One analysis session: a private detector fed one event stream.
pub struct AnalysisSession {
    tool: Arbalest,
    events: AtomicU64,
}

impl AnalysisSession {
    /// Open a session with its own detector state.
    pub fn new(cfg: ArbalestConfig) -> AnalysisSession {
        AnalysisSession { tool: Arbalest::new(cfg), events: AtomicU64::new(0) }
    }

    /// Open a session whose detector records metrics into `reg` (the
    /// server shares one registry across all sessions of a shard pool).
    pub fn with_registry(cfg: ArbalestConfig, reg: arbalest_obs::Registry) -> AnalysisSession {
        AnalysisSession { tool: Arbalest::with_registry(cfg, reg), events: AtomicU64::new(0) }
    }

    /// Feed one event, exactly as a live runtime would have delivered it.
    pub fn feed(&self, ev: &TraceEvent) {
        self.events.fetch_add(1, Relaxed);
        apply(ev, &self.tool);
    }

    /// Feed a batch in order.
    pub fn feed_batch(&self, events: &[TraceEvent]) {
        for ev in events {
            self.feed(ev);
        }
    }

    /// Events fed so far.
    pub fn events(&self) -> u64 {
        self.events.load(Relaxed)
    }

    /// Findings so far (the session stays usable).
    pub fn reports(&self) -> Vec<Report> {
        use arbalest_offload::events::Tool;
        self.tool.reports()
    }

    /// Detector side-table footprint in bytes.
    pub fn side_table_bytes(&self) -> u64 {
        use arbalest_offload::events::Tool;
        self.tool.side_table_bytes()
    }

    /// Shed detector side-table memory (shadow pages, race-access history,
    /// cached lookups), switching the session into May mode: VSM
    /// violations are suppressed from here on because the evicted state can
    /// no longer support a Must claim. Returns the approximate bytes freed.
    /// One-way; needs the session exclusively, between batches.
    pub fn evict_to_may(&mut self) -> u64 {
        self.tool.evict_to_may()
    }

    /// Whether [`evict_to_may`](Self::evict_to_may) has run: the session
    /// survives under its memory budget but its findings are incomplete.
    pub fn degraded(&self) -> bool {
        self.tool.degraded()
    }

    /// Close the session, returning its findings and freeing all detector
    /// state.
    pub fn finish(self) -> Vec<Report> {
        self.reports()
    }

    /// Dump the session as plain data for a durable snapshot.
    pub fn to_snapshot(&self) -> SessionSnapshot {
        SessionSnapshot { events: self.events(), detector: self.tool.to_snapshot() }
    }

    /// Rebuild a session from a [`SessionSnapshot`], recording metrics
    /// into `reg`. Feeding the restored session the events recorded after
    /// the snapshot yields reports byte-identical to a session that was
    /// never interrupted.
    pub fn from_snapshot(
        snap: &SessionSnapshot,
        reg: arbalest_obs::Registry,
    ) -> Result<AnalysisSession, RestoreError> {
        Ok(AnalysisSession {
            tool: Arbalest::from_snapshot(&snap.detector, reg)?,
            events: AtomicU64::new(snap.events),
        })
    }
}

impl Default for AnalysisSession {
    fn default() -> Self {
        AnalysisSession::new(ArbalestConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::prelude::*;
    use arbalest_offload::trace::{replay, TraceRecorder};
    use std::sync::Arc;

    fn buggy_trace() -> Vec<TraceEvent> {
        let rec = Arc::new(TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default(), rec.clone());
        let a = rt.alloc_init::<i64>("a", &[1; 8]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1);
            });
        });
        let _ = rt.read(&a, 0);
        rec.take()
    }

    #[test]
    fn batched_feeding_matches_replay() {
        let trace = buggy_trace();
        let whole = Arbalest::new(ArbalestConfig::default());
        replay(&trace, &whole);

        let session = AnalysisSession::default();
        for chunk in trace.chunks(3) {
            session.feed_batch(chunk);
        }
        assert_eq!(session.events(), trace.len() as u64);
        use arbalest_offload::events::Tool;
        assert_eq!(session.finish(), whole.reports());
    }

    #[test]
    fn snapshot_mid_stream_resumes_byte_identical() {
        let trace = buggy_trace();
        let whole = AnalysisSession::default();
        whole.feed_batch(&trace);

        // Cut the stream at every prefix length: snapshot, restore, feed
        // the tail, and demand identical findings and state dumps.
        for cut in 0..=trace.len() {
            let first = AnalysisSession::default();
            first.feed_batch(&trace[..cut]);
            let snap = first.to_snapshot();
            let resumed =
                AnalysisSession::from_snapshot(&snap, arbalest_obs::Registry::new()).unwrap();
            assert_eq!(resumed.events(), cut as u64);
            assert_eq!(resumed.to_snapshot(), snap, "restore must round-trip at cut {cut}");
            resumed.feed_batch(&trace[cut..]);
            assert_eq!(resumed.to_snapshot(), whole.to_snapshot(), "state diverged at cut {cut}");
            assert_eq!(resumed.finish(), whole.reports(), "reports diverged at cut {cut}");
        }
    }

    #[test]
    fn snapshot_restore_rejects_inconsistent_race_flag() {
        use crate::detector::RestoreError;
        let session = AnalysisSession::default();
        let mut snap = session.to_snapshot();
        snap.detector.race = None; // check_races still true
        let err = AnalysisSession::from_snapshot(&snap, arbalest_obs::Registry::new());
        assert_eq!(err.err(), Some(RestoreError::RaceMismatch));
    }

    #[test]
    fn sessions_are_isolated() {
        let trace = buggy_trace();
        let buggy = AnalysisSession::default();
        let idle = AnalysisSession::default();
        buggy.feed_batch(&trace);
        assert!(!buggy.reports().is_empty());
        assert!(idle.finish().is_empty());
    }
}
