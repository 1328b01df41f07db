//! Server-wide counters (the `STATS` frame's source of truth).
//!
//! Since PR 4 these live in an [`arbalest_obs::Registry`], so the same
//! atomic cells back both the binary `StatsReply` snapshot and the
//! Prometheus text answered to a `Metrics` frame — the two views cannot
//! drift apart.

use crate::proto::StatsSnapshot;
use arbalest_obs::{Counter, Registry};
use arbalest_offload::report::{Report, ReportKind};
use arbalest_offload::wire::report_kind_tag;

/// Monotonic counters shared by every connection.
#[derive(Debug)]
pub struct GlobalStats {
    /// Sessions opened (`Hello`, fresh or resumed).
    pub sessions_started: Counter,
    /// Sessions closed (`Finish` or abort).
    pub sessions_finished: Counter,
    /// Events logged and fed to a session's detector.
    pub events_received: Counter,
    /// Reports from finished sessions, indexed by
    /// [`report_kind_tag`].
    pub reports_by_kind: Vec<Counter>,
}

impl GlobalStats {
    /// Register the server counters in `reg`. Every cell is shared with
    /// the registry's exporters: incrementing here moves both the binary
    /// `STATS` snapshot and the Prometheus text in lockstep.
    pub fn new(reg: &Registry) -> GlobalStats {
        GlobalStats {
            sessions_started: reg.counter("arbalest_server_sessions_started_total", &[]),
            sessions_finished: reg.counter("arbalest_server_sessions_finished_total", &[]),
            events_received: reg.counter("arbalest_server_events_received_total", &[]),
            reports_by_kind: ReportKind::ALL
                .iter()
                .map(|k| reg.counter("arbalest_server_reports_total", &[("kind", k.label())]))
                .collect(),
        }
    }

    /// Fold a finished session's findings into the per-kind counters.
    pub fn count_reports(&self, reports: &[Report]) {
        for r in reports {
            self.reports_by_kind[report_kind_tag(r.kind) as usize].inc();
        }
    }

    /// Materialise a snapshot; `session_events` comes from the requesting
    /// connection's session.
    pub fn snapshot(&self, session_events: u64) -> StatsSnapshot {
        StatsSnapshot {
            sessions_started: self.sessions_started.get(),
            sessions_finished: self.sessions_finished.get(),
            events_received: self.events_received.get(),
            reports_by_kind: std::array::from_fn(|i| self.reports_by_kind[i].get()),
            session_events,
        }
    }
}

impl Default for GlobalStats {
    fn default() -> Self {
        GlobalStats::new(&Registry::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::wire::REPORT_KIND_COUNT;

    #[test]
    fn stats_and_registry_share_cells() {
        let reg = Registry::new();
        let stats = GlobalStats::new(&reg);
        stats.sessions_started.inc();
        stats.events_received.add(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("arbalest_server_sessions_started_total", &[]), Some(1));
        assert_eq!(snap.counter("arbalest_server_events_received_total", &[]), Some(42));
        assert_eq!(stats.reports_by_kind.len(), REPORT_KIND_COUNT);
    }
}
