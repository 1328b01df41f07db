//! A connection's session: its detector, WAL handle and span buffer,
//! analysed on the connection's own thread under a panic guard and a
//! per-session memory budget.
//!
//! A traced batch's spans (`client_submit` root, `wal_append` and
//! `shard_job` children, `detector_feed` grandchild) go to the metrics
//! registry's flight recorder. With a trace directory configured, the
//! session also keeps them, up to [`SESSION_SPAN_CAP`] (further ones are
//! counted in `arbalest_server_trace_spans_dropped_total`), and writes
//! its tree out as one Chrome trace file at a clean finish.
//!
//! All events of a session arrive on one connection, so analysing each
//! batch on that connection's thread keeps them in arrival order (the
//! property the VSM needs) with no queue between the socket and the
//! detector. [`ServerConfig::shards`] bounds how many sessions are
//! analysed at once: a batch, snapshot, recovery or finish holds one slot
//! of a counting [`Gate`] while it runs, never a whole session, so an
//! open but idle session keeps no one waiting. Backpressure is TCP flow
//! control plus the per-batch ack: a client has at most two batches in
//! flight, and the server reads the next one once the last is logged and
//! analysed.
//!
//! Two failure domains are contained here rather than allowed to take
//! the process down:
//!
//! * **Panics.** Analysis runs under `catch_unwind`. A panic discards the
//!   session's detector and quarantines the session: every later frame
//!   for it answers a typed [`SessionFailure::ShardPanic`]. Other
//!   sessions live on other threads and are untouched.
//! * **Memory.** After every batch the resource governor compares the
//!   session's side-table footprint (shadow pages, present-table ranges,
//!   race history) against the configured byte budget. A first breach
//!   degrades the session via
//!   [`evict_to_may`](AnalysisSession::evict_to_may) — memory is shed,
//!   the protocol keeps flowing; a breach that eviction cannot cure
//!   quarantines the session with a typed
//!   [`SessionFailure::BudgetExceeded`]. A degraded session that reaches
//!   `Finish` also answers `BudgetExceeded`: its findings are incomplete
//!   by construction and the server refuses to pass them off as sound.

use crate::proto::Frame;
use crate::server::{ServerConfig, ServerMetrics};
use crate::supervise::{panic_message, SessionFailure};
use arbalest_core::session::AnalysisSession;
use arbalest_core::ArbalestConfig;
use arbalest_obs::{Registry, Span, SpanContext, SpanEvent, SpanName};
use arbalest_offload::fault::{FaultOutcome, FaultPlan, FaultSite};
use arbalest_offload::trace::TraceEvent;
use arbalest_store::{SessionLog, Store};
use arbalest_sync::{Condvar, Mutex};
use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spans a traced session keeps before further ones are dropped (and
/// counted).
const SESSION_SPAN_CAP: usize = 4096;

/// A counting gate: at most `width` holders at once.
pub(crate) struct Gate {
    free: Mutex<usize>,
    freed: Condvar,
}

/// One held slot of a [`Gate`], returned on drop (unwinding included).
struct GateSlot<'a>(&'a Gate);

impl Gate {
    fn new(width: usize) -> Gate {
        Gate { free: Mutex::new(width), freed: Condvar::new() }
    }

    fn enter(&self) -> GateSlot<'_> {
        let mut free = self.free.lock();
        while *free == 0 {
            self.freed.wait(&mut free);
        }
        *free -= 1;
        GateSlot(self)
    }
}

impl Drop for GateSlot<'_> {
    fn drop(&mut self) {
        *self.0.free.lock() += 1;
        self.0.freed.notify_one();
    }
}

/// Span names of the batch pipeline, interned once so a batch skips the
/// registry's name-table lock.
struct Names {
    client_submit: SpanName,
    wal_append: SpanName,
    shard_job: SpanName,
    detector_feed: SpanName,
    snapshot_write: SpanName,
}

/// What every connection's session shares: configuration, the gate, the
/// store and the metrics.
pub(crate) struct Analysis {
    detector: ArbalestConfig,
    pub(crate) registry: Registry,
    pub(crate) metrics: Arc<ServerMetrics>,
    gate: Gate,
    /// Durable-session store; `None` when `data_dir` is unset. Shared
    /// with the sessions' snapshot writers.
    store: Option<Arc<Store>>,
    /// Sessions bound to a live connection. Resuming one of these is
    /// refused: two writers on one WAL would interleave.
    attached: Mutex<HashSet<u64>>,
    next_id: AtomicU64,
    trace_dir: Option<PathBuf>,
    max_session_bytes: u64,
    /// Injected analysis faults ([`FaultSite::ShardPanic`],
    /// [`FaultSite::BudgetPressure`]) for chaos soaks.
    plan: FaultPlan,
    names: Names,
}

impl Analysis {
    /// Build the shared side of analysis, opening the store if `cfg` has a
    /// data directory. Sessions are rebuilt from disk only when a client
    /// resumes them, so boot just moves fresh ids past every id on disk.
    pub(crate) fn new(cfg: &ServerConfig) -> std::io::Result<Analysis> {
        let registry = cfg.metrics.clone();
        let store = match &cfg.data_dir {
            Some(dir) => Some(Arc::new(
                Store::open(dir, cfg.store.clone(), &registry)
                    .map_err(|e| std::io::Error::other(format!("open {}: {e}", dir.display())))?,
            )),
            None => None,
        };
        let next_id = match &store {
            Some(store) => store
                .session_ids()
                .map_err(|e| std::io::Error::other(format!("list sessions: {e}")))?
                .last()
                .map_or(1, |id| id.saturating_add(1)),
            None => 1,
        };
        let name = |n| registry.span_name(n);
        Ok(Analysis {
            detector: cfg.detector.clone(),
            metrics: registry.state(ServerMetrics::new),
            gate: Gate::new(cfg.shards.clamp(1, 64)),
            store,
            attached: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(next_id),
            trace_dir: cfg.trace_dir.clone(),
            max_session_bytes: cfg.max_session_bytes,
            plan: FaultPlan::new(cfg.faults),
            names: Names {
                client_submit: name("client_submit"),
                wal_append: name("wal_append"),
                shard_job: name("shard_job"),
                detector_feed: name("detector_feed"),
                snapshot_write: name("snapshot_write"),
            },
            registry,
        })
    }

    /// Open a fresh session (`resume: None`), or rebuild a durable one from
    /// its snapshot and WAL tail. The error is the frame to answer with.
    pub(crate) fn open(&self, resume: Option<u64>) -> Result<Session, Frame> {
        let id = match (resume, &self.store) {
            (None, _) => self.next_id.fetch_add(1, Relaxed),
            // Without a data directory a dropped session is gone, so
            // there is nothing sound to attach to.
            (Some(id), None) => {
                return Err(Frame::error(format!(
                    "cannot resume session {id}: resuming needs a durable server \
                     (serve --data-dir)"
                )))
            }
            (Some(id), Some(_)) => id,
        };
        // Two connections on one session would interleave WAL appends;
        // first writer wins.
        if !self.attached.lock().insert(id) {
            return Err(Frame::error(format!("session {id} is attached to another connection")));
        }
        let opened = self.open_attached(id, resume.is_some());
        if opened.is_err() {
            self.attached.lock().remove(&id);
        }
        opened
    }

    fn open_attached(&self, id: u64, resume: bool) -> Result<Session, Frame> {
        let (detector, events) = match &self.store {
            Some(store) if resume => self.recover(store, id)?,
            _ => (AnalysisSession::with_registry(self.detector.clone(), self.registry.clone()), 0),
        };
        // Before acking, make sure the WAL is writable: an event acked
        // without a durable home would be a silent durability hole.
        let log = match &self.store {
            Some(store) => Some(
                store
                    .open_log(id, events)
                    .map_err(|e| Frame::error(format!("open WAL for session {id}: {e}")))?,
            ),
            None => None,
        };
        self.metrics.sessions_started.inc();
        Ok(Session {
            id,
            state: State::Live(Box::new(Live { detector, peak_bytes: 0 })),
            log,
            writer: None,
            events,
            spans: Vec::new(),
        })
    }

    /// Rebuild a session from disk, which is the authority: the append
    /// point and the detector agree exactly. Runs under the panic guard;
    /// a typed failure is counted by its error label.
    fn recover(&self, store: &Store, id: u64) -> Result<(AnalysisSession, u64), Frame> {
        if !store.session_dir(id).exists() {
            return Err(Frame::error(format!("unknown session {id}")));
        }
        let _slot = self.gate.enter();
        match self.guarded(|| store.recover_session(id, &self.detector, &self.registry)) {
            Ok(Ok(rec)) => Ok((rec.session, rec.events)),
            Ok(Err(e)) => {
                self.registry
                    .counter("arbalest_store_recovery_failures_total", &[("error", e.label())])
                    .inc();
                Err(Frame::error(format!("recover session {id}: {e}")))
            }
            Err(failure) => Err(Frame::SessionFailed(failure)),
        }
    }

    /// Run `f` under the panic guard: a panic becomes a typed
    /// [`SessionFailure::ShardPanic`], counted as a quarantine.
    fn guarded<T>(&self, f: impl FnOnce() -> T) -> Result<T, SessionFailure> {
        std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            self.metrics.quarantined_panic.inc();
            SessionFailure::ShardPanic { message: panic_message(payload.as_ref()) }
        })
    }

    /// The resource governor, run after every analysed batch. Returns the
    /// failure to quarantine with, or `None` to keep the session live
    /// (possibly newly degraded).
    fn govern_budget(&self, live: &mut Live) -> Option<SessionFailure> {
        let budget = self.max_session_bytes;
        let injected = self.plan.decide(FaultSite::BudgetPressure) != FaultOutcome::None;
        if budget == 0 && !injected {
            return None;
        }
        let used = live.detector.side_table_bytes();
        live.peak_bytes = live.peak_bytes.max(used);
        let over = (budget > 0 && used > budget) || injected;
        if !over {
            return None;
        }
        if live.detector.degraded() {
            // Eviction already ran and the session is over budget again (or
            // chaos keeps the pressure on): degradation has failed to cure it.
            self.metrics.quarantined_budget.inc();
            return Some(SessionFailure::BudgetExceeded { used_bytes: used, budget_bytes: budget });
        }
        // First breach: shed side-table memory and keep serving in May mode.
        live.detector.evict_to_may();
        self.metrics.budget_evictions.inc();
        let after = live.detector.side_table_bytes();
        if budget > 0 && after > budget {
            self.metrics.quarantined_budget.inc();
            return Some(SessionFailure::BudgetExceeded { used_bytes: after, budget_bytes: budget });
        }
        None
    }

    /// The session left its connection: count it finished and let it be
    /// resumed.
    fn close(&self, id: u64) {
        self.metrics.sessions_finished.inc();
        self.attached.lock().remove(&id);
    }

    /// Write a cleanly finished session's span tree, if a trace directory
    /// is configured and the client traced its batches.
    fn write_trace(&self, id: u64, spans: Vec<SpanEvent>) {
        let Some(dir) = &self.trace_dir else { return };
        if spans.is_empty() {
            return;
        }
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("session-{id}.json")),
            arbalest_obs::chrome_trace_json(&spans),
        );
    }
}

/// A live session's detector plus governor bookkeeping.
struct Live {
    detector: AnalysisSession,
    /// High-water mark of the session's accounted footprint, reported in
    /// `BudgetExceeded` (post-eviction live bytes would understate how far
    /// over budget the session actually went).
    peak_bytes: u64,
}

/// A session as its connection holds it: live, or terminated for a typed
/// reason. The live detector is boxed: it is a hundred times the size of
/// a failure.
enum State {
    Live(Box<Live>),
    Quarantined(SessionFailure),
}

/// One connection's open session.
pub(crate) struct Session {
    pub(crate) id: u64,
    state: State,
    /// WAL append handle (durable servers only).
    log: Option<SessionLog>,
    /// The last snapshot's writer, returning its `snapshot_write` span.
    writer: Option<JoinHandle<Option<SpanEvent>>>,
    /// Events fed so far, counting those recovered on resume.
    pub(crate) events: u64,
    /// The session's completed spans, kept only with a trace directory
    /// and written out at a clean finish.
    spans: Vec<SpanEvent>,
}

impl Session {
    /// Log, analyse and acknowledge one batch: `events`, decoded from
    /// `batch`, the bytes it arrived in, which the WAL logs as they are.
    /// The ack waits for both, so a crash can only lose unacked batches.
    pub(crate) fn feed(
        &mut self,
        a: &Analysis,
        events: &[TraceEvent],
        batch: &[u8],
        ctx: Option<SpanContext>,
    ) -> Frame {
        if let State::Quarantined(failure) = &self.state {
            // Batches of a quarantined session are refused, never analysed.
            a.metrics.events_dropped.add(events.len() as u64);
            return Frame::SessionFailed(failure.clone());
        }
        // A traced batch: re-record the client-minted context verbatim
        // (`span_at`) as the `client_submit` root of the server-side tree,
        // so every server span parents to the ids the client stamped.
        let root = ctx.filter(|c| c.is_traced());
        let submit = root.map(|c| a.registry.span_at(a.names.client_submit, c));
        let reply = self.log_and_analyse(a, events, batch, root);
        self.record(a, submit.and_then(Span::end));
        reply
    }

    fn log_and_analyse(
        &mut self,
        a: &Analysis,
        events: &[TraceEvent],
        batch: &[u8],
        root: Option<SpanContext>,
    ) -> Frame {
        if let Some(log) = &mut self.log {
            let span = root.map(|c| a.registry.span_child(a.names.wal_append, c));
            let appended = log.append_raw(batch);
            self.record(a, span.and_then(Span::end));
            if let Err(e) = appended {
                // Nothing of the batch was analysed or acked, and a failed
                // write poisons the log, so later batches are refused the
                // same way; the client resubmits from here after resuming.
                return Frame::error(format!("WAL append failed: {e}"));
            }
        }
        let accepted = events.len() as u64;
        a.metrics.events_received.add(accepted);
        self.events += accepted;

        let job = root.map(|c| a.registry.span_child(a.names.shard_job, c));
        let slot = a.gate.enter();
        let id = self.id;
        let mut fed = None;
        self.analyse(a, |live| {
            // Injected chaos meets the guard exactly like a real detector
            // bug would.
            if a.plan.decide(FaultSite::ShardPanic) != FaultOutcome::None {
                panic!("injected shard panic (session {id})");
            }
            let feed =
                job.as_ref().map(|s| a.registry.span_child(a.names.detector_feed, s.context()));
            live.detector.feed_batch(events);
            fed = feed.and_then(Span::end);
            a.govern_budget(live)
        });
        self.record(a, fed);
        if self.log.as_ref().is_some_and(SessionLog::snapshot_due) {
            self.snapshot(a, root);
        }
        drop(slot);
        self.record(a, job.and_then(Span::end));
        match &self.state {
            State::Live(_) => Frame::EventsAck { accepted: accepted as u32 },
            State::Quarantined(failure) => Frame::SessionFailed(failure.clone()),
        }
    }

    /// Persist the session to the store and compact its WAL. The
    /// detector's state is captured here, before the batch is acked; a
    /// writer thread then writes it durably (file and directory fsync)
    /// and only after that compacts, so the disk's flush latency stays off
    /// the ack path. The session joins the writer before its next
    /// snapshot, its finish and its detach, so neither the removal of a
    /// finished session nor the rebuild of a resumed one races it. A
    /// failed write, or a writer thread that cannot start, just leaves the
    /// WAL longer.
    fn snapshot(&mut self, a: &Analysis, root: Option<SpanContext>) {
        let (Some(store), Some(log)) = (&a.store, &mut self.log) else { return };
        log.mark_snapshot();
        let store = Arc::clone(store);
        self.join_writer(a);
        let span = root.map(|c| a.registry.span_child(a.names.snapshot_write, c));
        let mut snap = None;
        self.analyse(a, |live| {
            snap = Some(live.detector.to_snapshot());
            None
        });
        let Some(snap) = snap else { return };
        let id = self.id;
        let write = move || {
            if store.write_snapshot(id, &snap).is_ok() {
                let _ = store.compact(id, snap.events);
            }
            span.and_then(Span::end)
        };
        self.writer = std::thread::Builder::new().name("snapshot".into()).spawn(write).ok();
    }

    /// Wait for the last snapshot's writer and keep its span.
    fn join_writer(&mut self, a: &Analysis) {
        if let Some(writer) = self.writer.take() {
            let span = writer.join().ok().flatten();
            self.record(a, span);
        }
    }

    /// Run `f` on the live detector under the panic guard; a panic, or a
    /// failure `f` returns, quarantines the session.
    fn analyse(&mut self, a: &Analysis, f: impl FnOnce(&mut Live) -> Option<SessionFailure>) {
        let State::Live(live) = &mut self.state else { return };
        match a.guarded(|| f(live)) {
            Ok(None) => {}
            Ok(Some(failure)) | Err(failure) => self.state = State::Quarantined(failure),
        }
    }

    /// Keep a completed span for the session's trace file, while the
    /// buffer has room; without a trace directory nothing reads it.
    fn record(&mut self, a: &Analysis, ev: Option<SpanEvent>) {
        let Some(ev) = ev else { return };
        if a.trace_dir.is_none() {
            return;
        }
        if self.spans.len() < SESSION_SPAN_CAP {
            self.spans.push(ev);
        } else {
            a.metrics.spans_dropped.inc();
        }
    }

    /// End the session with its findings, or the typed reason it failed.
    /// A clean finish removes its durable record and writes its trace.
    pub(crate) fn finish(mut self, a: &Analysis) -> Frame {
        self.join_writer(a);
        let Session { id, state, spans, .. } = self;
        let result = match state {
            State::Quarantined(failure) => Err(failure),
            // Degraded findings are incomplete (May mode suppresses VSM
            // claims): answer the typed budget failure, never unsound
            // reports.
            State::Live(live) if live.detector.degraded() => Err(SessionFailure::BudgetExceeded {
                used_bytes: live.peak_bytes,
                budget_bytes: a.max_session_bytes,
            }),
            State::Live(live) => {
                let _slot = a.gate.enter();
                a.guarded(|| live.detector.finish())
            }
        };
        let reply = match result {
            Ok(reports) => {
                a.metrics.count_reports(&reports);
                if let Some(store) = &a.store {
                    let _ = store.remove_session(id);
                }
                a.write_trace(id, spans);
                Frame::Reports(reports)
            }
            Err(failure) => Frame::SessionFailed(failure),
        };
        a.close(id);
        reply
    }

    /// Drop a session abandoned without `Finish`. Its durable record stays
    /// on disk for `--resume`, with the acked WAL bytes synced even under
    /// a lazy fsync policy.
    pub(crate) fn abort(mut self, a: &Analysis) {
        self.join_writer(a);
        if let Some(mut log) = self.log {
            let _ = log.sync();
        }
        a.close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::addr::DeviceId;
    use arbalest_offload::fault::FaultConfig;
    use std::sync::Arc;

    fn analysis(cfg: ServerConfig) -> Analysis {
        Analysis::new(&cfg).expect("storeless analysis")
    }

    fn pool_alloc_event(i: u64) -> TraceEvent {
        TraceEvent::PoolAlloc { device: DeviceId(1), base: i << 12, len: 4096 }
    }

    /// Feed `events` as the server does: with the bytes they arrived in.
    fn feed(session: &mut Session, a: &Analysis, events: &[TraceEvent]) -> Frame {
        session.feed(a, events, &arbalest_offload::wire::encode_events(events), None)
    }

    #[test]
    fn shard_panic_quarantines_only_the_poisoned_session() {
        // Rate 1.0: the very first Events batch panics its analysis.
        let a = analysis(ServerConfig { faults: FaultConfig::new(7, 1.0), ..Default::default() });
        let innocent = a.open(None).expect("open");
        let mut victim = a.open(None).expect("open");
        let reply = feed(&mut victim, &a, &[pool_alloc_event(1)]);
        assert!(
            matches!(&reply, Frame::SessionFailed(SessionFailure::ShardPanic { message })
                if message.contains("injected")),
            "{reply:?}"
        );
        // Later frames answer the same typed failure.
        assert_eq!(feed(&mut victim, &a, &[pool_alloc_event(2)]), reply);
        assert_eq!(victim.finish(&a), reply);
        assert_eq!(innocent.finish(&a), Frame::Reports(Vec::new()));
        assert_eq!(a.metrics.sessions_finished.get(), 2);
    }

    /// A trace whose replay makes shadow pages resident, so the session
    /// has a real side-table footprint for the governor to measure.
    fn shadowy_trace() -> Vec<TraceEvent> {
        use arbalest_offload::prelude::*;
        use arbalest_offload::trace::TraceRecorder;
        let rec = Arc::new(TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default(), rec.clone());
        let a = rt.alloc_init::<i64>("a", &[1; 64]);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..64, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1);
            });
        });
        rec.take()
    }

    #[test]
    fn budget_breach_degrades_then_finish_is_typed() {
        // A 1-byte budget: the first analysed batch breaches it, evicts to
        // May mode, and the session finishes with BudgetExceeded.
        let a = analysis(ServerConfig { max_session_bytes: 1, ..Default::default() });
        let mut session = a.open(None).expect("open");
        feed(&mut session, &a, &shadowy_trace());
        let reply = session.finish(&a);
        assert!(
            matches!(reply, Frame::SessionFailed(SessionFailure::BudgetExceeded { budget_bytes: 1, .. })),
            "{reply:?}"
        );
    }

    #[test]
    fn session_buffer_is_bounded_and_drops_are_counted() {
        let a = analysis(ServerConfig {
            trace_dir: Some(std::env::temp_dir().join("arbalest-unwritten-traces")),
            ..Default::default()
        });
        let mut session = a.open(None).expect("open");
        for i in 0..(SESSION_SPAN_CAP as u64 + 10) {
            let ev = SpanEvent {
                name: "test",
                tid: 0,
                start_ns: i,
                dur_ns: 1,
                trace: u128::from(i) + 1,
                span: i + 1,
                parent: 0,
            };
            session.record(&a, Some(ev));
        }
        assert_eq!(session.spans.len(), SESSION_SPAN_CAP);
        assert_eq!(
            a.registry.snapshot().counter("arbalest_server_trace_spans_dropped_total", &[]),
            Some(10)
        );
        // Aborted, not finished: no trace file is written.
        session.abort(&a);
    }
}
