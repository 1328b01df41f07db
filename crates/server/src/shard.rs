//! Worker shards: bounded job queues feeding per-session detectors,
//! under watchdog supervision and per-session resource budgets.
//!
//! Each shard is one worker thread owning the detector state of every
//! session hashed onto it, so all events of a session are analysed by a
//! single thread in arrival order (the property the VSM needs), while
//! different sessions proceed in parallel across shards. Queues are
//! bounded: an `Events` batch that finds the queue full is *refused*
//! (the connection answers `Busy`, the client retries), so a slow shard
//! translates into client backpressure, never into unbounded server
//! memory. Control jobs (`Finish`, `Abort`, `Stop`) bypass the cap —
//! they are small, bounded by the session count, and must never be lost.
//!
//! Two failure domains are contained here rather than allowed to take
//! the process down:
//!
//! * **Panics.** Each worker runs under a supervisor that catches an
//!   escaped panic, quarantines the session that was being analysed
//!   (every later frame for it answers a typed
//!   [`SessionFailure::ShardPanic`]), and restarts the worker thread
//!   with its queue — and every *other* session's state — intact.
//! * **Memory.** After every batch the resource governor compares the
//!   session's footprint (shadow pages, present-table ranges, race
//!   history, plus its queued-event backlog) against the configured
//!   byte budget. A first breach degrades the session via
//!   [`evict_to_may`](AnalysisSession::evict_to_may) — memory is shed,
//!   the protocol keeps flowing; a breach that eviction cannot cure
//!   quarantines the session with a typed
//!   [`SessionFailure::BudgetExceeded`]. A degraded session that reaches
//!   `Finish` also answers `BudgetExceeded`: its findings are incomplete
//!   by construction and the server refuses to pass them off as sound.

use crate::stats::GlobalStats;
use crate::supervise::{panic_message, SessionFailure, SuperviseMetrics};
use crate::tracesink::TraceSink;
use arbalest_core::session::AnalysisSession;
use arbalest_core::ArbalestConfig;
use arbalest_obs::{Gauge, Histogram, Registry, SpanContext, SpanName};
use arbalest_offload::fault::{FaultConfig, FaultOutcome, FaultPlan, FaultSite};
use arbalest_offload::report::Report;
use arbalest_offload::trace::TraceEvent;
use arbalest_sync::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

pub(crate) enum Job {
    /// Analyse a batch. `ctx` is the client-minted span context of the
    /// submitting `Events` frame (when the client traced it); the worker
    /// records its analysis as `shard_job`/`detector_feed` child spans.
    Events { session: u64, events: Vec<TraceEvent>, ctx: Option<SpanContext>, queued: Instant },
    Finish { session: u64, reply: mpsc::Sender<FinishResult>, queued: Instant },
    /// Drop a session that disconnected without `Finish`.
    Abort { session: u64, queued: Instant },
    /// Persist the session's state to the store and compact its WAL.
    /// Enqueued by the connection when a snapshot trigger fires; FIFO
    /// ordering means every batch accepted before the trigger is analysed
    /// first, so the snapshot's event count is exact. `ctx` is the span
    /// context of the batch whose append tripped the trigger.
    Snapshot { session: u64, ctx: Option<SpanContext>, queued: Instant },
    Stop,
}

/// What a `Finish` job answers: the session's findings, or the typed
/// reason the server terminated it.
pub type FinishResult = Result<Vec<Report>, SessionFailure>;

/// Resource-governor and chaos knobs threaded from `ServerConfig` into
/// the shard pool.
#[derive(Debug, Clone)]
pub struct ShardLimits {
    /// Per-session byte budget over detector side tables plus queued-event
    /// backlog; `0` disables the governor. First breach triggers
    /// evict-to-May degradation, an incurable breach quarantines the
    /// session with [`SessionFailure::BudgetExceeded`].
    pub max_session_bytes: u64,
    /// Cap on a session's queued-but-unanalysed events; batches beyond it
    /// are refused with `Busy` (backpressure). `0` disables the cap.
    pub max_inflight_events: u64,
    /// Worker-side fault injection ([`FaultSite::ShardPanic`],
    /// [`FaultSite::BudgetPressure`]) for chaos soaks.
    pub faults: FaultConfig,
}

impl Default for ShardLimits {
    fn default() -> Self {
        ShardLimits { max_session_bytes: 0, max_inflight_events: 0, faults: FaultConfig::disabled() }
    }
}

/// Enqueue-to-drain latency histograms, one per job kind. Cloned into
/// every worker; the cells are shared.
#[derive(Clone)]
struct WaitHists {
    events: Histogram,
    finish: Histogram,
    abort: Histogram,
    snapshot: Histogram,
}

impl WaitHists {
    fn new(reg: &Registry) -> WaitHists {
        let h = |kind| reg.histogram("arbalest_server_job_wait_nanos", &[("kind", kind)]);
        WaitHists {
            events: h("events"),
            finish: h("finish"),
            abort: h("abort"),
            snapshot: h("snapshot"),
        }
    }
}

struct ShardQueue {
    jobs: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
}

impl ShardQueue {
    fn new() -> ShardQueue {
        ShardQueue { jobs: Mutex::new(VecDeque::new()), not_empty: Condvar::new() }
    }

    fn push(&self, job: Job) {
        self.jobs.lock().push_back(job);
        self.not_empty.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock();
        loop {
            match jobs.pop_front() {
                Some(job) => return job,
                None => self.not_empty.wait(&mut jobs),
            }
        }
    }

    fn depth(&self) -> u32 {
        self.jobs.lock().len() as u32
    }
}

/// One session's detector state plus governor bookkeeping.
struct SessionEntry {
    session: AnalysisSession,
    /// High-water mark of the session's accounted footprint, reported in
    /// `BudgetExceeded` (post-eviction live bytes would understate how far
    /// over budget the session actually went).
    peak_bytes: u64,
}

/// A session as the shard sees it: live, or terminated for a typed reason.
/// The live entry is boxed: quarantined slots outnumber live ones only
/// under chaos, but the size gap (detector state vs a small enum) would
/// otherwise make every map slot pay for the largest variant.
enum SessionSlot {
    Live(Box<SessionEntry>),
    Quarantined(SessionFailure),
}

/// Everything a shard's worker (and its supervisor) share. Lives in an
/// `Arc` *outside* the worker thread so sessions, backlog accounting, and
/// the queue all survive a worker restart.
struct ShardState {
    queue: ShardQueue,
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    /// Queued-but-unanalysed event counts, fed into the budget governor
    /// and the max-inflight check.
    backlog: Mutex<HashMap<u64, u64>>,
    /// The session the worker is analysing *right now* — the one the
    /// supervisor quarantines if the worker panics.
    current: Mutex<Option<u64>>,
}

/// The refusal a full shard queue answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Queue depth observed at refusal.
    pub depth: u32,
}

/// Immutable context cloned into each worker incarnation.
struct WorkerCtx {
    state: Arc<ShardState>,
    detector: ArbalestConfig,
    stats: Arc<GlobalStats>,
    registry: Registry,
    waits: WaitHists,
    limits: ShardLimits,
    plan: FaultPlan,
    sup: SuperviseMetrics,
    /// Durable store for `Snapshot` jobs; `None` when the server runs
    /// without `--data-dir`.
    store: Option<Arc<arbalest_store::Store>>,
    /// Where completed analysis spans land (per-session + recent ring).
    sink: Arc<TraceSink>,
    /// Pre-interned span names, so the per-batch hot path skips the
    /// registry's name-table lock.
    shard_job_name: SpanName,
    detector_feed_name: SpanName,
    snapshot_write_name: SpanName,
}

/// `N` analysis worker threads with session-hash job routing.
pub struct ShardPool {
    states: Vec<Arc<ShardState>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    queue_cap: usize,
    limits: ShardLimits,
    stats: Arc<GlobalStats>,
    next_session: AtomicU64,
    depth_gauges: Vec<Gauge>,
}

impl ShardPool {
    /// Spawn `shards` supervised workers, each with a queue bounded at
    /// `queue_cap` event batches. Finished sessions fold their report
    /// counts into `stats`; per-session detectors and the pool's own
    /// wait/depth/supervision metrics all record into `registry`.
    #[allow(clippy::too_many_arguments)] // one dependency per subsystem, built once by Server::start
    pub fn new(
        shards: usize,
        queue_cap: usize,
        detector: ArbalestConfig,
        stats: Arc<GlobalStats>,
        registry: &Registry,
        limits: ShardLimits,
        store: Option<Arc<arbalest_store::Store>>,
        sink: Arc<TraceSink>,
    ) -> ShardPool {
        let shards = shards.clamp(1, 64);
        let states: Vec<Arc<ShardState>> = (0..shards)
            .map(|_| {
                Arc::new(ShardState {
                    queue: ShardQueue::new(),
                    sessions: Mutex::new(HashMap::new()),
                    backlog: Mutex::new(HashMap::new()),
                    current: Mutex::new(None),
                })
            })
            .collect();
        let waits = WaitHists::new(registry);
        let sup = SuperviseMetrics::new(registry);
        let workers = states
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let ctx = WorkerCtx {
                    state: state.clone(),
                    detector: detector.clone(),
                    stats: stats.clone(),
                    registry: registry.clone(),
                    waits: waits.clone(),
                    limits: limits.clone(),
                    plan: FaultPlan::new(limits.faults),
                    sup: sup.clone(),
                    store: store.clone(),
                    sink: sink.clone(),
                    shard_job_name: registry.span_name("shard_job"),
                    detector_feed_name: registry.span_name("detector_feed"),
                    snapshot_write_name: registry.span_name("snapshot_write"),
                };
                std::thread::Builder::new()
                    .name(format!("arbalest-shard-{i}"))
                    .spawn(move || supervise_worker(&ctx))
                    .expect("spawn shard worker")
            })
            .collect();
        let depth_gauges = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                registry.gauge("arbalest_server_queue_depth", &[("shard", &shard)])
            })
            .collect();
        ShardPool {
            states,
            workers: Mutex::new(workers),
            queue_cap: queue_cap.max(1),
            limits,
            stats,
            next_session: AtomicU64::new(1),
            depth_gauges,
        }
    }

    /// Allocate a fresh session id.
    pub fn open_session(&self) -> u64 {
        self.stats.sessions_started.inc();
        self.next_session.fetch_add(1, Relaxed)
    }

    /// Install a session recovered from a data directory under a fixed
    /// id. Future ids are bumped past it so fresh sessions can never
    /// collide.
    pub fn adopt_session(&self, session: u64, state: AnalysisSession) {
        self.stats.sessions_started.inc();
        self.next_session.fetch_max(session + 1, Relaxed);
        self.state_of(session)
            .sessions
            .lock()
            .insert(session, SessionSlot::Live(Box::new(SessionEntry { session: state, peak_bytes: 0 })));
    }

    /// Synchronously drop any in-memory state for a session (used before
    /// re-adopting it from its durable state on resume).
    pub fn drop_session(&self, session: u64) {
        let state = self.state_of(session);
        state.sessions.lock().remove(&session);
        state.backlog.lock().remove(&session);
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    fn state_of(&self, session: u64) -> &ShardState {
        // Fibonacci multiplicative hash: consecutive session ids spread
        // uniformly over shards without clustering.
        let h = session.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.states[(h % self.states.len() as u64) as usize]
    }

    /// The typed reason `session` was terminated by the server, if it was.
    /// Connections check this before enqueuing more work so a quarantined
    /// session answers `SessionFailed` instead of silently eating events.
    pub fn session_failure(&self, session: u64) -> Option<SessionFailure> {
        match self.state_of(session).sessions.lock().get(&session) {
            Some(SessionSlot::Quarantined(failure)) => Some(failure.clone()),
            _ => None,
        }
    }

    /// Offer an event batch to the session's shard. Refused (nothing
    /// enqueued, nothing analysed) when the queue is at capacity or the
    /// session's inflight-event backlog is at its limit.
    pub fn submit_events(
        &self,
        session: u64,
        events: Vec<TraceEvent>,
        ctx: Option<SpanContext>,
    ) -> Result<usize, QueueFull> {
        let state = self.state_of(session);
        let accepted = events.len();
        {
            let mut backlog = state.backlog.lock();
            let inflight = backlog.get(&session).copied().unwrap_or(0);
            if self.limits.max_inflight_events > 0
                && inflight.saturating_add(accepted as u64) > self.limits.max_inflight_events
            {
                drop(backlog);
                self.stats.busy_rejections.inc();
                return Err(QueueFull { depth: state.queue.depth() });
            }
            let mut jobs = state.queue.jobs.lock();
            if jobs.len() >= self.queue_cap {
                drop(jobs);
                drop(backlog);
                self.stats.busy_rejections.inc();
                return Err(QueueFull { depth: state.queue.depth() });
            }
            jobs.push_back(Job::Events { session, events, ctx, queued: Instant::now() });
            *backlog.entry(session).or_insert(0) += accepted as u64;
        }
        state.queue.not_empty.notify_one();
        self.stats.events_received.add(accepted as u64);
        Ok(accepted)
    }

    /// Close a session: all batches already queued for it are analysed
    /// first (FIFO per shard), then its findings — or the typed reason it
    /// failed — come back on the channel.
    pub fn submit_finish(&self, session: u64) -> mpsc::Receiver<FinishResult> {
        let (tx, rx) = mpsc::channel();
        self.state_of(session).queue.push(Job::Finish { session, reply: tx, queued: Instant::now() });
        rx
    }

    /// Discard a session whose connection went away.
    pub fn submit_abort(&self, session: u64) {
        self.state_of(session).queue.push(Job::Abort { session, queued: Instant::now() });
    }

    /// Ask the session's worker to snapshot it to the store. Control job:
    /// bypasses the queue cap (one per trigger firing, bounded by the
    /// connection that enqueues it).
    pub fn submit_snapshot(&self, session: u64, ctx: Option<SpanContext>) {
        self.state_of(session).queue.push(Job::Snapshot { session, ctx, queued: Instant::now() });
    }

    /// Current depth of every shard queue; also refreshes the per-shard
    /// `arbalest_server_queue_depth` gauges, so any snapshot taken right
    /// after a `Stats`/`Metrics` request sees the same depths it answered.
    pub fn queue_depths(&self) -> Vec<u32> {
        self.states
            .iter()
            .zip(&self.depth_gauges)
            .map(|(s, g)| {
                let d = s.queue.depth();
                g.set(u64::from(d));
                d
            })
            .collect()
    }

    /// Drain every queue and join the workers. Jobs already enqueued are
    /// fully processed before the `Stop` sentinel (FIFO) — this is the
    /// graceful-drain half of shutdown. Idempotent: a second call finds
    /// no workers left to join.
    pub fn shutdown(&self) {
        let workers = std::mem::take(&mut *self.workers.lock());
        if workers.is_empty() {
            return;
        }
        for s in &self.states {
            s.queue.push(Job::Stop);
        }
        for w in workers {
            let _ = w.join();
        }
    }
}

/// The shard watchdog: run [`worker_loop`] until it returns cleanly
/// (`Stop`), catching any panic that escapes a job. The panicking
/// session is quarantined with the rendered panic message; the worker is
/// then re-entered on the same [`ShardState`], so the queue and every
/// other session's detector state carry over untouched.
fn supervise_worker(ctx: &WorkerCtx) {
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(ctx))) {
            Ok(()) => break,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if let Some(session) = ctx.state.current.lock().take() {
                    ctx.state
                        .sessions
                        .lock()
                        .insert(session, SessionSlot::Quarantined(SessionFailure::ShardPanic { message }));
                    ctx.sup.quarantined_panic.inc();
                }
                ctx.sup.shard_restarts.inc();
            }
        }
    }
}

fn worker_loop(ctx: &WorkerCtx) {
    loop {
        match ctx.state.queue.pop() {
            Job::Events { session, events, ctx: trace_ctx, queued } => {
                ctx.waits.events.record_duration(queued.elapsed());
                *ctx.state.current.lock() = Some(session);
                // The analysis leg of a traced batch: a `shard_job` span
                // parented to the client's submit span, teed into the sink
                // (the registry ring alone could overwrite it before the
                // session finishes).
                let shard_span = trace_ctx
                    .filter(|c| c.is_traced())
                    .map(|c| ctx.registry.span_child(ctx.shard_job_name, c));
                let fed = events.len() as u64;
                let slot = ctx.state.sessions.lock().remove(&session);
                match slot {
                    Some(SessionSlot::Quarantined(failure)) => {
                        // Batches queued before the quarantine landed:
                        // dropped, counted, never analysed.
                        ctx.sup.events_dropped.add(fed);
                        ctx.state
                            .sessions
                            .lock()
                            .insert(session, SessionSlot::Quarantined(failure));
                    }
                    live => {
                        let mut entry = match live {
                            Some(SessionSlot::Live(entry)) => entry,
                            _ => Box::new(SessionEntry {
                                session: AnalysisSession::with_registry(
                                    ctx.detector.clone(),
                                    ctx.registry.clone(),
                                ),
                                peak_bytes: 0,
                            }),
                        };
                        // Injected worker chaos: the panic escapes to the
                        // supervisor exactly like a real detector bug would
                        // (the entry is out of the map, so its state dies
                        // with the unwound stack).
                        if ctx.plan.decide(FaultSite::ShardPanic) != FaultOutcome::None {
                            panic!("injected shard panic (session {session})");
                        }
                        let feed_span = shard_span
                            .as_ref()
                            .map(|s| ctx.registry.span_child(ctx.detector_feed_name, s.context()));
                        entry.session.feed_batch(&events);
                        if let Some(ev) = feed_span.and_then(|s| s.end()) {
                            ctx.sink.record(session, ev);
                        }
                        let verdict = govern_budget(ctx, session, &mut entry, fed);
                        let slot = match verdict {
                            None => SessionSlot::Live(entry),
                            Some(failure) => SessionSlot::Quarantined(failure),
                        };
                        ctx.state.sessions.lock().insert(session, slot);
                    }
                }
                if let Some(b) = ctx.state.backlog.lock().get_mut(&session) {
                    *b = b.saturating_sub(fed);
                }
                if let Some(ev) = shard_span.and_then(|s| s.end()) {
                    ctx.sink.record(session, ev);
                }
                *ctx.state.current.lock() = None;
            }
            Job::Finish { session, reply, queued } => {
                ctx.waits.finish.record_duration(queued.elapsed());
                *ctx.state.current.lock() = Some(session);
                let slot = ctx.state.sessions.lock().remove(&session);
                ctx.state.backlog.lock().remove(&session);
                let result = match slot {
                    Some(SessionSlot::Live(entry)) => {
                        if entry.session.degraded() {
                            // Degraded findings are incomplete (May mode
                            // suppresses VSM claims): answer the typed
                            // budget failure, never unsound reports.
                            Err(SessionFailure::BudgetExceeded {
                                used_bytes: entry.peak_bytes,
                                budget_bytes: ctx.limits.max_session_bytes,
                            })
                        } else {
                            let reports = entry.session.finish();
                            ctx.stats.count_reports(&reports);
                            Ok(reports)
                        }
                    }
                    Some(SessionSlot::Quarantined(failure)) => Err(failure),
                    None => Ok(Vec::new()),
                };
                ctx.stats.sessions_finished.inc();
                // A receiver that hung up already got its answer elsewhere
                // (connection died); the session state is freed either way.
                let _ = reply.send(result);
                *ctx.state.current.lock() = None;
            }
            Job::Abort { session, queued } => {
                ctx.waits.abort.record_duration(queued.elapsed());
                *ctx.state.current.lock() = Some(session);
                ctx.state.sessions.lock().remove(&session);
                ctx.state.backlog.lock().remove(&session);
                ctx.stats.sessions_finished.inc();
                *ctx.state.current.lock() = None;
            }
            Job::Snapshot { session, ctx: trace_ctx, queued } => {
                ctx.waits.snapshot.record_duration(queued.elapsed());
                *ctx.state.current.lock() = Some(session);
                let snap_span = trace_ctx
                    .filter(|c| c.is_traced())
                    .map(|c| ctx.registry.span_child(ctx.snapshot_write_name, c));
                // Out of the map while serializing, like Events: a panic
                // mid-snapshot quarantines this session only.
                let slot = ctx.state.sessions.lock().remove(&session);
                if let Some(SessionSlot::Live(entry)) = slot {
                    if let Some(store) = &ctx.store {
                        let snap = entry.session.to_snapshot();
                        // Snapshot first, compact only once it is durable;
                        // a failed write just leaves the WAL longer.
                        if store.write_snapshot(session, &snap).is_ok() {
                            let _ = store.compact(session, snap.events);
                        }
                    }
                    ctx.state.sessions.lock().insert(session, SessionSlot::Live(entry));
                } else if let Some(slot) = slot {
                    ctx.state.sessions.lock().insert(session, slot);
                }
                if let Some(ev) = snap_span.and_then(|s| s.end()) {
                    ctx.sink.record(session, ev);
                }
                *ctx.state.current.lock() = None;
            }
            Job::Stop => break,
        }
    }
}

/// The resource governor, run after every analysed batch. Returns the
/// failure to quarantine with, or `None` to keep the session live
/// (possibly newly degraded).
fn govern_budget(
    ctx: &WorkerCtx,
    session: u64,
    entry: &mut SessionEntry,
    just_fed: u64,
) -> Option<SessionFailure> {
    let budget = ctx.limits.max_session_bytes;
    let injected = ctx.plan.decide(FaultSite::BudgetPressure) != FaultOutcome::None;
    if budget == 0 && !injected {
        return None;
    }
    // Account detector side tables plus the session's queued-event
    // backlog (the batch just analysed is still in the count we read —
    // its decrement happens after the governor — so subtract it).
    let backlog_events = ctx
        .state
        .backlog
        .lock()
        .get(&session)
        .copied()
        .unwrap_or(0)
        .saturating_sub(just_fed);
    let backlog_bytes = backlog_events * std::mem::size_of::<TraceEvent>() as u64;
    let used = entry.session.side_table_bytes() + backlog_bytes;
    entry.peak_bytes = entry.peak_bytes.max(used);
    let over = (budget > 0 && used > budget) || injected;
    if !over {
        return None;
    }
    if entry.session.degraded() {
        // Eviction already ran and the session is over budget again (or
        // chaos keeps the pressure on): degradation has failed to cure it.
        ctx.sup.quarantined_budget.inc();
        return Some(SessionFailure::BudgetExceeded { used_bytes: used, budget_bytes: budget });
    }
    // First breach: shed side-table memory and keep serving in May mode.
    entry.session.evict_to_may();
    ctx.sup.budget_evictions.inc();
    let after = entry.session.side_table_bytes() + backlog_bytes;
    if budget > 0 && after > budget {
        ctx.sup.quarantined_budget.inc();
        return Some(SessionFailure::BudgetExceeded { used_bytes: after, budget_bytes: budget });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::addr::DeviceId;

    fn pool(shards: usize, cap: usize) -> (ShardPool, Arc<GlobalStats>) {
        pool_with(shards, cap, ShardLimits::default())
    }

    fn pool_with(shards: usize, cap: usize, limits: ShardLimits) -> (ShardPool, Arc<GlobalStats>) {
        let reg = Registry::new();
        let stats = Arc::new(GlobalStats::new(&reg));
        let sink = Arc::new(TraceSink::new(&reg));
        (
            ShardPool::new(
                shards,
                cap,
                ArbalestConfig::default(),
                stats.clone(),
                &reg,
                limits,
                None,
                sink,
            ),
            stats,
        )
    }

    fn pool_alloc_event(i: u64) -> TraceEvent {
        TraceEvent::PoolAlloc { device: DeviceId(1), base: i << 12, len: 4096 }
    }

    #[test]
    fn full_queue_refuses_instead_of_growing() {
        let (pool, stats) = pool(1, 2);
        let session = pool.open_session();
        // Retire the only worker so nothing consumes what we enqueue,
        // making the refusal count exact.
        pool.states[0].queue.push(Job::Stop);
        while pool.states[0].queue.depth() != 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut refused = 0;
        for i in 0..10u64 {
            if pool.submit_events(session, vec![pool_alloc_event(i)], None).is_err() {
                refused += 1;
            }
        }
        // Capacity 2: exactly the overflow is refused with Busy.
        assert_eq!(refused, 8);
        assert_eq!(stats.busy_rejections.get(), 8);
        assert_eq!(stats.events_received.get(), 2);
        pool.shutdown();
    }

    #[test]
    fn finish_drains_queued_batches_first() {
        let (pool, stats) = pool(2, 1024);
        let session = pool.open_session();
        for i in 0..100u64 {
            pool.submit_events(session, vec![pool_alloc_event(i)], None).unwrap();
        }
        let reports = pool.submit_finish(session).recv().unwrap().unwrap();
        assert!(reports.is_empty());
        assert_eq!(stats.events_received.get(), 100);
        assert_eq!(stats.sessions_finished.get(), 1);
        pool.shutdown();
    }

    #[test]
    fn sessions_spread_and_shutdown_drains() {
        let (pool, stats) = pool(4, 64);
        for _ in 0..32 {
            let s = pool.open_session();
            pool.submit_events(s, vec![pool_alloc_event(s)], None).unwrap();
            pool.submit_abort(s);
        }
        pool.shutdown(); // must not hang; all queues drain
        assert_eq!(stats.sessions_finished.get(), 32);
    }

    #[test]
    fn inflight_cap_refuses_with_busy() {
        let (pool, stats) =
            pool_with(1, 1024, ShardLimits { max_inflight_events: 3, ..Default::default() });
        let session = pool.open_session();
        // Retire the worker so the backlog never drains.
        pool.states[0].queue.push(Job::Stop);
        while pool.states[0].queue.depth() != 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(pool.submit_events(session, vec![pool_alloc_event(0), pool_alloc_event(1)], None).is_ok());
        assert!(pool.submit_events(session, vec![pool_alloc_event(2)], None).is_ok());
        // Backlog is now 3 == cap: the next batch is refused.
        let err = pool.submit_events(session, vec![pool_alloc_event(3)], None).unwrap_err();
        assert!(err.depth >= 2);
        assert_eq!(stats.busy_rejections.get(), 1);
        pool.shutdown();
    }

    #[test]
    fn shard_panic_quarantines_only_the_poisoned_session() {
        // Rate 1.0: the very first Events batch panics the worker.
        let (pool, stats) = pool_with(
            1,
            1024,
            ShardLimits { faults: FaultConfig::new(7, 1.0), ..Default::default() },
        );
        let victim = pool.open_session();
        pool.submit_events(victim, vec![pool_alloc_event(1)], None).unwrap();
        // The restarted worker answers Finish with the typed failure.
        let failure = pool.submit_finish(victim).recv().unwrap().unwrap_err();
        assert!(
            matches!(&failure, SessionFailure::ShardPanic { message } if message.contains("injected")),
            "{failure:?}"
        );
        assert_eq!(pool.session_failure(victim), None, "finish clears the quarantine slot");
        assert_eq!(stats.sessions_finished.get(), 1);
        pool.shutdown();
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
        let (pool, _stats) =
            pool_with(1, 1024, ShardLimits { max_session_bytes: 1, ..Default::default() });
        let session = pool.open_session();
        pool.submit_events(session, shadowy_trace(), None).unwrap();
        let failure = pool.submit_finish(session).recv().unwrap().unwrap_err();
        assert!(
            matches!(failure, SessionFailure::BudgetExceeded { budget_bytes: 1, .. }),
            "{failure:?}"
        );
        pool.shutdown();
    }
}
