//! The `arbalest-serve` service: listeners, connection handling, and
//! lifecycle.
//!
//! One thread accepts connections (TCP or Unix-domain); each connection
//! gets a handler thread that speaks the frame protocol and routes work
//! into the [`ShardPool`]. Shutdown is graceful by construction: the
//! `Shutdown` frame (or [`ServerHandle::stop`]) stops the accept loop,
//! wakes every handler out of its next read timeout, and then drains the
//! shard queues to completion before the workers exit.

use crate::proto::{Frame, ProtoError, WIRE_VERSION};
use crate::shard::ShardPool;
use crate::stats::GlobalStats;
use crate::tracesink::TraceSink;
use arbalest_core::ArbalestConfig;
use arbalest_obs::{Counter, Registry};
use arbalest_store::{SessionLog, Store};
use arbalest_sync::{Condvar, Mutex};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address like `127.0.0.1:7979`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Classify an address string: `unix:<path>`, or anything containing a
    /// `/`, is a Unix socket path; everything else is a TCP address.
    pub fn parse(s: &str) -> ListenAddr {
        if let Some(path) = s.strip_prefix("unix:") {
            ListenAddr::Unix(PathBuf::from(path))
        } else if s.contains('/') {
            ListenAddr::Unix(PathBuf::from(s))
        } else {
            ListenAddr::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(a) => write!(f, "{a}"),
            ListenAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of analysis worker shards (clamped to 1..=64).
    pub shards: usize,
    /// Bound on each shard's queued event batches; beyond it, clients get
    /// `Busy`.
    pub queue_cap: usize,
    /// Detector configuration used for every session.
    pub detector: ArbalestConfig,
    /// Metrics registry shared by the wire layer, shard pool, and every
    /// session detector. Enabled by default; substitute
    /// [`Registry::disabled`] to run without instrumentation.
    pub metrics: Registry,
    /// How long shutdown waits for in-flight connections to finish before
    /// abandoning them (the shard queues still drain afterwards). When the
    /// deadline fires with handlers still active, the
    /// `arbalest_server_forced_aborts_total` counter records it.
    pub drain_deadline: Duration,
    /// A connection that sends no frame for this long is reaped with a
    /// typed `SessionFailed(IdleTimeout)`; its session is aborted.
    pub idle_timeout: Duration,
    /// Once the first byte of a frame has arrived, the rest must follow
    /// within this deadline (stalled-sender defence); violators are reaped
    /// with `SessionFailed(DeadlineExceeded)`.
    pub request_deadline: Duration,
    /// Per-instance frame-size ceiling (clamped to the protocol's
    /// [`MAX_FRAME`](crate::proto::MAX_FRAME)); larger announcements are
    /// refused before any allocation.
    pub max_frame: u32,
    /// Cap on a session's queued-but-unanalysed events; batches beyond it
    /// answer `Busy`. `0` disables the cap.
    pub max_inflight_events: u64,
    /// Per-session byte budget (detector side tables + event backlog).
    /// First breach degrades the session via evict-to-May; an incurable
    /// breach terminates it with `SessionFailed(BudgetExceeded)`. `0`
    /// disables the governor.
    pub max_session_bytes: u64,
    /// Worker-side fault injection (shard panics, synthetic budget
    /// pressure) for chaos soaks. Disabled by default.
    pub faults: arbalest_offload::fault::FaultConfig,
    /// Durable-session data directory. `Some` turns on write-ahead
    /// logging of every accepted batch, snapshot/compaction per the
    /// `store` triggers, and crash recovery of unfinished sessions at
    /// startup. `None` (default) keeps the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// Durability tuning (segment size, fsync policy, snapshot triggers,
    /// storage fault injection); only read when `data_dir` is set.
    pub store: arbalest_store::StoreConfig,
    /// Per-session trace output directory. `Some` makes the server write
    /// `session-<id>.json` (Chrome trace-event / Perfetto format) for
    /// every cleanly finished session whose client stamped its batches
    /// with span contexts. `None` (default) still collects spans for the
    /// `TraceSnapshot` frame but writes no files.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_cap: 128,
            detector: ArbalestConfig::default(),
            metrics: Registry::new(),
            drain_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(120),
            request_deadline: Duration::from_secs(30),
            max_frame: crate::proto::MAX_FRAME,
            max_inflight_events: 0,
            max_session_bytes: 0,
            faults: arbalest_offload::fault::FaultConfig::disabled(),
            data_dir: None,
            store: arbalest_store::StoreConfig::default(),
            trace_dir: None,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Either accepted transport, unified for the handler.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(d)),
            Stream::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

struct Shared {
    stop: AtomicBool,
    stop_signal: (Mutex<bool>, Condvar),
    active_connections: AtomicUsize,
    stats: Arc<GlobalStats>,
    registry: Registry,
    wire_metrics: WireMetrics,
    /// Durable-session store; `None` when `data_dir` is unset.
    store: Option<Arc<Store>>,
    /// Detector configuration, needed to recover sessions that have no
    /// snapshot yet.
    detector: ArbalestConfig,
    /// Sessions currently bound to a live connection. Resuming one of
    /// these is refused — two writers on one WAL would interleave.
    attached: Mutex<HashSet<u64>>,
    /// Where completed trace spans are collected (per session + recent).
    sink: Arc<TraceSink>,
    /// Per-session trace file output directory, when configured.
    trace_dir: Option<PathBuf>,
    /// Connection-hardening knobs, copied out of the `ServerConfig`.
    idle_timeout: Duration,
    request_deadline: Duration,
    max_frame: u32,
    /// Accept-loop failures (`arbalest_server_accept_errors_total`).
    accept_errors: Counter,
    /// Shutdowns whose drain deadline fired with work still in flight
    /// (`arbalest_server_forced_aborts_total`).
    forced_aborts: Counter,
    /// Connections reaped by the idle/deadline watchdog, by reason
    /// (`arbalest_server_connections_reaped_total{reason}`).
    reaped_idle: Counter,
    reaped_deadline: Counter,
}

/// Wire-layer counters shared by every connection handler.
struct WireMetrics {
    /// Decoded client frames, labelled by frame type.
    frames: [(&'static str, Counter); 7],
    /// Bytes read off client connections.
    rx_bytes: Counter,
}

impl WireMetrics {
    fn new(reg: &Registry) -> WireMetrics {
        let c = |ty| reg.counter("arbalest_server_frames_total", &[("type", ty)]);
        WireMetrics {
            frames: [
                "hello",
                "events",
                "finish",
                "stats",
                "shutdown",
                "metrics",
                "trace_snapshot",
            ]
            .map(|ty| (ty, c(ty))),
            rx_bytes: reg.counter("arbalest_server_rx_bytes_total", &[]),
        }
    }

    fn count_frame(&self, frame: &Frame) {
        let label = frame.label();
        if let Some((_, counter)) = self.frames.iter().find(|(ty, _)| *ty == label) {
            counter.inc();
        }
    }
}

/// [`Read`] adapter that feeds the received byte count into the global
/// counter and a per-read local cell (the watchdog uses the local count
/// to tell "idle between frames" from "stalled mid-frame").
struct CountingReader<'a, R> {
    inner: &'a mut R,
    rx_bytes: &'a Counter,
    local: &'a std::sync::atomic::AtomicU64,
}

impl<R: Read> Read for CountingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.rx_bytes.add(n as u64);
        self.local.fetch_add(n as u64, SeqCst);
        Ok(n)
    }
}

impl Shared {
    fn request_stop(&self) {
        self.stop.store(true, SeqCst);
        let (lock, cv) = &self.stop_signal;
        *lock.lock() = true;
        cv.notify_all();
    }

    fn stopping(&self) -> bool {
        self.stop.load(SeqCst)
    }
}

/// A running server. [`Server::stop`] (or drop) performs the graceful
/// drain: stop accepting, let handlers finish, drain shard queues, join.
pub struct Server {
    shared: Arc<Shared>,
    pool: Arc<ShardPool>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: ListenAddr,
    unix_path: Option<PathBuf>,
    drain_deadline: Duration,
}

impl Server {
    /// Bind `addr` and start accepting. For `Tcp("host:0")` the actual
    /// bound port is reported by [`Server::local_addr`].
    pub fn start(addr: &ListenAddr, cfg: ServerConfig) -> std::io::Result<Server> {
        let (listener, local_addr, unix_path) = match addr {
            ListenAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let local = ListenAddr::Tcp(l.local_addr()?.to_string());
                l.set_nonblocking(true)?;
                (Listener::Tcp(l), local, None)
            }
            ListenAddr::Unix(path) => {
                // A previous instance's socket file would make bind fail;
                // only ever remove something that *is* a socket.
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    use std::os::unix::fs::FileTypeExt;
                    if meta.file_type().is_socket() {
                        let _ = std::fs::remove_file(path);
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), ListenAddr::Unix(path.clone()), Some(path.clone()))
            }
        };

        let registry = cfg.metrics.clone();
        let stats = Arc::new(GlobalStats::new(&registry));
        let store = match &cfg.data_dir {
            Some(dir) => Some(Arc::new(
                Store::open(dir, cfg.store.clone(), &registry)
                    .map_err(|e| std::io::Error::other(format!("open {}: {e}", dir.display())))?,
            )),
            None => None,
        };
        let reaped = |reason| {
            registry.counter("arbalest_server_connections_reaped_total", &[("reason", reason)])
        };
        let sink = Arc::new(TraceSink::new(&registry));
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            stop_signal: (Mutex::new(false), Condvar::new()),
            active_connections: AtomicUsize::new(0),
            stats: stats.clone(),
            wire_metrics: WireMetrics::new(&registry),
            registry: registry.clone(),
            store: store.clone(),
            detector: cfg.detector.clone(),
            attached: Mutex::new(HashSet::new()),
            sink: sink.clone(),
            trace_dir: cfg.trace_dir.clone(),
            idle_timeout: cfg.idle_timeout,
            request_deadline: cfg.request_deadline,
            max_frame: cfg.max_frame,
            accept_errors: registry.counter("arbalest_server_accept_errors_total", &[]),
            forced_aborts: registry.counter("arbalest_server_forced_aborts_total", &[]),
            reaped_idle: reaped("idle"),
            reaped_deadline: reaped("deadline"),
        });
        let pool = Arc::new(ShardPool::new(
            cfg.shards,
            cfg.queue_cap,
            cfg.detector.clone(),
            stats,
            &registry,
            crate::shard::ShardLimits {
                max_session_bytes: cfg.max_session_bytes,
                max_inflight_events: cfg.max_inflight_events,
                faults: cfg.faults,
            },
            store.clone(),
            sink.clone(),
        ));

        // Crash recovery: every session directory is an unfinished session.
        // Rebuild each from snapshot + WAL tail and adopt it into the pool
        // so a resuming client (`Hello { resume }`) finds it live. A
        // session that fails to recover is left on disk for inspection and
        // counted; it never becomes wrong in-memory state. The whole pass
        // is one `server_recovery` trace with an `adopt_session` child per
        // recovered session, so a startup stall is attributable.
        if let Some(store) = &store {
            let recovery_span = registry.span(registry.span_name("server_recovery"));
            let recovery_ctx = recovery_span.context();
            let recovered = store
                .recover_all(&cfg.detector, &registry)
                .map_err(|e| std::io::Error::other(format!("recover sessions: {e}")))?;
            for (id, result) in recovered {
                match result {
                    Ok(rec) => {
                        let adopt =
                            registry.span_child(registry.span_name("adopt_session"), recovery_ctx);
                        pool.adopt_session(id, rec.session);
                        if let Some(ev) = adopt.end() {
                            sink.record(id, ev);
                        }
                    }
                    Err(e) => registry
                        .counter(
                            "arbalest_store_recovery_failures_total",
                            &[("error", e.label())],
                        )
                        .inc(),
                }
            }
            if let Some(ev) = recovery_span.end() {
                sink.record_global(ev);
            }
        }

        let accept_shared = shared.clone();
        let accept_pool = pool.clone();
        let accept_thread = std::thread::Builder::new()
            .name("arbalest-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared, &accept_pool))?;

        Ok(Server {
            shared,
            pool,
            accept_thread: Some(accept_thread),
            local_addr,
            unix_path,
            drain_deadline: cfg.drain_deadline,
        })
    }

    /// The bound address (with the real port for `:0` binds).
    pub fn local_addr(&self) -> &ListenAddr {
        &self.local_addr
    }

    /// Block until some connection sends a `Shutdown` frame.
    pub fn wait_for_shutdown(&self) {
        let (lock, cv) = &self.shared.stop_signal;
        let mut stopped = lock.lock();
        while !*stopped {
            cv.wait(&mut stopped);
        }
    }

    /// Stop accepting, wake every handler, drain the shard queues, and
    /// join all threads.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.request_stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Handlers notice the stop flag at their next read timeout
        // (≤100 ms); wait for them so no one touches the pool afterwards.
        let deadline = std::time::Instant::now() + self.drain_deadline;
        while self.shared.active_connections.load(SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        if self.shared.active_connections.load(SeqCst) > 0 {
            // The drain deadline fired with handlers (and possibly their
            // queued jobs) still in flight: record the forced abort so
            // operators can tell "clean drain" from "gave up waiting".
            self.shared.forced_aborts.inc();
        }
        self.pool.shutdown();
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>, pool: &Arc<ShardPool>) {
    const POLL: Duration = Duration::from_millis(20);
    const MAX_BACKOFF: Duration = Duration::from_secs(1);
    // Real accept errors (fd exhaustion, aborted handshakes in a storm)
    // back off exponentially instead of hot-looping at the poll interval;
    // any successful accept resets the backoff.
    let mut backoff = POLL;
    loop {
        if shared.stopping() {
            break;
        }
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true); // replies are single writes
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                backoff = POLL;
                let conn_shared = shared.clone();
                let conn_pool = pool.clone();
                shared.active_connections.fetch_add(1, SeqCst);
                let spawned = std::thread::Builder::new()
                    .name("arbalest-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared, &conn_pool);
                        conn_shared.active_connections.fetch_sub(1, SeqCst);
                    });
                if spawned.is_err() {
                    shared.active_connections.fetch_sub(1, SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => {
                shared.accept_errors.inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// Why the connection watchdog gave up on a read.
enum ReapReason {
    Idle,
    Deadline,
}

/// Rebuild a resumed session's state on a durable server. Disk is the
/// authority: drop any in-memory state and re-derive it from snapshot +
/// WAL so the append point and the analyzer agree exactly.
fn resume_session(
    store: &Store,
    shared: &Shared,
    pool: &ShardPool,
    id: u64,
) -> Result<(u64, SessionLog), String> {
    if !store.session_dir(id).exists() {
        return Err(format!("unknown session {id}"));
    }
    pool.drop_session(id);
    let rec = store
        .recover_session(id, &shared.detector, &shared.registry)
        .map_err(|e| format!("recover session {id}: {e}"))?;
    let events = rec.events;
    pool.adopt_session(id, rec.session);
    let log = store
        .open_log(id, events)
        .map_err(|e| format!("open WAL for session {id}: {e}"))?;
    Ok((events, log))
}

fn handle_connection(mut stream: Stream, shared: &Arc<Shared>, pool: &Arc<ShardPool>) {
    let _ = stream.set_read_timeout(Duration::from_millis(100));
    let mut session: Option<u64> = None;
    let mut session_events: u64 = 0;
    // WAL append handle for the connection's session (durable mode only).
    let mut log: Option<SessionLog> = None;

    loop {
        // The watchdog rides the 100 ms read-timeout polls: while no byte
        // of the next frame has arrived the idle clock runs; from the
        // first byte on, the request deadline runs (a sender stalling
        // mid-frame cannot pin the handler forever).
        let reaped = std::cell::Cell::new(None::<ReapReason>);
        let frame = {
            let stop_shared = shared.clone();
            let local = std::sync::atomic::AtomicU64::new(0);
            let started = std::time::Instant::now();
            let mut first_byte_at: Option<std::time::Instant> = None;
            let mut counted = CountingReader {
                inner: &mut stream,
                rx_bytes: &shared.wire_metrics.rx_bytes,
                local: &local,
            };
            let reaped = &reaped;
            let local = &local;
            let mut keep_waiting = move || {
                if stop_shared.stopping() {
                    return false;
                }
                let now = std::time::Instant::now();
                if local.load(SeqCst) == 0 {
                    if now.duration_since(started) > stop_shared.idle_timeout {
                        reaped.set(Some(ReapReason::Idle));
                        return false;
                    }
                } else {
                    let first = *first_byte_at.get_or_insert(now);
                    if now.duration_since(first) > stop_shared.request_deadline {
                        reaped.set(Some(ReapReason::Deadline));
                        return false;
                    }
                }
                true
            };
            Frame::read_from_limited(&mut counted, &mut keep_waiting, shared.max_frame)
        };
        let frame = match frame {
            Ok(f) => f,
            Err(ProtoError::ShuttingDown) => match reaped.take() {
                // A reaped connection gets the typed reason (best effort —
                // it may be gone) before the close; its session is aborted
                // below like any disconnect.
                Some(ReapReason::Idle) => {
                    shared.reaped_idle.inc();
                    let failure = crate::supervise::SessionFailure::IdleTimeout {
                        limit_ms: shared.idle_timeout.as_millis() as u64,
                    };
                    let _ = Frame::SessionFailed(failure).write_to(&mut stream);
                    break;
                }
                Some(ReapReason::Deadline) => {
                    shared.reaped_deadline.inc();
                    let failure = crate::supervise::SessionFailure::DeadlineExceeded {
                        limit_ms: shared.request_deadline.as_millis() as u64,
                    };
                    let _ = Frame::SessionFailed(failure).write_to(&mut stream);
                    break;
                }
                None => break, // server shutdown
            },
            Err(ProtoError::Io(_)) => break, // peer went away
            Err(e) => {
                // Malformed input: count it (decode errors are rare, so
                // the lazy registry lookup is fine), answer with a typed
                // error, then close. Mid-frame truncation lands here too
                // (WireError::Truncated); the reply write fails silently
                // because the peer is already gone.
                if let ProtoError::Wire(we) = &e {
                    shared
                        .registry
                        .counter("arbalest_server_decode_errors_total", &[("error", we.label())])
                        .inc();
                }
                let _ = Frame::Error { message: e.to_string() }.write_to(&mut stream);
                break;
            }
        };
        shared.wire_metrics.count_frame(&frame);

        let outcome: Result<Frame, String> = match frame {
            Frame::Hello { version, resume } => {
                if version != WIRE_VERSION {
                    Err(format!("wire version {version} not supported (server speaks {WIRE_VERSION})"))
                } else if session.is_some() {
                    Err("session already open on this connection".into())
                } else if shared.stopping() {
                    Err("server is shutting down".into())
                } else {
                    match (resume, &shared.store) {
                        (None, _) => {
                            let id = pool.open_session();
                            // Before acking, make sure the WAL is
                            // writable: an event acked without a durable
                            // home would be a silent durability hole.
                            let opened = match &shared.store {
                                Some(store) => store
                                    .open_log(id, 0)
                                    .map(Some)
                                    .map_err(|e| format!("open WAL for session {id}: {e}")),
                                None => Ok(None),
                            };
                            match opened {
                                Ok(l) => {
                                    shared.attached.lock().insert(id);
                                    session = Some(id);
                                    session_events = 0;
                                    log = l;
                                    Ok(Frame::HelloAck {
                                        version: WIRE_VERSION,
                                        shards: pool.shards() as u16,
                                        session: id,
                                    })
                                }
                                Err(message) => Err(message),
                            }
                        }
                        // Without a data directory a dropped session is
                        // gone (its `Abort` may still be queued), so there
                        // is nothing sound to attach to.
                        (Some(id), None) => Err(format!(
                            "cannot resume session {id}: resuming needs a durable server \
                             (serve --data-dir)"
                        )),
                        // Two connections on one session would interleave
                        // WAL appends; first writer wins.
                        (Some(id), Some(_)) if !shared.attached.lock().insert(id) => {
                            Err(format!("session {id} is attached to another connection"))
                        }
                        (Some(id), Some(store)) => match resume_session(store, shared, pool, id) {
                            Ok((events, l)) => {
                                session = Some(id);
                                session_events = events;
                                log = Some(l);
                                Ok(Frame::HelloAck {
                                    version: WIRE_VERSION,
                                    shards: pool.shards() as u16,
                                    session: id,
                                })
                            }
                            Err(message) => {
                                shared.attached.lock().remove(&id);
                                Err(message)
                            }
                        },
                    }
                }
            }
            Frame::Events { events, ctx } => match session {
                None => Err("Events before Hello".into()),
                Some(id) => {
                    // A quarantined session (shard panic, budget) answers
                    // the typed failure instead of silently eating events.
                    if let Some(failure) = pool.session_failure(id) {
                        Ok(Frame::SessionFailed(failure))
                    } else {
                        // A traced batch: re-record the client-minted
                        // context verbatim (`span_at`) as the
                        // `client_submit` root of the server-side tree, so
                        // the WAL append and the shard job parent to the
                        // exact ids the client stamped on the wire.
                        let root = ctx.filter(|c| c.is_traced());
                        let submit_span = root.map(|c| {
                            shared.registry.span_at(shared.registry.span_name("client_submit"), c)
                        });
                        // Clone for the WAL before the pool consumes the
                        // batch; only durable sessions pay the copy. The
                        // pool goes first so a `Busy` refusal logs
                        // nothing; the ack waits for the append, so a
                        // crash can only lose *unacked* batches.
                        let copy = log.as_ref().map(|_| events.clone());
                        let outcome = match pool.submit_events(id, events, root) {
                            Ok(accepted) => {
                                session_events += accepted as u64;
                                let appended = match (log.as_mut(), copy) {
                                    (Some(l), Some(batch)) => {
                                        let wal_span = root.map(|c| {
                                            shared.registry.span_child(
                                                shared.registry.span_name("wal_append"),
                                                c,
                                            )
                                        });
                                        let appended = l.append(&batch).map(|()| {
                                            if l.snapshot_due() {
                                                pool.submit_snapshot(id, root);
                                                l.mark_snapshot();
                                            }
                                        });
                                        if let Some(ev) = wal_span.and_then(|s| s.end()) {
                                            shared.sink.record(id, ev);
                                        }
                                        appended
                                    }
                                    _ => Ok(()),
                                };
                                match appended {
                                    Ok(()) => Ok(Frame::EventsAck { accepted: accepted as u32 }),
                                    // The batch reached the analyzer but
                                    // not the log: never ack what a crash
                                    // could lose. The client resubmits it
                                    // after resuming.
                                    Err(e) => Err(format!("WAL append failed: {e}")),
                                }
                            }
                            Err(full) => Ok(Frame::Busy { queue_depth: full.depth }),
                        };
                        if let Some(ev) = submit_span.and_then(|s| s.end()) {
                            shared.sink.record(id, ev);
                        }
                        outcome
                    }
                }
            },
            Frame::Finish => match session.take() {
                None => Err("Finish before Hello".into()),
                Some(id) => {
                    let result = match pool.submit_finish(id).recv() {
                        Ok(r) => Ok(r),
                        // The worker died mid-Finish (reply sender dropped
                        // by the unwind). The supervisor has already
                        // quarantined the session and restarted the worker
                        // — ask again for the typed reason.
                        Err(_) => pool.submit_finish(id).recv(),
                    };
                    shared.attached.lock().remove(&id);
                    log = None;
                    match result {
                        Ok(Ok(reports)) => {
                            // Clean finish: the durable record has served
                            // its purpose.
                            if let Some(store) = &shared.store {
                                let _ = store.remove_session(id);
                            }
                            // By FIFO the worker finished every traced
                            // batch before answering Finish, so the
                            // session's span tree is complete: write it
                            // out (if a trace dir is configured) and free
                            // the buffer either way.
                            let spans = shared.sink.take_session(id);
                            if let Some(dir) = &shared.trace_dir {
                                if !spans.is_empty() {
                                    let _ = std::fs::create_dir_all(dir);
                                    let _ = std::fs::write(
                                        dir.join(format!("session-{id}.json")),
                                        arbalest_obs::chrome_trace_json(&spans),
                                    );
                                }
                            }
                            Ok(Frame::Reports(reports))
                        }
                        Ok(Err(failure)) => {
                            shared.sink.drop_session(id);
                            Ok(Frame::SessionFailed(failure))
                        }
                        Err(_) => Err("analysis shard terminated".into()),
                    }
                }
            },
            Frame::Stats => Ok(Frame::StatsReply(
                shared.stats.snapshot(pool.queue_depths(), session_events),
            )),
            Frame::Metrics => {
                // Refresh the queue-depth gauges so the export is current.
                let _ = pool.queue_depths();
                Ok(Frame::MetricsReply(shared.registry.snapshot().to_prometheus()))
            }
            Frame::TraceSnapshot => Ok(Frame::TraceSnapshotReply(shared.sink.recent())),
            Frame::Shutdown => {
                let _ = Frame::Ok.write_to(&mut stream);
                shared.request_stop();
                break;
            }
            // Server-role frames arriving at the server are a protocol
            // violation.
            Frame::HelloAck { .. }
            | Frame::EventsAck { .. }
            | Frame::Busy { .. }
            | Frame::Reports(_)
            | Frame::StatsReply(_)
            | Frame::Ok
            | Frame::Error { .. }
            | Frame::MetricsReply(_)
            | Frame::SessionFailed(_)
            | Frame::TraceSnapshotReply(_) => Err("client sent a server-role frame".into()),
        };

        let reply = match outcome {
            Ok(f) => f,
            Err(message) => Frame::Error { message },
        };
        if reply.write_to(&mut stream).is_err() {
            break;
        }
    }

    // A disconnect leaves acked WAL bytes durable (the resume point) even
    // under a lazy fsync policy.
    if let Some(mut l) = log.take() {
        let _ = l.sync();
    }
    // A session abandoned mid-stream must not leak detector state. Its
    // durable record (if any) stays on disk: that is what `--resume` and
    // startup recovery rebuild from.
    if let Some(id) = session {
        pool.submit_abort(id);
        shared.attached.lock().remove(&id);
        shared.sink.drop_session(id);
    }
}
