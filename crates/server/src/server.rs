//! The `arbalest-serve` service: listeners, connection handling, and
//! lifecycle.
//!
//! One thread accepts connections (TCP or Unix-domain); each connection
//! gets a handler thread that speaks the frame protocol and owns its
//! session: it logs, analyses and acknowledges each batch itself, and
//! answers `Finish` itself. Nothing on the path from a request to its
//! answer sleeps or polls: the accept blocks, each read waits at most the
//! time left on its idle or request-deadline clock, and a batch waits
//! only for a free analysis slot.
//!
//! Shutdown is graceful by construction. The `Shutdown` frame (or
//! [`Server::stop`]) sets the stop flag, wakes the blocking accept with
//! one self-connect that is never served, and cuts every handler's read
//! short with `shutdown(Read)` on a stream clone registered at accept
//! time. A handler finishes the request it is serving, and the last one
//! out signals a condvar.

use crate::proto::{Frame, ProtoError, WIRE_VERSION};
use crate::session::{Analysis, Session};
use arbalest_core::ArbalestConfig;
use arbalest_obs::{Counter, Registry};
use arbalest_sync::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// How many sessions are analysed at once (clamped to 1..=64). Each
    /// batch, snapshot, recovery or finish holds one of these slots while
    /// it runs, never a whole session.
    pub shards: usize,
    /// Detector configuration used for every session.
    pub detector: ArbalestConfig,
    /// Metrics registry shared by the wire layer, the sessions, and every
    /// session detector. Enabled by default; substitute
    /// [`Registry::disabled`] to run without instrumentation.
    pub metrics: Registry,
    /// How long shutdown waits for in-flight connections to finish before
    /// abandoning them. When the deadline fires with handlers still
    /// active, the `arbalest_server_forced_aborts_total` counter records
    /// it.
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
    /// Per-session byte budget over the detector's side tables. First
    /// breach degrades the session via evict-to-May; an incurable breach
    /// terminates it with `SessionFailed(BudgetExceeded)`. `0` disables
    /// the governor.
    pub max_session_bytes: u64,
    /// Analysis fault injection (panics, synthetic budget pressure) for
    /// chaos soaks. Disabled by default.
    pub faults: arbalest_offload::fault::FaultConfig,
    /// Durable-session data directory. `Some` turns on write-ahead
    /// logging of every accepted batch, snapshot/compaction per the
    /// `store` triggers, and `Hello { resume }`, which rebuilds an
    /// unfinished session from disk. `None` (default) keeps the
    /// pre-durability behaviour.
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
            detector: ArbalestConfig::default(),
            metrics: Registry::new(),
            drain_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(120),
            request_deadline: Duration::from_secs(30),
            max_frame: crate::proto::MAX_FRAME,
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

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true); // replies are single writes
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Stream {
    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(d)),
            Stream::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// End the read side: a blocked or later read returns EOF once the
    /// bytes already received are consumed. Replies can still be written.
    fn shutdown_read(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Read),
            Stream::Unix(s) => s.shutdown(Shutdown::Read),
        };
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
    /// Set by the first [`Shared::request_stop`]: whether its wake-up
    /// connect reached the accept loop.
    accept_woken: OnceLock<bool>,
    /// The bound address (the real port for `:0` binds); the wake-up
    /// connect goes here.
    local_addr: ListenAddr,
    /// Live connections by id, each with a clone of its stream so that
    /// stop can cut the handler's read short.
    conns: Mutex<HashMap<u64, Stream>>,
    /// Signalled when stop is requested and when the last connection
    /// leaves `conns`.
    conns_changed: Condvar,
    /// What every connection's session shares.
    analysis: Analysis,
    wire_metrics: WireMetrics,
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

/// The connection watchdog's clocks for one frame. Until the first byte
/// of the frame arrives the idle clock runs; from the first byte on, the
/// request deadline runs, so a sender stalling mid-frame cannot pin the
/// handler forever.
struct FrameClock {
    started: Instant,
    first_byte: Cell<Option<Instant>>,
}

impl FrameClock {
    /// Time left on the running clock, or why it ran out.
    fn left(&self, shared: &Shared) -> Result<Duration, ReapReason> {
        let (since, limit, reason) = match self.first_byte.get() {
            None => (self.started, shared.idle_timeout, ReapReason::Idle),
            Some(first) => (first, shared.request_deadline, ReapReason::Deadline),
        };
        match limit.saturating_sub(since.elapsed()) {
            left if left.is_zero() => Err(reason),
            left => Ok(left),
        }
    }
}

/// [`Read`] adapter for one frame. Each read waits at most the time left
/// on the [`FrameClock`], and received bytes feed the global counter. The
/// EOF of a read that stop cut short becomes an interrupt, so the frame
/// reader asks `keep_waiting` and reports the shutdown, not a truncated
/// frame or a peer hang-up.
struct FrameReader<'a> {
    stream: &'a mut Stream,
    shared: &'a Shared,
    clock: &'a FrameClock,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.clock.left(self.shared) {
            Ok(left) => self.stream.set_read_timeout(left)?,
            Err(_) => return Err(std::io::ErrorKind::TimedOut.into()),
        }
        let n = self.stream.read(buf)?;
        if n == 0 && self.shared.stopping() {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        if n > 0 && self.clock.first_byte.get().is_none() {
            self.clock.first_byte.set(Some(Instant::now()));
        }
        self.shared.wire_metrics.rx_bytes.add(n as u64);
        Ok(n)
    }
}

impl Shared {
    /// Stop accepting and cut every handler's read short; idempotent.
    /// Returns whether the blocking accept was woken. A concurrent second
    /// caller waits for the first one's answer.
    fn request_stop(&self) -> bool {
        *self.accept_woken.get_or_init(|| {
            self.stop.store(true, SeqCst);
            for stream in self.conns.lock().values() {
                stream.shutdown_read();
            }
            self.conns_changed.notify_all();
            wake_accept(&self.local_addr)
        })
    }

    fn stopping(&self) -> bool {
        self.stop.load(SeqCst)
    }

    /// Drop a finished connection's stream clone; the last one out wakes
    /// the drain in `shutdown_inner`.
    fn deregister(&self, id: u64) {
        let mut conns = self.conns.lock();
        conns.remove(&id);
        if conns.is_empty() {
            self.conns_changed.notify_all();
        }
    }
}

/// Connect to the listener once, so that its blocking `accept` returns
/// and sees the stop flag. An unspecified bind address (`0.0.0.0`, `[::]`)
/// is reached over loopback.
fn wake_accept(addr: &ListenAddr) -> bool {
    match addr {
        ListenAddr::Tcp(a) => {
            let Ok(mut a) = a.parse::<SocketAddr>() else { return false };
            if a.ip().is_unspecified() {
                a.set_ip(match a {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            TcpStream::connect_timeout(&a, Duration::from_secs(1)).is_ok()
        }
        ListenAddr::Unix(path) => UnixStream::connect(path).is_ok(),
    }
}

/// A running server. [`Server::stop`] (or drop) performs the graceful
/// drain: stop accepting, let handlers finish their requests, join.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
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
                (Listener::Unix(l), ListenAddr::Unix(path.clone()), Some(path.clone()))
            }
        };

        let analysis = Analysis::new(&cfg)?;
        let registry = &analysis.registry;
        let reaped = |reason| {
            registry.counter("arbalest_server_connections_reaped_total", &[("reason", reason)])
        };
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            accept_woken: OnceLock::new(),
            local_addr,
            conns: Mutex::new(HashMap::new()),
            conns_changed: Condvar::new(),
            wire_metrics: WireMetrics::new(registry),
            idle_timeout: cfg.idle_timeout,
            request_deadline: cfg.request_deadline,
            max_frame: cfg.max_frame,
            accept_errors: registry.counter("arbalest_server_accept_errors_total", &[]),
            forced_aborts: registry.counter("arbalest_server_forced_aborts_total", &[]),
            reaped_idle: reaped("idle"),
            reaped_deadline: reaped("deadline"),
            analysis,
        });

        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("arbalest-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
            unix_path,
            drain_deadline: cfg.drain_deadline,
        })
    }

    /// The bound address (with the real port for `:0` binds).
    pub fn local_addr(&self) -> &ListenAddr {
        &self.shared.local_addr
    }

    /// Block until some connection sends a `Shutdown` frame.
    pub fn wait_for_shutdown(&self) {
        let mut conns = self.shared.conns.lock();
        while !self.shared.stopping() {
            self.shared.conns_changed.wait(&mut conns);
        }
    }

    /// Stop accepting, wake every handler, let each finish the request it
    /// is serving, and join the accept thread.
    pub fn stop(self) {
        drop(self);
    }

    fn shutdown_inner(&mut self) {
        let woken = self.shared.request_stop();
        if let Some(t) = self.accept_thread.take() {
            // A failed wake-up connect leaves the accept parked. Detach it
            // rather than hang: whatever it accepts next, it drops unserved
            // and exits.
            if woken {
                let _ = t.join();
            }
        }
        // Stop cut every handler's read short; wait for the last one to
        // leave.
        let deadline = Instant::now() + self.drain_deadline;
        let mut conns = self.shared.conns.lock();
        while !conns.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // The drain deadline fired with handlers still in flight:
                // record the forced abort so operators can tell "clean
                // drain" from "gave up waiting".
                self.shared.forced_aborts.inc();
                break;
            }
            self.shared.conns_changed.wait_for(&mut conns, left);
        }
        drop(conns);
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

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    const MIN_BACKOFF: Duration = Duration::from_millis(20);
    const MAX_BACKOFF: Duration = Duration::from_secs(1);
    // Real accept errors (fd exhaustion, aborted handshakes in a storm)
    // back off exponentially instead of hot-looping; any successful
    // accept resets the backoff.
    let mut backoff = MIN_BACKOFF;
    for id in 0u64.. {
        let accepted = listener.accept().and_then(|s| Ok((s.try_clone()?, s)));
        // After stop, whatever was accepted (the wake-up connect
        // included) is dropped unserved. Checking under the table's lock
        // orders registration against `request_stop`'s sweep: a
        // connection is either registered before the sweep, which cuts
        // its read short, or sees the flag here.
        let mut conns = shared.conns.lock();
        if shared.stopping() {
            break;
        }
        let Ok((clone, stream)) = accepted else {
            drop(conns);
            shared.accept_errors.inc();
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
            continue;
        };
        backoff = MIN_BACKOFF;
        conns.insert(id, clone);
        drop(conns);
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new().name("arbalest-conn".into()).spawn(move || {
            handle_connection(stream, &conn_shared);
            conn_shared.deregister(id);
        });
        if spawned.is_err() {
            shared.deregister(id);
        }
    }
}

/// Why the connection watchdog gave up on a read.
enum ReapReason {
    Idle,
    Deadline,
}

fn handle_connection(mut stream: Stream, shared: &Shared) {
    let a = &shared.analysis;
    let mut session: Option<Session> = None;

    loop {
        // Each read waits at most the time left on the frame's idle or
        // request-deadline clock. `keep_waiting` runs when a read times
        // out or stop cut it short: it ends the frame read on stop, or
        // reaps the connection once its running clock is spent.
        let reaped = Cell::new(None::<ReapReason>);
        let frame = {
            let clock = FrameClock { started: Instant::now(), first_byte: Cell::new(None) };
            let mut reader = FrameReader { stream: &mut stream, shared, clock: &clock };
            let mut keep_waiting = || {
                if shared.stopping() {
                    return false;
                }
                match clock.left(shared) {
                    Ok(_) => true,
                    Err(reason) => {
                        reaped.set(Some(reason));
                        false
                    }
                }
            };
            Frame::read_from_limited(&mut reader, &mut keep_waiting, shared.max_frame)
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
                    a.registry
                        .counter("arbalest_server_decode_errors_total", &[("error", we.label())])
                        .inc();
                }
                let _ = Frame::error(e.to_string()).write_to(&mut stream);
                break;
            }
        };
        shared.wire_metrics.count_frame(&frame);

        let reply = match frame {
            Frame::Hello { version, resume } => {
                if version != WIRE_VERSION {
                    Frame::error(format!(
                        "wire version {version} not supported (server speaks {WIRE_VERSION})"
                    ))
                } else if session.is_some() {
                    Frame::error("session already open on this connection")
                } else if shared.stopping() {
                    Frame::error("server is shutting down")
                } else {
                    match a.open(resume) {
                        Ok(opened) => {
                            let ack = Frame::HelloAck {
                                version: WIRE_VERSION,
                                shards: a.width() as u16,
                                session: opened.id,
                            };
                            session = Some(opened);
                            ack
                        }
                        Err(refusal) => refusal,
                    }
                }
            }
            Frame::Events { events, ctx } => match session.as_mut() {
                None => Frame::error("Events before Hello"),
                Some(s) => s.feed(a, &events, ctx),
            },
            Frame::Finish => match session.take() {
                None => Frame::error("Finish before Hello"),
                Some(s) => s.finish(a),
            },
            Frame::Stats => {
                Frame::StatsReply(a.stats.snapshot(session.as_ref().map_or(0, |s| s.events)))
            }
            Frame::Metrics => Frame::MetricsReply(a.registry.snapshot().to_prometheus()),
            Frame::TraceSnapshot => Frame::TraceSnapshotReply(a.sink.recent()),
            Frame::Shutdown => {
                let _ = Frame::Ok.write_to(&mut stream);
                shared.request_stop();
                break;
            }
            // Server-role frames arriving at the server are a protocol
            // violation.
            Frame::HelloAck { .. }
            | Frame::EventsAck { .. }
            | Frame::Reports(_)
            | Frame::StatsReply(_)
            | Frame::Ok
            | Frame::Error { .. }
            | Frame::MetricsReply(_)
            | Frame::SessionFailed(_)
            | Frame::TraceSnapshotReply(_) => Frame::error("client sent a server-role frame"),
        };
        if reply.write_to(&mut stream).is_err() {
            break;
        }
    }

    // A session abandoned mid-stream must not leak detector state. Its
    // durable record (if any) stays on disk: that is what `--resume`
    // rebuilds from.
    if let Some(s) = session {
        s.abort(a);
    }
}
