//! Client side of the analysis service: connect, stream a trace, collect
//! the reports.
//!
//! The client owns the backpressure loop: a `Busy` answer to an `Events`
//! batch means *nothing was enqueued*, so the same batch is retried after
//! an exponential backoff (1 ms doubling to a 50 ms ceiling). A server
//! that stays busy past [`Client::MAX_BUSY_RETRIES`] consecutive refusals
//! turns into [`ProtoError::Overloaded`] instead of an unbounded stall.

use crate::proto::{Frame, ProtoError, StatsSnapshot, WIRE_VERSION};
use crate::server::ListenAddr;
use arbalest_obs::{Registry, SpanContext, SpanEvent};
use arbalest_offload::report::Report;
use arbalest_offload::trace::TraceEvent;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Default number of events per `Events` frame when streaming a trace.
pub const DEFAULT_CHUNK: usize = 1024;

trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// One connection to an `arbalest serve` instance.
pub struct Client {
    stream: Box<dyn Transport>,
    session: Option<u64>,
    deadline: Option<Duration>,
    /// Registry for client-side causal tracing; disabled by default, so
    /// untraced clients stamp no contexts and record no spans.
    tracer: Registry,
}

impl Client {
    /// Consecutive `Busy` refusals of one batch before giving up with
    /// [`ProtoError::Overloaded`].
    pub const MAX_BUSY_RETRIES: u32 = 200;

    /// Connect over TCP or a Unix-domain socket, per the address kind.
    pub fn connect(addr: &ListenAddr) -> std::io::Result<Client> {
        let stream: Box<dyn Transport> = match addr {
            ListenAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                // Request/reply framing: waiting out Nagle costs ~40 ms a
                // round trip and buys nothing (frames are single writes).
                s.set_nodelay(true)?;
                Box::new(s)
            }
            ListenAddr::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        Ok(Client { stream, session: None, deadline: None, tracer: Registry::disabled() })
    }

    /// Wrap an already-connected byte stream (used by in-process tests).
    pub fn from_stream(stream: impl Read + Write + Send + 'static) -> Client {
        Client { stream: Box::new(stream), session: None, deadline: None, tracer: Registry::disabled() }
    }

    /// Enable causal tracing: every subsequent batch is stamped with a
    /// fresh root [`SpanContext`] on the wire, and the client records a
    /// matching `client_submit` span (same ids) into `reg`'s flight
    /// recorder — so a client-side drain and the server's trace file
    /// describe the same tree.
    pub fn with_tracing(mut self, reg: Registry) -> Client {
        self.tracer = reg;
        self
    }

    /// Bound every subsequent operation (including its `Busy` retry loop)
    /// to `deadline` total wall clock; past it the operation fails with
    /// the typed [`ProtoError::DeadlineExceeded`] instead of retrying on.
    /// Chaos soaks use this to cap worst-case client latency.
    pub fn with_deadline(mut self, deadline: Duration) -> Client {
        self.deadline = Some(deadline);
        self
    }

    fn call(&mut self, frame: &Frame) -> Result<Frame, ProtoError> {
        frame.write_to(&mut self.stream)?;
        match Frame::read_from(&mut self.stream, &mut || true)? {
            Frame::Error { message } => Err(ProtoError::Remote(message)),
            Frame::SessionFailed(failure) => Err(ProtoError::Failed(failure)),
            reply => Ok(reply),
        }
    }

    /// Open a session; returns the server-assigned session id.
    pub fn hello(&mut self) -> Result<u64, ProtoError> {
        self.hello_resume(None)
    }

    /// Open a fresh session (`resume: None`) or reattach to a durable one
    /// by id (the server must run with a data directory). On a resumed
    /// session, [`Client::stats`] reports `session_events` — the index
    /// the next submitted event should have.
    pub fn hello_resume(&mut self, resume: Option<u64>) -> Result<u64, ProtoError> {
        match self.call(&Frame::Hello { version: WIRE_VERSION, resume })? {
            Frame::HelloAck { session, .. } => {
                self.session = Some(session);
                Ok(session)
            }
            _ => Err(ProtoError::Unexpected("wanted HelloAck")),
        }
    }

    /// The session id, if a session is open.
    pub fn session(&self) -> Option<u64> {
        self.session
    }

    /// Send one batch, retrying `Busy` refusals with backoff. With a
    /// [`Client::with_deadline`] set, the whole retry loop is additionally
    /// bounded by total wall clock.
    pub fn send_events(&mut self, batch: &[TraceEvent]) -> Result<(), ProtoError> {
        if batch.is_empty() {
            return Ok(());
        }
        // One root context per batch; the client records its own
        // `client_submit` span at exactly those ids, so a `Busy` retry
        // loop shows up as one long span, not N.
        let ctx = self.tracer.is_enabled().then(SpanContext::new_root);
        let span =
            ctx.map(|c| self.tracer.span_at(self.tracer.span_name("client_submit"), c));
        let result = self.send_events_with(batch, ctx);
        drop(span);
        result
    }

    fn send_events_with(
        &mut self,
        batch: &[TraceEvent],
        ctx: Option<SpanContext>,
    ) -> Result<(), ProtoError> {
        let started = std::time::Instant::now();
        let mut backoff = Duration::from_millis(1);
        for _ in 0..Self::MAX_BUSY_RETRIES {
            if let Some(limit) = self.deadline {
                if started.elapsed() > limit {
                    return Err(ProtoError::DeadlineExceeded { limit });
                }
            }
            match self.call(&Frame::Events { events: batch.to_vec(), ctx })? {
                Frame::EventsAck { .. } => return Ok(()),
                Frame::Busy { .. } => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(50));
                }
                _ => return Err(ProtoError::Unexpected("wanted EventsAck or Busy")),
            }
        }
        Err(ProtoError::Overloaded)
    }

    /// Close the session and collect its reports.
    pub fn finish(&mut self) -> Result<Vec<Report>, ProtoError> {
        match self.call(&Frame::Finish)? {
            Frame::Reports(reports) => {
                self.session = None;
                Ok(reports)
            }
            _ => Err(ProtoError::Unexpected("wanted Reports")),
        }
    }

    /// Full round trip: open a session, stream `events` in
    /// [`DEFAULT_CHUNK`]-sized batches, finish, return the reports.
    pub fn submit(&mut self, events: &[TraceEvent]) -> Result<Vec<Report>, ProtoError> {
        self.submit_chunked(events, DEFAULT_CHUNK)
    }

    /// [`Client::submit`] with an explicit batch size (minimum 1).
    pub fn submit_chunked(
        &mut self,
        events: &[TraceEvent],
        chunk: usize,
    ) -> Result<Vec<Report>, ProtoError> {
        self.hello()?;
        for batch in events.chunks(chunk.max(1)) {
            self.send_events(batch)?;
        }
        self.finish()
    }

    /// Fetch server counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ProtoError> {
        match self.call(&Frame::Stats)? {
            Frame::StatsReply(s) => Ok(s),
            _ => Err(ProtoError::Unexpected("wanted StatsReply")),
        }
    }

    /// Fetch the server's metrics registry rendered in Prometheus text
    /// exposition format (the same cells the binary [`Client::stats`]
    /// snapshot reads).
    pub fn metrics(&mut self) -> Result<String, ProtoError> {
        match self.call(&Frame::Metrics)? {
            Frame::MetricsReply(text) => Ok(text),
            _ => Err(ProtoError::Unexpected("wanted MetricsReply")),
        }
    }

    /// Fetch the server's most recent completed trace spans (any
    /// session): the `TraceSnapshot` admin frame. Useful for inspecting a
    /// live server without waiting for a session's trace file.
    pub fn trace_snapshot(&mut self) -> Result<Vec<SpanEvent>, ProtoError> {
        match self.call(&Frame::TraceSnapshot)? {
            Frame::TraceSnapshotReply(spans) => Ok(spans),
            _ => Err(ProtoError::Unexpected("wanted TraceSnapshotReply")),
        }
    }

    /// Ask the server to drain and stop. The server acknowledges before it
    /// begins draining.
    pub fn shutdown_server(&mut self) -> Result<(), ProtoError> {
        match self.call(&Frame::Shutdown)? {
            Frame::Ok => Ok(()),
            _ => Err(ProtoError::Unexpected("wanted Ok")),
        }
    }
}
