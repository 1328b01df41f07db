//! Client side of the analysis service: connect, stream a trace, collect
//! the reports.
//!
//! The server acks an `Events` batch only once it has logged and
//! analysed it. [`Client::send_all`] (behind [`Client::submit`]) keeps
//! one batch ahead of the acks, so a connection has at most two batches
//! in flight; every other request waits for its reply. That, and TCP
//! flow control, is the whole of backpressure.

use crate::proto::{self, Frame, ProtoError, StatsSnapshot, WIRE_VERSION};
use crate::server::ListenAddr;
use arbalest_obs::{Registry, Span, SpanContext};
use arbalest_offload::report::Report;
use arbalest_offload::trace::TraceEvent;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Default number of events per `Events` frame when streaming a trace.
pub const DEFAULT_CHUNK: usize = 1024;

trait Transport: Read + Write + Send {
    /// Bound each later read; a caller's own stream keeps its timeouts.
    fn set_read_timeout(&self, _limit: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, limit: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, limit)
    }
}

impl Transport for UnixStream {
    fn set_read_timeout(&self, limit: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, limit)
    }
}

/// A stream handed to [`Client::from_stream`].
struct Given<T>(T);

impl<T: Read> Read for Given<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl<T: Write> Write for Given<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl<T: Read + Write + Send> Transport for Given<T> {}

/// A batch sent and not yet acked.
struct Posted {
    started: Instant,
    /// The batch's `client_submit` span, recorded when the ack arrives.
    _span: Option<Span>,
}

/// One connection to an `arbalest serve` instance.
pub struct Client {
    stream: Box<dyn Transport>,
    deadline: Option<Duration>,
    /// Registry for client-side causal tracing; disabled by default, so
    /// untraced clients stamp no contexts and record no spans.
    tracer: Registry,
    /// The frame being sent, kept so that every send reuses one buffer.
    out: Vec<u8>,
}

impl Client {
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
        Ok(Client::over(stream))
    }

    /// Wrap an already-connected byte stream (used by in-process tests).
    pub fn from_stream(stream: impl Read + Write + Send + 'static) -> Client {
        Client::over(Box::new(Given(stream)))
    }

    fn over(stream: Box<dyn Transport>) -> Client {
        Client { stream, deadline: None, tracer: Registry::disabled(), out: Vec::new() }
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

    /// Bound the wait for every subsequent reply to `deadline` total wall
    /// clock; past it the operation fails with the typed
    /// [`ProtoError::DeadlineExceeded`]. On a stream given to
    /// [`Client::from_stream`] the check runs when the stream's own read
    /// timeout fires. Chaos soaks use this to cap worst-case client
    /// latency.
    pub fn with_deadline(mut self, deadline: Duration) -> Client {
        // A failed set leaves reads unbounded, as without a deadline.
        let _ = self.stream.set_read_timeout(Some(deadline));
        self.deadline = Some(deadline);
        self
    }

    fn call(&mut self, frame: &Frame) -> Result<Frame, ProtoError> {
        let started = self.send(frame)?;
        self.reply(started)
    }

    /// Write `frame`; returns when it was sent, where its reply's deadline
    /// starts.
    fn send(&mut self, frame: &Frame) -> Result<Instant, ProtoError> {
        self.send_encoded(|out| frame.encode(out))
    }

    /// [`Client::send`] for the frame `encode` appends to the reused
    /// buffer, written as one write (see [`Frame::write_to`]).
    fn send_encoded(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Instant, ProtoError> {
        let started = Instant::now();
        self.out.clear();
        encode(&mut self.out);
        self.stream.write_all(&self.out)?;
        self.stream.flush()?;
        Ok(started)
    }

    /// Read the reply to a frame sent at `started`.
    fn reply(&mut self, started: Instant) -> Result<Frame, ProtoError> {
        let deadline = self.deadline;
        let mut keep_waiting = || deadline.is_none_or(|limit| started.elapsed() < limit);
        match Frame::read_from(&mut self.stream, &mut keep_waiting) {
            Ok(Frame::Error { message }) => Err(ProtoError::Remote(message)),
            Ok(Frame::SessionFailed(failure)) => Err(ProtoError::Failed(failure)),
            Ok(reply) => Ok(reply),
            Err(ProtoError::ShuttingDown) => match deadline {
                Some(limit) => Err(ProtoError::DeadlineExceeded { limit }),
                None => Err(ProtoError::ShuttingDown),
            },
            Err(e) => Err(e),
        }
    }

    /// Open a fresh session; returns the server-assigned session id.
    pub fn hello(&mut self) -> Result<u64, ProtoError> {
        self.open(None).map(|(session, _)| session)
    }

    /// Reattach to durable session `id` (the server must run with a data
    /// directory). Returns how many of its events the server already
    /// holds: the index the next submitted event should have.
    pub fn resume(&mut self, id: u64) -> Result<u64, ProtoError> {
        self.open(Some(id)).map(|(_, events)| events)
    }

    /// Send `Hello`; returns the session id and the events it holds.
    fn open(&mut self, resume: Option<u64>) -> Result<(u64, u64), ProtoError> {
        match self.call(&Frame::Hello { version: WIRE_VERSION, resume })? {
            Frame::HelloAck { session, events, .. } => Ok((session, events)),
            _ => Err(ProtoError::Unexpected("wanted HelloAck")),
        }
    }

    /// Send one batch and wait until the server has logged and analysed
    /// it.
    pub fn send_events(&mut self, batch: &[TraceEvent]) -> Result<(), ProtoError> {
        let sent = self.post_events(batch)?;
        self.await_ack(sent)
    }

    /// Stream `events` into the open session in batches of `chunk`
    /// (minimum 1), and return once every batch is acked. One batch stays
    /// ahead of the acks: while the server analyses a batch, the next one
    /// already waits in its socket buffer, so encoding it and the round
    /// trip overlap the analysis.
    pub fn send_all(&mut self, events: &[TraceEvent], chunk: usize) -> Result<(), ProtoError> {
        let mut ahead = None;
        for batch in events.chunks(chunk.max(1)) {
            let posted = self.post_events(batch)?;
            if let Err(e) = self.await_ack(std::mem::replace(&mut ahead, posted)) {
                // Read the answer to the batch already sent, so the stream
                // stays in step for whatever the caller sends next.
                let _ = self.await_ack(ahead);
                return Err(e);
            }
        }
        self.await_ack(ahead)
    }

    /// Send one batch without waiting for its ack ([`Client::await_ack`]).
    fn post_events(&mut self, batch: &[TraceEvent]) -> Result<Option<Posted>, ProtoError> {
        if batch.is_empty() {
            return Ok(None);
        }
        // One root context per batch; the client records its own
        // `client_submit` span at exactly those ids.
        let ctx = self.tracer.is_enabled().then(SpanContext::new_root);
        let span =
            ctx.map(|c| self.tracer.span_at(self.tracer.span_name("client_submit"), c));
        let started = self.send_encoded(|out| proto::put_events_frame(out, batch, ctx))?;
        Ok(Some(Posted { started, _span: span }))
    }

    /// Wait for the ack of a batch sent by [`Client::post_events`].
    fn await_ack(&mut self, posted: Option<Posted>) -> Result<(), ProtoError> {
        let Some(posted) = posted else { return Ok(()) };
        match self.reply(posted.started)? {
            Frame::EventsAck { .. } => Ok(()),
            _ => Err(ProtoError::Unexpected("wanted EventsAck")),
        }
    }

    /// Close the session and collect its reports.
    pub fn finish(&mut self) -> Result<Vec<Report>, ProtoError> {
        match self.call(&Frame::Finish)? {
            Frame::Reports(reports) => Ok(reports),
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
        self.send_all(events, chunk)?;
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

    /// Ask the server to drain and stop. The server acknowledges before it
    /// begins draining.
    pub fn shutdown_server(&mut self) -> Result<(), ProtoError> {
        match self.call(&Frame::Shutdown)? {
            Frame::Ok => Ok(()),
            _ => Err(ProtoError::Unexpected("wanted Ok")),
        }
    }
}
