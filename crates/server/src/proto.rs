//! The framed wire protocol spoken between `arbalest submit` clients and
//! `arbalest serve`.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌────────────┬──────────┬─────────────────────────┐
//! │ len: u32le │ type: u8 │ payload: len-1 bytes    │
//! └────────────┴──────────┴─────────────────────────┘
//! ```
//!
//! `len` counts the type byte plus the payload and is capped at
//! [`MAX_FRAME`]; a peer announcing a larger frame is cut off before any
//! allocation. Payload contents use the [`arbalest_offload::wire`]
//! primitives, so the event and report layouts are shared with trace
//! files. A session opens with `Hello` (which carries the wire version —
//! mismatches fail fast with a typed error), streams `Events` batches —
//! each acknowledged with `EventsAck` once the server has logged and
//! analysed it — and closes with `Finish`, answered by `Reports`. `Stats`,
//! `Metrics` and `Shutdown` are admin frames any connection may send.

use crate::supervise::SessionFailure;
use arbalest_obs::SpanContext;
use arbalest_offload::report::Report;
use arbalest_offload::trace::TraceEvent;
use arbalest_offload::wire::{self, Cursor, WireError, REPORT_KIND_COUNT};
use std::io::{Read, Write};

/// Version of the service protocol: the frame set and every payload,
/// the event and report layouts included. `Hello` carries it, and a
/// mismatch is refused before anything else is read. Version 2 retired
/// `Busy` and dropped the busy count and queue depths from `StatsReply`;
/// version 3 retired `TraceSnapshot`/`TraceSnapshotReply`, put the
/// session's durable event count in `HelloAck` in place of the shard
/// count, and dropped the per-connection event count from `StatsReply`.
pub const WIRE_VERSION: u16 = 3;

/// Hard ceiling on one frame's length field (type byte + payload). A
/// server may enforce a *lower* per-instance limit via
/// `ServerConfig::max_frame`; this constant bounds what the protocol
/// itself will ever admit.
pub const MAX_FRAME: u32 = 32 << 20;

/// Everything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(std::io::Error),
    /// Payload bytes failed to decode.
    Wire(WireError),
    /// The peer sent a frame that is illegal in the current state, or an
    /// unknown frame type.
    Unexpected(&'static str),
    /// The peer reported an error frame.
    Remote(String),
    /// The server terminated the session for a typed reason (shard panic,
    /// budget, idle reap, request deadline).
    Failed(SessionFailure),
    /// The client-side total deadline elapsed before the operation
    /// completed (see `Client::with_deadline`).
    DeadlineExceeded {
        /// The configured total deadline that elapsed.
        limit: std::time::Duration,
    },
    /// The server is draining for shutdown.
    ShuttingDown,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Wire(e) => write!(f, "malformed frame: {e}"),
            ProtoError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
            ProtoError::Remote(msg) => write!(f, "server error: {msg}"),
            ProtoError::Failed(failure) => write!(f, "session failed: {failure}"),
            ProtoError::DeadlineExceeded { limit } => {
                write!(f, "client deadline of {limit:?} exceeded")
            }
            ProtoError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

/// Counters returned by a `Stats` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions opened since the server started.
    pub sessions_started: u64,
    /// Sessions that reached `Finish`.
    pub sessions_finished: u64,
    /// Events logged and fed to a session's detector.
    pub events_received: u64,
    /// Reports produced by finished sessions, indexed by
    /// [`wire::report_kind_tag`] (UUM, USD, BO, race, uninit, heap-BO,
    /// UAF).
    pub reports_by_kind: [u64; REPORT_KIND_COUNT],
}

impl StatsSnapshot {
    /// Sessions opened but not yet finished.
    pub fn sessions_active(&self) -> u64 {
        self.sessions_started.saturating_sub(self.sessions_finished)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for v in [self.sessions_started, self.sessions_finished, self.events_received] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in self.reports_by_kind {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<StatsSnapshot, WireError> {
        let mut s = StatsSnapshot {
            sessions_started: cur.u64()?,
            sessions_finished: cur.u64()?,
            events_received: cur.u64()?,
            ..Default::default()
        };
        for slot in s.reports_by_kind.iter_mut() {
            *slot = cur.u64()?;
        }
        Ok(s)
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session. Carries the client's wire version
    /// and, optionally, a durable session id to resume (a tag byte, then
    /// the id when the tag is 1).
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
        /// Durable session id to resume after a server crash/restart.
        resume: Option<u64>,
    },
    /// Client → server: a batch of trace events for the open session.
    /// Optionally stamped with the client's [`SpanContext`] for the
    /// submit (a tag byte after the batch, then the context when the tag
    /// is 1), so server-side work (WAL append, shard job, detector feed)
    /// joins the client's causal trace tree.
    Events {
        /// The trace events.
        events: Vec<TraceEvent>,
        /// Client-minted causal identity of this submit, if tracing.
        ctx: Option<SpanContext>,
    },
    /// Client → server: end of stream; request the session's reports.
    Finish,
    /// Client → server: request counters.
    Stats,
    /// Client → server: stop the server once in-flight requests finish.
    Shutdown,
    /// Client → server: request the full metrics registry rendered as
    /// Prometheus text exposition format.
    Metrics,
    /// Server → client: session opened.
    HelloAck {
        /// Server's wire version.
        version: u16,
        /// Assigned session id.
        session: u64,
        /// Events the session already holds: 0 for a fresh session, the
        /// durable count for a resumed one, which is the index the next
        /// submitted event should have.
        events: u64,
    },
    /// Server → client: batch logged and analysed.
    EventsAck {
        /// Number of events accepted.
        accepted: u32,
    },
    /// Server → client: the finished session's findings.
    Reports(Vec<Report>),
    /// Server → client: counters.
    StatsReply(StatsSnapshot),
    /// Server → client: generic success (shutdown acknowledged).
    Ok,
    /// Server → client: request failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Server → client: the metrics registry in Prometheus text format.
    MetricsReply(String),
    /// Server → client: the session (or connection) was terminated by the
    /// server for a *typed* reason — shard panic, budget exhaustion, idle
    /// reap, or request deadline. Unlike [`Frame::Error`] this is
    /// machine-readable, so clients and soak harnesses can assert the
    /// exact failure class.
    SessionFailed(SessionFailure),
}

impl Frame {
    /// A [`Frame::Error`] carrying `message`.
    pub(crate) fn error(message: impl Into<String>) -> Frame {
        Frame::Error { message: message.into() }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Events { .. } => EVENTS,
            Frame::Finish => 0x03,
            Frame::Stats => 0x04,
            Frame::Shutdown => 0x05,
            Frame::Metrics => 0x06,
            Frame::HelloAck { .. } => 0x81,
            Frame::EventsAck { .. } => 0x82,
            Frame::Reports(_) => 0x84,
            Frame::StatsReply(_) => 0x85,
            Frame::Ok => 0x86,
            Frame::Error { .. } => 0x87,
            Frame::MetricsReply(_) => 0x88,
            Frame::SessionFailed(_) => 0x89,
        }
    }

    /// A short static label for this frame's type, used as a metric label
    /// value (`arbalest_server_frames_total{type=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Events { .. } => "events",
            Frame::Finish => "finish",
            Frame::Stats => "stats",
            Frame::Shutdown => "shutdown",
            Frame::Metrics => "metrics",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::EventsAck { .. } => "events_ack",
            Frame::Reports(_) => "reports",
            Frame::StatsReply(_) => "stats_reply",
            Frame::Ok => "ok",
            Frame::Error { .. } => "error",
            Frame::MetricsReply(_) => "metrics_reply",
            Frame::SessionFailed(_) => "session_failed",
        }
    }

    /// Append this frame (length, type byte, payload) to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_frame(out, self.type_byte(), |out| match self {
            Frame::Hello { version, resume } => {
                out.extend_from_slice(&version.to_le_bytes());
                match resume {
                    Some(id) => {
                        out.push(1);
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            Frame::Events { events, ctx } => put_events_payload(out, events, *ctx),
            Frame::Finish | Frame::Stats | Frame::Shutdown | Frame::Metrics | Frame::Ok => {}
            Frame::HelloAck { version, session, events } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&events.to_le_bytes());
            }
            Frame::EventsAck { accepted } => out.extend_from_slice(&accepted.to_le_bytes()),
            Frame::Reports(reports) => wire::put_reports(out, reports),
            Frame::StatsReply(s) => s.encode(out),
            Frame::Error { message } => wire::put_str(out, message),
            Frame::MetricsReply(text) => wire::put_str(out, text),
            Frame::SessionFailed(failure) => failure.encode(out),
        });
    }

    /// Decode a frame body. For `Events`, also returns the batch's bytes
    /// as received: the count-prefixed events, without the span-context
    /// tag (empty for every other frame).
    fn decode(ty: u8, payload: &[u8]) -> Result<(Frame, &[u8]), ProtoError> {
        let mut cur = Cursor::new(payload);
        let mut batch = &payload[..0];
        let frame = match ty {
            0x01 => {
                let version = cur.u16()?;
                let resume = match cur.u8()? {
                    0 => None,
                    1 => Some(cur.u64()?),
                    tag => return Err(WireError::BadTag { what: "Hello resume", tag }.into()),
                };
                Frame::Hello { version, resume }
            }
            EVENTS => {
                let events = wire::decode_events(&mut cur)?;
                batch = &payload[..payload.len() - cur.remaining()];
                let ctx = match cur.u8()? {
                    0 => None,
                    1 => Some(wire::get_span_context(&mut cur)?),
                    tag => return Err(WireError::BadTag { what: "Events ctx", tag }.into()),
                };
                Frame::Events { events, ctx }
            }
            0x03 => Frame::Finish,
            0x04 => Frame::Stats,
            0x05 => Frame::Shutdown,
            0x06 => Frame::Metrics,
            0x81 => {
                Frame::HelloAck { version: cur.u16()?, session: cur.u64()?, events: cur.u64()? }
            }
            0x82 => Frame::EventsAck { accepted: cur.u32()? },
            0x84 => Frame::Reports(wire::decode_reports(&mut cur)?),
            0x85 => Frame::StatsReply(StatsSnapshot::decode(&mut cur)?),
            0x86 => Frame::Ok,
            0x87 => Frame::Error { message: cur.string()? },
            0x88 => Frame::MetricsReply(cur.string()?),
            0x89 => Frame::SessionFailed(SessionFailure::decode(&mut cur)?),
            tag => return Err(WireError::BadTag { what: "Frame", tag }.into()),
        };
        if !cur.is_empty() {
            return Err(WireError::TrailingBytes { extra: cur.remaining() }.into());
        }
        Ok((frame, batch))
    }

    /// Write this frame, length prefix first, and flush. The whole frame
    /// goes out as a *single* write: three small writes per frame
    /// (prefix, type, payload) interact with Nagle's algorithm and
    /// delayed ACKs to add ~40 ms of latency per request on TCP.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        let mut out = Vec::new();
        self.encode(&mut out);
        w.write_all(&out)?;
        w.flush()?;
        Ok(())
    }

    /// Read one frame. `keep_waiting` is asked whenever a read fails with
    /// `WouldBlock`, `TimedOut` or `Interrupted` (a read timeout expired,
    /// or the reader was woken); return `false` to abort with
    /// [`ProtoError::ShuttingDown`]. The server sets each read's timeout
    /// to the time left on its idle or deadline clock, and its stop wakes
    /// a blocked read with `shutdown(Read)`, whose EOF its reader turns
    /// into an interrupt.
    pub fn read_from(
        r: &mut impl Read,
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<Frame, ProtoError> {
        Frame::read_from_limited(r, keep_waiting, MAX_FRAME)
    }

    /// [`read_from`](Frame::read_from) with a caller-chosen frame-size
    /// ceiling (still capped at [`MAX_FRAME`]): servers enforce their
    /// configured `max_frame` here, before any payload allocation.
    ///
    /// A peer that closes the connection *mid-frame* — after the length
    /// prefix started arriving but before the body completed — yields a
    /// typed [`WireError::Truncated`], distinguishable from the clean
    /// between-frames close (plain [`ProtoError::Io`] with
    /// `UnexpectedEof`). Either way nothing of the partial frame is ever
    /// surfaced, so a dying connection cannot mutate session state.
    pub fn read_from_limited(
        r: &mut impl Read,
        keep_waiting: &mut dyn FnMut() -> bool,
        max_frame: u32,
    ) -> Result<Frame, ProtoError> {
        Frame::read_into(r, keep_waiting, max_frame, &mut Vec::new()).map(|(frame, _)| frame)
    }

    /// [`read_from_limited`](Frame::read_from_limited) into `body`, a
    /// buffer the caller reuses from frame to frame. Returns the frame
    /// and, for `Events`, the batch's bytes as received (see
    /// [`Frame::decode`]), borrowed from `body`.
    pub(crate) fn read_into<'b>(
        r: &mut impl Read,
        keep_waiting: &mut dyn FnMut() -> bool,
        max_frame: u32,
        body: &'b mut Vec<u8>,
    ) -> Result<(Frame, &'b [u8]), ProtoError> {
        let max_frame = max_frame.min(MAX_FRAME);
        let mut len = [0u8; 4];
        match read_full(r, &mut len, keep_waiting) {
            Ok(()) => {}
            // EOF with part of the length prefix already read is a
            // mid-frame death, not a clean close.
            Err(ReadFullError::Eof { filled }) if filled > 0 => {
                return Err(WireError::Truncated { needed: 4, have: filled }.into())
            }
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len);
        if len == 0 {
            return Err(WireError::Truncated { needed: 1, have: 0 }.into());
        }
        if len > max_frame {
            return Err(
                WireError::Oversize { what: "frame", len: len as u64, max: max_frame as u64 }
                    .into(),
            );
        }
        body.clear();
        body.resize(len as usize, 0);
        match read_full(r, body, keep_waiting) {
            Ok(()) => {}
            Err(ReadFullError::Eof { filled }) => {
                return Err(WireError::Truncated { needed: len as usize, have: filled }.into())
            }
            Err(e) => return Err(e.into()),
        }
        Frame::decode(body[0], &body[1..])
    }
}

/// Type byte of an `Events` frame.
const EVENTS: u8 = 0x02;

/// Append one frame to `out`: the length, the type byte, then the
/// payload that `put` writes in place.
fn put_frame(out: &mut Vec<u8>, ty: u8, put: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(ty);
    put(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// An `Events` payload: the count-prefixed batch, then the span-context
/// tag (and the context when the tag is 1).
fn put_events_payload(out: &mut Vec<u8>, events: &[TraceEvent], ctx: Option<SpanContext>) {
    wire::put_events(out, events);
    match ctx {
        Some(ctx) => {
            out.push(1);
            wire::put_span_context(out, ctx);
        }
        None => out.push(0),
    }
}

/// Append the bytes of `Frame::Events { events, ctx }` to `out`, encoding
/// the borrowed batch in place.
pub(crate) fn put_events_frame(out: &mut Vec<u8>, events: &[TraceEvent], ctx: Option<SpanContext>) {
    put_frame(out, EVENTS, |out| put_events_payload(out, events, ctx));
}

/// Why [`read_full`] stopped short of filling its buffer.
enum ReadFullError {
    /// The peer closed the stream with `filled` of the wanted bytes read.
    Eof { filled: usize },
    /// A hard transport error.
    Io(std::io::Error),
    /// `keep_waiting` asked to stop.
    ShuttingDown,
}

impl From<ReadFullError> for ProtoError {
    fn from(e: ReadFullError) -> ProtoError {
        match e {
            ReadFullError::Eof { .. } => ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            )),
            ReadFullError::Io(e) => ProtoError::Io(e),
            ReadFullError::ShuttingDown => ProtoError::ShuttingDown,
        }
    }
}

/// `read_exact` that tolerates read timeouts while `keep_waiting()` holds.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    keep_waiting: &mut dyn FnMut() -> bool,
) -> Result<(), ReadFullError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ReadFullError::Eof { filled }),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if !keep_waiting() {
                    return Err(ReadFullError::ShuttingDown);
                }
            }
            Err(e) => return Err(ReadFullError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) -> Frame {
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).unwrap();
        let mut cursor = std::io::Cursor::new(bytes);
        Frame::read_from(&mut cursor, &mut || true).unwrap()
    }

    #[test]
    fn control_frames_round_trip() {
        for f in [
            Frame::Hello { version: WIRE_VERSION, resume: None },
            Frame::Hello { version: WIRE_VERSION, resume: Some(42) },
            Frame::Finish,
            Frame::Stats,
            Frame::Shutdown,
            Frame::Metrics,
            Frame::HelloAck { version: 1, session: 99, events: 4096 },
            Frame::EventsAck { accepted: 512 },
            Frame::Ok,
            Frame::Error { message: "no session open".into() },
            Frame::MetricsReply("# TYPE arbalest_server_events_received_total counter\n".into()),
        ] {
            assert_eq!(round_trip(f.clone()), f);
        }
    }

    #[test]
    fn events_frames_round_trip_with_and_without_ctx() {
        let ctx = SpanContext { trace: 77u128 << 64 | 5, span: 9, parent: 2 };
        for f in [
            Frame::Events { events: vec![], ctx: None },
            Frame::Events { events: vec![], ctx: Some(ctx) },
        ] {
            assert_eq!(round_trip(f.clone()), f);
        }
    }

    #[test]
    fn tagless_hello_and_events_payloads_are_truncated() {
        // A Hello without its resume tag (two version bytes) and an
        // Events frame without its ctx tag (just the count-prefixed
        // batch) both stop one byte short of a frame.
        for (ty, payload) in
            [(0x01, WIRE_VERSION.to_le_bytes().to_vec()), (0x02, wire::encode_events(&[]))]
        {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
            bytes.push(ty);
            bytes.extend_from_slice(&payload);
            let err = Frame::read_from(&mut std::io::Cursor::new(bytes), &mut || true).unwrap_err();
            assert!(
                matches!(err, ProtoError::Wire(WireError::Truncated { .. })),
                "type {ty:#04x}: {err:?}"
            );
        }
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let snap = StatsSnapshot {
            sessions_started: 10,
            sessions_finished: 8,
            events_received: 12345,
            reports_by_kind: [1, 2, 3, 4, 5, 6, 7],
        };
        assert_eq!(snap.sessions_active(), 2);
        assert_eq!(round_trip(Frame::StatsReply(snap.clone())), Frame::StatsReply(snap));
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        bytes.push(0x01);
        let mut cursor = std::io::Cursor::new(bytes);
        let err = Frame::read_from(&mut cursor, &mut || true).unwrap_err();
        assert!(matches!(err, ProtoError::Wire(WireError::Oversize { .. })), "{err:?}");
    }

    #[test]
    fn session_failed_frames_round_trip() {
        for failure in [
            SessionFailure::ShardPanic { message: "boom".into() },
            SessionFailure::BudgetExceeded { used_bytes: 2048, budget_bytes: 1024 },
            SessionFailure::IdleTimeout { limit_ms: 5000 },
            SessionFailure::DeadlineExceeded { limit_ms: 250 },
        ] {
            let f = Frame::SessionFailed(failure);
            assert_eq!(round_trip(f.clone()), f);
        }
    }

    #[test]
    fn per_instance_frame_limit_is_enforced_below_the_protocol_cap() {
        let mut bytes = Vec::new();
        Frame::MetricsReply("x".repeat(4096)).write_to(&mut bytes).unwrap();
        let mut cursor = std::io::Cursor::new(&bytes);
        let err = Frame::read_from_limited(&mut cursor, &mut || true, 1024).unwrap_err();
        assert!(
            matches!(err, ProtoError::Wire(WireError::Oversize { max: 1024, .. })),
            "{err:?}"
        );
        // The same bytes pass under the default cap.
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(Frame::read_from(&mut cursor, &mut || true).is_ok());
    }

    #[test]
    fn mid_frame_disconnect_is_a_typed_truncation() {
        // Cut the stream at every byte offset inside a frame: each must
        // yield Truncated, never a hang or a decoded frame.
        let mut bytes = Vec::new();
        Frame::HelloAck { version: 1, session: 2, events: 3 }.write_to(&mut bytes).unwrap();
        for cut in 1..bytes.len() {
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            let err = Frame::read_from(&mut cursor, &mut || true).unwrap_err();
            assert!(
                matches!(err, ProtoError::Wire(WireError::Truncated { .. })),
                "cut at {cut}: {err:?}"
            );
        }
        // A clean close *between* frames stays a plain EOF, so callers can
        // tell orderly hangup from mid-frame death.
        let mut cursor = std::io::Cursor::new(&[][..]);
        let err = Frame::read_from(&mut cursor, &mut || true).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_and_trailing_frames_are_typed_errors() {
        let mut bytes = Vec::new();
        Frame::EventsAck { accepted: 1 }.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 2);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(Frame::read_from(&mut cursor, &mut || true).is_err());

        // A frame whose payload is longer than its type demands.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&6u32.to_le_bytes());
        bytes.push(0x82); // EventsAck wants 4 payload bytes, gets 5
        bytes.extend_from_slice(&[0, 0, 0, 0, 0]);
        let mut cursor = std::io::Cursor::new(&bytes);
        let err = Frame::read_from(&mut cursor, &mut || true).unwrap_err();
        assert!(matches!(err, ProtoError::Wire(WireError::TrailingBytes { .. })), "{err:?}");
    }
}
