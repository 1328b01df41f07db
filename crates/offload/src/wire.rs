//! Binary wire serialization for trace events and reports.
//!
//! The analysis service (`arbalest-serve`) moves [`TraceEvent`] streams and
//! [`Report`] lists between processes. This module is the single place
//! their byte layout is defined: little-endian fixed-width integers,
//! length-prefixed UTF-8 strings, one tag byte per enum. Everything is
//! hand-rolled over `std` (the workspace builds hermetically — no serde),
//! and decoding is *total*: any byte sequence either yields a value or a
//! typed [`WireError`], never a panic and never an attempt to allocate
//! more than a declared, bounds-checked length.
//!
//! Source locations travel as `(file, line, column)` triples and are
//! re-interned on decode ([`SrcLoc::intern`]), so a report rendered from a
//! decoded trace is byte-identical to one rendered in the recording
//! process. The decoder borrows each file name from the input
//! ([`Cursor::str`]), so while consecutive locations name the same file,
//! decoding one takes no lock and allocates nothing.

use crate::addr::DeviceId;
use crate::buffer::{BufferId, BufferInfo};
use crate::events::{
    AccessEvent, ConstructEvent, DataOpEvent, DataOpKind, SrcLoc, SyncEvent, TaskId,
    TransferEvent, TransferKind,
};
use crate::report::{PrevAccess, ProvenanceStep, Report, ReportKind};
use crate::trace::TraceEvent;
use std::fmt;

/// Magic prefix of a serialized trace file (`arbalest record`).
pub const TRACE_MAGIC: [u8; 4] = *b"ABTR";

/// Version of a trace file's layout: the event encoding behind
/// [`TRACE_MAGIC`]. Bump on any change to the event layout (the service
/// protocol's own version, `arbalest_server::WIRE_VERSION`, then moves too).
pub const TRACE_VERSION: u16 = 1;

/// Longest string (buffer name, message, file path) a decoder will
/// allocate. Anything larger is rejected before allocation.
pub const MAX_STRING: u32 = 1 << 20;

/// Largest element count (events in a batch, reports in a list) a decoder
/// accepts from a length prefix.
pub const MAX_COUNT: u32 = 1 << 24;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a field's declared extent.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// An enum tag byte outside the variant range.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A length prefix exceeded its sanity bound.
    Oversize {
        /// Which field declared the length.
        what: &'static str,
        /// Declared length.
        len: u64,
        /// Permitted maximum.
        max: u64,
    },
    /// A trace file did not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The peer (or file) speaks a different layout version.
    Version {
        /// Version found in the stream.
        got: u16,
        /// Version this build understands.
        want: u16,
    },
    /// Trailing bytes after a complete value where none are allowed.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, {have} left")
            }
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Oversize { what, len, max } => {
                write!(f, "{what} length {len} exceeds the {max}-byte bound")
            }
            WireError::BadMagic => write!(f, "not an arbalest trace (bad magic)"),
            WireError::Version { got, want } => {
                write!(f, "wire version {got} (this build speaks {want})")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
        }
    }
}

impl WireError {
    /// Stable snake_case label of the variant, used as the `error` label
    /// on the server's decode-error counters.
    pub fn label(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::BadTag { .. } => "bad_tag",
            WireError::BadUtf8 => "bad_utf8",
            WireError::Oversize { .. } => "oversize",
            WireError::BadMagic => "bad_magic",
            WireError::Version { .. } => "version",
            WireError::TrailingBytes { .. } => "trailing_bytes",
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked read position over a byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a strict boolean (0 or 1; anything else is a [`WireError::BadTag`]).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }

    /// Read a `u32`-length-prefixed UTF-8 string (bounded by [`MAX_STRING`])
    /// in place: the result borrows the input, and nothing is allocated.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()?;
        if len > MAX_STRING {
            return Err(WireError::Oversize { what: "string", len: len as u64, max: MAX_STRING as u64 });
        }
        std::str::from_utf8(self.take(len as usize)?).map_err(|_| WireError::BadUtf8)
    }

    /// [`Cursor::str`], copied into an owned `String`.
    pub fn string(&mut self) -> Result<String, WireError> {
        self.str().map(str::to_owned)
    }

    /// Read an element count prefix (bounded by [`MAX_COUNT`]).
    pub fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32()?;
        if n > MAX_COUNT {
            return Err(WireError::Oversize { what, len: n as u64, max: MAX_COUNT as u64 });
        }
        Ok(n as usize)
    }
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_loc(out: &mut Vec<u8>, loc: SrcLoc) {
    put_str(out, loc.file);
    put_u32(out, loc.line);
    put_u32(out, loc.column);
}

fn get_loc(cur: &mut Cursor<'_>) -> Result<SrcLoc, WireError> {
    let file = cur.str()?;
    let line = cur.u32()?;
    let column = cur.u32()?;
    Ok(SrcLoc::intern(file, line, column))
}

fn put_buffer_info(out: &mut Vec<u8>, info: &BufferInfo) {
    put_u32(out, info.id.0);
    put_str(out, &info.name);
    put_u64(out, info.elem_size as u64);
    put_u64(out, info.len as u64);
    put_u64(out, info.ov_base);
}

fn get_buffer_info(cur: &mut Cursor<'_>) -> Result<BufferInfo, WireError> {
    Ok(BufferInfo {
        id: BufferId(cur.u32()?),
        name: cur.string()?,
        elem_size: cur.u64()? as usize,
        len: cur.u64()? as usize,
        ov_base: cur.u64()?,
    })
}

fn transfer_kind_tag(kind: TransferKind) -> u8 {
    match kind {
        TransferKind::ToDevice => 0,
        TransferKind::FromDevice => 1,
        TransferKind::DeviceToDevice => 2,
    }
}

fn transfer_kind(tag: u8) -> Result<TransferKind, WireError> {
    Ok(match tag {
        0 => TransferKind::ToDevice,
        1 => TransferKind::FromDevice,
        2 => TransferKind::DeviceToDevice,
        tag => return Err(WireError::BadTag { what: "TransferKind", tag }),
    })
}

/// Serialize one event.
pub fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    match ev {
        TraceEvent::BufferRegistered(info) => {
            out.push(0);
            put_buffer_info(out, info);
        }
        TraceEvent::HostFree(info) => {
            out.push(1);
            put_buffer_info(out, info);
        }
        TraceEvent::PoolAlloc { device, base, len } => {
            out.push(2);
            put_u16(out, device.0);
            put_u64(out, *base);
            put_u64(out, *len);
        }
        TraceEvent::DataOp(e) => {
            out.push(3);
            put_u16(out, e.device.0);
            put_u32(out, e.buffer.0);
            out.push(match e.kind {
                DataOpKind::CvAlloc => 0,
                DataOpKind::CvDelete => 1,
            });
            put_u64(out, e.cv_base);
            put_u64(out, e.ov_addr);
            put_u64(out, e.len);
            put_bool(out, e.plugin_visible);
            put_u32(out, e.task.0);
        }
        TraceEvent::Transfer(e) => {
            out.push(4);
            put_u32(out, e.buffer.0);
            out.push(transfer_kind_tag(e.kind));
            put_u16(out, e.src_device.0);
            put_u64(out, e.src_addr);
            put_u16(out, e.dst_device.0);
            put_u64(out, e.dst_addr);
            put_u64(out, e.len);
            put_u32(out, e.task.0);
            put_bool(out, e.staged);
            put_bool(out, e.unified);
        }
        TraceEvent::Access(e) => {
            out.push(5);
            put_u16(out, e.device.0);
            put_u64(out, e.addr);
            put_u64(out, e.size as u64);
            put_bool(out, e.is_write);
            put_u32(out, e.task.0);
            match e.buffer {
                Some(b) => {
                    out.push(1);
                    put_u32(out, b.0);
                }
                None => out.push(0),
            }
            put_bool(out, e.mapped);
            put_bool(out, e.atomic);
            put_loc(out, e.loc);
        }
        TraceEvent::Sync(e) => {
            out.push(6);
            match e {
                SyncEvent::TaskCreate { parent, child } => {
                    out.push(0);
                    put_u32(out, parent.0);
                    put_u32(out, child.0);
                }
                SyncEvent::TaskEnd { task } => {
                    out.push(1);
                    put_u32(out, task.0);
                }
                SyncEvent::TaskJoin { waiter, joined } => {
                    out.push(2);
                    put_u32(out, waiter.0);
                    put_u32(out, joined.0);
                }
                SyncEvent::Acquire { task, lock } => {
                    out.push(3);
                    put_u32(out, task.0);
                    put_u64(out, *lock);
                }
                SyncEvent::Release { task, lock } => {
                    out.push(4);
                    put_u32(out, task.0);
                    put_u64(out, *lock);
                }
            }
        }
        TraceEvent::Construct(e) => {
            out.push(7);
            match e {
                ConstructEvent::TargetBegin { task, device, nowait } => {
                    out.push(0);
                    put_u32(out, task.0);
                    put_u16(out, device.0);
                    put_bool(out, *nowait);
                }
                ConstructEvent::TargetEnd { task } => {
                    out.push(1);
                    put_u32(out, task.0);
                }
            }
        }
    }
}

/// Decode one event from the cursor.
pub fn decode_event(cur: &mut Cursor<'_>) -> Result<TraceEvent, WireError> {
    Ok(match cur.u8()? {
        0 => TraceEvent::BufferRegistered(get_buffer_info(cur)?),
        1 => TraceEvent::HostFree(get_buffer_info(cur)?),
        2 => TraceEvent::PoolAlloc {
            device: DeviceId(cur.u16()?),
            base: cur.u64()?,
            len: cur.u64()?,
        },
        3 => TraceEvent::DataOp(DataOpEvent {
            device: DeviceId(cur.u16()?),
            buffer: BufferId(cur.u32()?),
            kind: match cur.u8()? {
                0 => DataOpKind::CvAlloc,
                1 => DataOpKind::CvDelete,
                tag => return Err(WireError::BadTag { what: "DataOpKind", tag }),
            },
            cv_base: cur.u64()?,
            ov_addr: cur.u64()?,
            len: cur.u64()?,
            plugin_visible: cur.bool()?,
            task: TaskId(cur.u32()?),
        }),
        4 => TraceEvent::Transfer(TransferEvent {
            buffer: BufferId(cur.u32()?),
            kind: transfer_kind(cur.u8()?)?,
            src_device: DeviceId(cur.u16()?),
            src_addr: cur.u64()?,
            dst_device: DeviceId(cur.u16()?),
            dst_addr: cur.u64()?,
            len: cur.u64()?,
            task: TaskId(cur.u32()?),
            staged: cur.bool()?,
            unified: cur.bool()?,
        }),
        5 => TraceEvent::Access(AccessEvent {
            device: DeviceId(cur.u16()?),
            addr: cur.u64()?,
            size: cur.u64()? as usize,
            is_write: cur.bool()?,
            task: TaskId(cur.u32()?),
            buffer: match cur.u8()? {
                0 => None,
                1 => Some(BufferId(cur.u32()?)),
                tag => return Err(WireError::BadTag { what: "Option<BufferId>", tag }),
            },
            mapped: cur.bool()?,
            atomic: cur.bool()?,
            loc: get_loc(cur)?,
        }),
        6 => TraceEvent::Sync(match cur.u8()? {
            0 => SyncEvent::TaskCreate { parent: TaskId(cur.u32()?), child: TaskId(cur.u32()?) },
            1 => SyncEvent::TaskEnd { task: TaskId(cur.u32()?) },
            2 => SyncEvent::TaskJoin { waiter: TaskId(cur.u32()?), joined: TaskId(cur.u32()?) },
            3 => SyncEvent::Acquire { task: TaskId(cur.u32()?), lock: cur.u64()? },
            4 => SyncEvent::Release { task: TaskId(cur.u32()?), lock: cur.u64()? },
            tag => return Err(WireError::BadTag { what: "SyncEvent", tag }),
        }),
        7 => TraceEvent::Construct(match cur.u8()? {
            0 => ConstructEvent::TargetBegin {
                task: TaskId(cur.u32()?),
                device: DeviceId(cur.u16()?),
                nowait: cur.bool()?,
            },
            1 => ConstructEvent::TargetEnd { task: TaskId(cur.u32()?) },
            tag => return Err(WireError::BadTag { what: "ConstructEvent", tag }),
        }),
        tag => return Err(WireError::BadTag { what: "TraceEvent", tag }),
    })
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn get_opt_str(cur: &mut Cursor<'_>) -> Result<Option<String>, WireError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.string()?)),
        tag => Err(WireError::BadTag { what: "Option<String>", tag }),
    }
}

/// Number of [`ReportKind`] variants. Sizes every per-kind counter array
/// (server stats, wire snapshots); a kind's tag is its index in
/// [`ReportKind::ALL`], so the tags stay a bijection over
/// `0..REPORT_KIND_COUNT` as kinds are added.
pub const REPORT_KIND_COUNT: usize = ReportKind::ALL.len();

/// Stable tag byte of a [`ReportKind`]: its index in [`ReportKind::ALL`]
/// (also the index used by the server's per-kind report counters).
pub fn report_kind_tag(kind: ReportKind) -> u8 {
    ReportKind::ALL.iter().position(|&k| k == kind).expect("ReportKind::ALL lists every kind") as u8
}

/// Decode a [`ReportKind`] tag byte.
pub fn report_kind(tag: u8) -> Result<ReportKind, WireError> {
    ReportKind::ALL
        .get(usize::from(tag))
        .copied()
        .ok_or(WireError::BadTag { what: "ReportKind", tag })
}

/// Serialize one report.
pub fn encode_report(r: &Report, out: &mut Vec<u8>) {
    put_str(out, r.tool);
    out.push(report_kind_tag(r.kind));
    put_str(out, &r.message);
    put_opt_str(out, &r.buffer);
    put_u16(out, r.device.0);
    put_u64(out, r.addr);
    put_u64(out, r.size as u64);
    match r.loc {
        Some(loc) => {
            out.push(1);
            put_loc(out, loc);
        }
        None => out.push(0),
    }
    match r.prev {
        Some(p) => {
            out.push(1);
            put_u16(out, p.tid);
            put_u64(out, p.clock);
            put_bool(out, p.is_write);
        }
        None => out.push(0),
    }
    put_opt_str(out, &r.suggested_fix);
    // Trailing provenance extension (introduced with the explainable
    // diagnostics work). The tag byte is always present; old decoders
    // never saw report bytes followed by trailing data because reports
    // only ride inside count-prefixed lists that are themselves the last
    // field of their frame, so growing the record here is safe at a
    // wire-version bump boundary.
    if r.provenance.is_empty() {
        out.push(0);
    } else {
        out.push(1);
        put_u32(out, r.provenance.len() as u32);
        for step in &r.provenance {
            put_str(out, &step.op);
            put_str(out, &step.from);
            put_str(out, &step.to);
            match step.loc {
                Some(loc) => {
                    out.push(1);
                    put_loc(out, loc);
                }
                None => out.push(0),
            }
            put_u16(out, step.tid);
            put_u64(out, step.clock);
        }
    }
}

/// Decode one report. The tool name is re-interned so the decoded report
/// keeps the `&'static str` field of the original.
pub fn decode_report(cur: &mut Cursor<'_>) -> Result<Report, WireError> {
    // Tool names come from a tiny closed set per build; interning through
    // the SrcLoc file table gives them back 'static lifetime without a
    // per-report leak.
    let tool = SrcLoc::intern(cur.str()?, 0, 0).file;
    Ok(Report {
        tool,
        kind: report_kind(cur.u8()?)?,
        message: cur.string()?,
        buffer: get_opt_str(cur)?,
        device: DeviceId(cur.u16()?),
        addr: cur.u64()?,
        size: cur.u64()? as usize,
        loc: match cur.u8()? {
            0 => None,
            1 => Some(get_loc(cur)?),
            tag => return Err(WireError::BadTag { what: "Option<SrcLoc>", tag }),
        },
        prev: match cur.u8()? {
            0 => None,
            1 => Some(PrevAccess { tid: cur.u16()?, clock: cur.u64()?, is_write: cur.bool()? }),
            tag => return Err(WireError::BadTag { what: "Option<PrevAccess>", tag }),
        },
        suggested_fix: get_opt_str(cur)?,
        provenance: match cur.u8()? {
            0 => Vec::new(),
            1 => {
                let n = cur.count("provenance chain")?;
                let mut steps = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    steps.push(ProvenanceStep {
                        op: cur.string()?,
                        from: cur.string()?,
                        to: cur.string()?,
                        loc: match cur.u8()? {
                            0 => None,
                            1 => Some(get_loc(cur)?),
                            tag => {
                                return Err(WireError::BadTag { what: "Option<SrcLoc>", tag })
                            }
                        },
                        tid: cur.u16()?,
                        clock: cur.u64()?,
                    });
                }
                steps
            }
            tag => return Err(WireError::BadTag { what: "provenance", tag }),
        },
    })
}

/// Serialize a count-prefixed event batch.
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    put_events(&mut out, events);
    out
}

/// Append a count-prefixed event batch ([`encode_events`]'s bytes) to
/// `out`.
pub fn put_events(out: &mut Vec<u8>, events: &[TraceEvent]) {
    out.reserve(16 + events.len() * 48);
    put_u32(out, events.len() as u32);
    for ev in events {
        encode_event(ev, out);
    }
}

/// Decode a count-prefixed event batch.
pub fn decode_events(cur: &mut Cursor<'_>) -> Result<Vec<TraceEvent>, WireError> {
    let n = cur.count("event batch")?;
    let mut events = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        events.push(decode_event(cur)?);
    }
    Ok(events)
}

/// Serialize a count-prefixed report list.
pub fn encode_reports(reports: &[Report]) -> Vec<u8> {
    let mut out = Vec::new();
    put_reports(&mut out, reports);
    out
}

/// Append a count-prefixed report list ([`encode_reports`]'s bytes) to
/// `out`.
pub fn put_reports(out: &mut Vec<u8>, reports: &[Report]) {
    put_u32(out, reports.len() as u32);
    for r in reports {
        encode_report(r, out);
    }
}

/// Decode a count-prefixed report list.
pub fn decode_reports(cur: &mut Cursor<'_>) -> Result<Vec<Report>, WireError> {
    let n = cur.count("report list")?;
    let mut reports = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        reports.push(decode_report(cur)?);
    }
    Ok(reports)
}

/// Serialize a [`SpanContext`](arbalest_obs::SpanContext): the 128-bit
/// trace id as two little-endian u64 halves (high first), then the span
/// and parent ids.
pub fn put_span_context(out: &mut Vec<u8>, ctx: arbalest_obs::SpanContext) {
    put_u64(out, (ctx.trace >> 64) as u64);
    put_u64(out, ctx.trace as u64);
    put_u64(out, ctx.span);
    put_u64(out, ctx.parent);
}

/// Decode a [`SpanContext`](arbalest_obs::SpanContext).
pub fn get_span_context(cur: &mut Cursor<'_>) -> Result<arbalest_obs::SpanContext, WireError> {
    let hi = cur.u64()?;
    let lo = cur.u64()?;
    Ok(arbalest_obs::SpanContext {
        trace: (hi as u128) << 64 | lo as u128,
        span: cur.u64()?,
        parent: cur.u64()?,
    })
}

/// Serialize a whole trace as a standalone file: magic, version, events.
pub fn encode_trace(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&TRACE_MAGIC);
    put_u16(&mut out, TRACE_VERSION);
    put_events(&mut out, events);
    out
}

/// Decode a standalone trace file, rejecting bad magic, foreign versions,
/// and trailing garbage.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceEvent>, WireError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(4)? != TRACE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u16()?;
    if version != TRACE_VERSION {
        return Err(WireError::Version { got: version, want: TRACE_VERSION });
    }
    let events = decode_events(&mut cur)?;
    if !cur.is_empty() {
        return Err(WireError::TrailingBytes { extra: cur.remaining() });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip() {
        let mut out = Vec::new();
        put_str(&mut out, "héllo");
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.string().unwrap(), "héllo");
        assert!(cur.is_empty());
    }

    #[test]
    fn oversize_string_is_rejected_before_allocation() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        let err = Cursor::new(&out).string().unwrap_err();
        assert!(matches!(err, WireError::Oversize { what: "string", .. }));
    }

    #[test]
    fn borrowed_and_owned_strings_fail_alike() {
        let with_prefix = |len: u32, bytes: &[u8]| {
            let mut out = len.to_le_bytes().to_vec();
            out.extend_from_slice(bytes);
            out
        };
        let cases = [
            (vec![3, 0], WireError::Truncated { needed: 4, have: 2 }),
            (with_prefix(5, b"abc"), WireError::Truncated { needed: 5, have: 3 }),
            (
                with_prefix(MAX_STRING + 1, b""),
                WireError::Oversize {
                    what: "string",
                    len: MAX_STRING as u64 + 1,
                    max: MAX_STRING as u64,
                },
            ),
            (with_prefix(2, &[0xC3, 0x28]), WireError::BadUtf8),
        ];
        for (bytes, err) in cases {
            assert_eq!(Cursor::new(&bytes).str(), Err(err.clone()));
            assert_eq!(Cursor::new(&bytes).string(), Err(err));
        }
        let ok = with_prefix(2, "é".as_bytes());
        assert_eq!(Cursor::new(&ok).str(), Ok("é"));
    }

    #[test]
    fn trace_header_is_checked() {
        assert_eq!(decode_trace(b"NOPE"), Err(WireError::BadMagic));
        let mut bytes = encode_trace(&[]);
        bytes[4] = 0xFF; // forge the version
        assert!(matches!(decode_trace(&bytes), Err(WireError::Version { .. })));
        let mut bytes = encode_trace(&[]);
        bytes.push(0);
        assert_eq!(decode_trace(&bytes), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn report_kind_tags_are_a_bijection_over_the_count() {
        // Every kind's tag indexes ReportKind::ALL back to itself, so a
        // per-kind counter array of REPORT_KIND_COUNT cells can never be
        // indexed out of range or silently alias two kinds.
        for (i, &kind) in ReportKind::ALL.iter().enumerate() {
            assert_eq!(report_kind_tag(kind) as usize, i, "{kind:?}");
            assert_eq!(report_kind(i as u8), Ok(kind));
        }
        // The first tag past the table must be rejected.
        assert!(matches!(
            report_kind(REPORT_KIND_COUNT as u8),
            Err(WireError::BadTag { what: "ReportKind", .. })
        ));
    }

    #[test]
    fn report_provenance_round_trips() {
        let mut r = Report {
            tool: "arbalest",
            kind: ReportKind::MappingUsd,
            message: "stale read".into(),
            buffer: Some("a".into()),
            device: DeviceId::HOST,
            addr: 0x1000,
            size: 8,
            loc: Some(SrcLoc::intern("a.c", 30, 3)),
            prev: None,
            suggested_fix: None,
            provenance: Vec::new(),
        };
        // Empty chain: one tag byte, decodes back to empty.
        let mut bytes = Vec::new();
        encode_report(&r, &mut bytes);
        let mut cur = Cursor::new(&bytes);
        let back = decode_report(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back, r);

        r.provenance = vec![
            ProvenanceStep {
                op: "update_target".into(),
                from: "host".into(),
                to: "consistent".into(),
                loc: Some(SrcLoc::intern("a.c", 12, 1)),
                tid: 0,
                clock: 3,
            },
            ProvenanceStep {
                op: "write_target".into(),
                from: "consistent".into(),
                to: "target".into(),
                loc: None,
                tid: 2,
                clock: 9,
            },
        ];
        let mut bytes = Vec::new();
        encode_report(&r, &mut bytes);
        let mut cur = Cursor::new(&bytes);
        let back = decode_report(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back, r);

        // A bad provenance tag is a typed error, not a panic.
        let last = bytes.len() - 1;
        let cut = &bytes[..last - 2]; // strip clock tail, corrupt mid-chain
        assert!(decode_report(&mut Cursor::new(cut)).is_err());
        let _ = last;
    }

    #[test]
    fn span_context_round_trips() {
        let ctx = arbalest_obs::SpanContext {
            trace: u128::MAX - 5,
            span: u64::MAX - 1,
            parent: 42,
        };
        let mut out = Vec::new();
        put_span_context(&mut out, ctx);
        let mut cur = Cursor::new(&out);
        assert_eq!(get_span_context(&mut cur).unwrap(), ctx);
        assert!(cur.is_empty());
    }

    #[test]
    fn wire_error_labels_are_distinct() {
        let labels = [
            WireError::Truncated { needed: 1, have: 0 }.label(),
            WireError::BadTag { what: "x", tag: 0 }.label(),
            WireError::BadUtf8.label(),
            WireError::Oversize { what: "x", len: 1, max: 0 }.label(),
            WireError::BadMagic.label(),
            WireError::Version { got: 0, want: 1 }.label(),
            WireError::TrailingBytes { extra: 1 }.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
