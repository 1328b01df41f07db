//! Versioned binary snapshot format for [`SessionSnapshot`].
//!
//! Layout (all integers little-endian, strings/collections in the PR-2
//! wire idiom of u32 counts + UTF-8 bytes):
//!
//! ```text
//! magic "ABSS" | version:u16 | events:u64
//! accelerators:u16 | check_races:bool | lookup_cache:bool
//! max_reports:u64 | degraded:bool
//! shadow_pages  : count | { idx:u64, cells: count + u64* }*
//! intervals     : count | { lo:u64, hi:u64, buffer:u32, ov_addr:u64 }*
//! buffers       : count | { id:u32, name:str, elem:u64, len:u64, ov:u64 }*
//! reports       : wire::encode_reports
//! seen          : count | { kind:u8, buffer:0|1+u32, file:str, line:u32 }*
//! race          : 0 | 1 + race-engine state (tasks, slot pool, locs, locks)
//! crc32 over everything above
//! ```
//!
//! The trailer CRC is verified *before* any field decoding, so a
//! truncated or bit-flipped snapshot fails typed ([`StoreError::Crc`])
//! rather than decoding into plausible-but-wrong state.

use crate::crc::crc32;
use crate::StoreError;
use arbalest_core::{CvInterval, DetectorSnapshot, SeenKey, SessionSnapshot};
use arbalest_offload::buffer::{BufferId, BufferInfo};
use arbalest_offload::wire::{self, Cursor, WireError};
use arbalest_race::{LocSnapshot, RaceSnapshot, ReadSnapshot, TaskSnapshot};

/// Magic prefix of a snapshot file.
pub const SNAP_MAGIC: [u8; 4] = *b"ABSS";

/// Version of the snapshot layout. Bump on any layout change. Version 2
/// carries race tasks' own clocks and released flags, the recycled-slot
/// pool, and shared reads as one (slot, clock, byte mask) per reader.
pub const SNAP_VERSION: u16 = 2;

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

fn put_clock(out: &mut Vec<u8>, slots: &[u64]) {
    put_u32(out, slots.len() as u32);
    for &s in slots {
        put_u64(out, s);
    }
}

fn clock(cur: &mut Cursor<'_>) -> Result<Vec<u64>, WireError> {
    let n = cur.count("clock slots")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.u64()?);
    }
    Ok(out)
}

/// Serialize a session snapshot to its on-disk / on-wire bytes.
pub fn encode_session_snapshot(snap: &SessionSnapshot) -> Vec<u8> {
    let d = &snap.detector;
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&SNAP_MAGIC);
    put_u16(&mut out, SNAP_VERSION);
    put_u64(&mut out, snap.events);
    put_u16(&mut out, d.accelerators);
    put_bool(&mut out, d.check_races);
    put_bool(&mut out, d.lookup_cache);
    put_u64(&mut out, d.max_reports);
    put_bool(&mut out, d.degraded);

    put_u32(&mut out, d.shadow_pages.len() as u32);
    for (idx, cells) in &d.shadow_pages {
        put_u64(&mut out, *idx);
        put_clock(&mut out, cells);
    }

    put_u32(&mut out, d.intervals.len() as u32);
    for iv in &d.intervals {
        put_u64(&mut out, iv.lo);
        put_u64(&mut out, iv.hi);
        put_u32(&mut out, iv.buffer);
        put_u64(&mut out, iv.ov_addr);
    }

    put_u32(&mut out, d.buffers.len() as u32);
    for b in &d.buffers {
        put_u32(&mut out, b.id.0);
        wire::put_str(&mut out, &b.name);
        put_u64(&mut out, b.elem_size as u64);
        put_u64(&mut out, b.len as u64);
        put_u64(&mut out, b.ov_base);
    }

    wire::put_reports(&mut out, &d.reports);

    put_u32(&mut out, d.seen.len() as u32);
    for k in &d.seen {
        out.push(wire::report_kind_tag(k.kind));
        match k.buffer {
            None => out.push(0),
            Some(id) => {
                out.push(1);
                put_u32(&mut out, id);
            }
        }
        wire::put_str(&mut out, &k.file);
        put_u32(&mut out, k.line);
    }

    match &d.race {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_u32(&mut out, r.tasks.len() as u32);
            for t in &r.tasks {
                put_u32(&mut out, t.task);
                put_u16(&mut out, t.tid);
                put_u64(&mut out, t.own);
                put_bool(&mut out, t.ended);
                put_bool(&mut out, t.released);
                put_clock(&mut out, &t.clock);
            }
            put_u32(&mut out, r.free_slots.len() as u32);
            for &(slot, last) in &r.free_slots {
                put_u16(&mut out, slot);
                put_u64(&mut out, last);
            }
            put_u32(&mut out, r.fresh_slots);
            put_u32(&mut out, r.locs.len() as u32);
            for (granule, loc) in &r.locs {
                put_u64(&mut out, *granule);
                put_u16(&mut out, loc.write_tid);
                put_u64(&mut out, loc.write_clock);
                out.push(loc.write_offset);
                out.push(loc.write_size);
                match &loc.read {
                    ReadSnapshot::Epoch { tid, clock, offset, size } => {
                        out.push(0);
                        put_u16(&mut out, *tid);
                        put_u64(&mut out, *clock);
                        out.push(*offset);
                        out.push(*size);
                    }
                    ReadSnapshot::Shared(reads) => {
                        out.push(1);
                        put_u32(&mut out, reads.len() as u32);
                        for &(tid, clock, mask) in reads {
                            put_u16(&mut out, tid);
                            put_u64(&mut out, clock);
                            out.push(mask);
                        }
                    }
                }
            }
            put_u32(&mut out, r.locks.len() as u32);
            for (lock, slots) in &r.locks {
                put_u64(&mut out, *lock);
                put_clock(&mut out, slots);
            }
        }
    }

    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode snapshot bytes, verifying the CRC trailer first and rejecting
/// trailing garbage. The inverse of [`encode_session_snapshot`].
pub fn decode_session_snapshot(bytes: &[u8]) -> Result<SessionSnapshot, StoreError> {
    if bytes.len() < 4 + 2 + 4 {
        return Err(StoreError::BadMagic);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc32(body);
    if expected != actual {
        return Err(StoreError::Crc { expected, actual });
    }
    if body[0..4] != SNAP_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut cur = Cursor::new(&body[4..]);
    let version = cur.u16()?;
    if version != SNAP_VERSION {
        return Err(StoreError::Version { got: version, want: SNAP_VERSION });
    }
    let events = cur.u64()?;
    let accelerators = cur.u16()?;
    let check_races = cur.bool()?;
    let lookup_cache = cur.bool()?;
    let max_reports = cur.u64()?;
    let degraded = cur.bool()?;

    let n = cur.count("shadow pages")?;
    let mut shadow_pages = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = cur.u64()?;
        let cells = clock(&mut cur)?;
        shadow_pages.push((idx, cells));
    }

    let n = cur.count("intervals")?;
    let mut intervals = Vec::with_capacity(n);
    for _ in 0..n {
        intervals.push(CvInterval {
            lo: cur.u64()?,
            hi: cur.u64()?,
            buffer: cur.u32()?,
            ov_addr: cur.u64()?,
        });
    }

    let n = cur.count("buffers")?;
    let mut buffers = Vec::with_capacity(n);
    for _ in 0..n {
        buffers.push(BufferInfo {
            id: BufferId(cur.u32()?),
            name: cur.string()?,
            elem_size: cur.u64()? as usize,
            len: cur.u64()? as usize,
            ov_base: cur.u64()?,
        });
    }

    let reports = wire::decode_reports(&mut cur)?;

    let n = cur.count("seen keys")?;
    let mut seen = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = wire::report_kind(cur.u8()?)?;
        let buffer = match cur.u8()? {
            0 => None,
            1 => Some(cur.u32()?),
            tag => return Err(StoreError::Wire(WireError::BadTag { what: "seen buffer", tag })),
        };
        seen.push(SeenKey { kind, buffer, file: cur.string()?, line: cur.u32()? });
    }

    let race = match cur.u8()? {
        0 => None,
        1 => {
            let n = cur.count("race tasks")?;
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                tasks.push(TaskSnapshot {
                    task: cur.u32()?,
                    tid: cur.u16()?,
                    own: cur.u64()?,
                    ended: cur.bool()?,
                    released: cur.bool()?,
                    clock: clock(&mut cur)?,
                });
            }
            let n = cur.count("free slots")?;
            let mut free_slots = Vec::with_capacity(n);
            for _ in 0..n {
                free_slots.push((cur.u16()?, cur.u64()?));
            }
            let fresh_slots = cur.u32()?;
            let n = cur.count("race locations")?;
            let mut locs = Vec::with_capacity(n);
            for _ in 0..n {
                let granule = cur.u64()?;
                let write_tid = cur.u16()?;
                let write_clock = cur.u64()?;
                let write_offset = cur.u8()?;
                let write_size = cur.u8()?;
                let read = match cur.u8()? {
                    0 => ReadSnapshot::Epoch {
                        tid: cur.u16()?,
                        clock: cur.u64()?,
                        offset: cur.u8()?,
                        size: cur.u8()?,
                    },
                    1 => {
                        let n = cur.count("shared reads")?;
                        let mut reads = Vec::with_capacity(n);
                        for _ in 0..n {
                            reads.push((cur.u16()?, cur.u64()?, cur.u8()?));
                        }
                        ReadSnapshot::Shared(reads)
                    }
                    tag => {
                        return Err(StoreError::Wire(WireError::BadTag { what: "read state", tag }))
                    }
                };
                locs.push((
                    granule,
                    LocSnapshot { write_tid, write_clock, write_offset, write_size, read },
                ));
            }
            let n = cur.count("race locks")?;
            let mut locks = Vec::with_capacity(n);
            for _ in 0..n {
                locks.push((cur.u64()?, clock(&mut cur)?));
            }
            Some(RaceSnapshot { tasks, free_slots, fresh_slots, locs, locks })
        }
        tag => return Err(StoreError::Wire(WireError::BadTag { what: "race state", tag })),
    };

    if !cur.is_empty() {
        return Err(StoreError::Wire(WireError::TrailingBytes { extra: cur.remaining() }));
    }

    Ok(SessionSnapshot {
        events,
        detector: DetectorSnapshot {
            accelerators,
            check_races,
            lookup_cache,
            max_reports,
            shadow_pages,
            intervals,
            buffers,
            reports,
            seen,
            degraded,
            race,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_core::{AnalysisSession, ArbalestConfig};
    use arbalest_offload::events::SyncEvent;
    use arbalest_offload::prelude::*;
    use arbalest_offload::trace::{TraceEvent, TraceRecorder};
    use std::sync::Arc;

    fn dracc_trace(i: usize) -> Vec<TraceEvent> {
        let rec = Arc::new(TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default(), rec.clone());
        arbalest_dracc::all()[i].run(&rt);
        rec.take()
    }

    fn mid_stream_snapshot() -> SessionSnapshot {
        // A real mid-stream state from a DRACC case exercises every
        // section: shadow pages, intervals, buffers, reports, seen keys,
        // and live race-engine state.
        let trace = dracc_trace(0);
        let session = AnalysisSession::new(ArbalestConfig::default());
        for ev in trace.iter().take(trace.len() * 2 / 3) {
            session.feed(ev);
        }
        session.to_snapshot()
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = mid_stream_snapshot();
        let bytes = encode_session_snapshot(&snap);
        let back = decode_session_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        // Determinism: equal state must encode to equal bytes.
        assert_eq!(encode_session_snapshot(&back), bytes);
    }

    #[test]
    fn empty_session_round_trips() {
        let session = AnalysisSession::new(ArbalestConfig::default());
        let snap = session.to_snapshot();
        let bytes = encode_session_snapshot(&snap);
        assert_eq!(decode_session_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn corruption_fails_typed_never_decodes() {
        let bytes = encode_session_snapshot(&mid_stream_snapshot());
        // Every single-byte flip must be caught by the CRC trailer (or,
        // for flips inside the trailer itself, by the mismatch).
        let mut copy = bytes.clone();
        for i in (0..copy.len()).step_by(97) {
            copy[i] ^= 0x10;
            match decode_session_snapshot(&copy) {
                Err(StoreError::Crc { .. }) => {}
                other => panic!("flip at {i}: expected Crc error, got {other:?}"),
            }
            copy[i] ^= 0x10;
        }
    }

    #[test]
    fn truncation_fails_typed() {
        let bytes = encode_session_snapshot(&mid_stream_snapshot());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_session_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Crc { .. } | StoreError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_version_fails_typed() {
        let snap = AnalysisSession::new(ArbalestConfig::default()).to_snapshot();
        let mut bytes = encode_session_snapshot(&snap);
        bytes[4] = 99;
        // Re-seal the CRC so the version check itself is reached.
        let body_len = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        match decode_session_snapshot(&bytes) {
            Err(StoreError::Version { got: 99, want: SNAP_VERSION }) => {}
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn version_1_snapshots_fail_typed() {
        let snap = AnalysisSession::new(ArbalestConfig::default()).to_snapshot();
        let mut bytes = encode_session_snapshot(&snap);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        match decode_session_snapshot(&bytes) {
            Err(StoreError::Version { got: 1, want: 2 }) => {}
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn thousands_of_joined_tasks_snapshot_narrow_and_resume_identically() {
        // 1800 target regions, each a kernel task running a two-thread
        // loop: 5400 tasks forked, ended and joined.
        let rec = Arc::new(TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default().team_size(2), rec.clone());
        let a = rt.alloc_with::<f64>("a", 4, |i| i as f64);
        for _ in 0..1800 {
            rt.target().map(Map::tofrom(&a)).run(move |k| {
                k.par_for(0..4, |k, i| {
                    let v = k.read(&a, i);
                    k.write(&a, i, v + 1.0);
                });
            });
        }
        let trace = rec.take();
        let cut = trace
            .iter()
            .position(|ev| {
                matches!(ev, TraceEvent::Sync(SyncEvent::TaskCreate { child, .. }) if child.0 >= 5000)
            })
            .expect("5000 tasks forked");
        let whole = AnalysisSession::new(ArbalestConfig::default());
        let half = AnalysisSession::new(ArbalestConfig::default());
        for ev in &trace {
            whole.feed(ev);
        }
        for ev in &trace[..cut] {
            half.feed(ev);
        }
        let snap = half.to_snapshot();
        let race = snap.detector.race.as_ref().expect("race state");
        assert!(race.tasks.len() >= 5000);
        let live = race.tasks.iter().filter(|t| !t.released).count();
        let width = live + race.free_slots.len();
        assert!(width < 16, "{live} live tasks, {} recycled slots", race.free_slots.len());
        assert!(race.tasks.iter().all(|t| t.clock.len() <= width));
        assert!(race.locks.iter().all(|(_, c)| c.len() <= width));
        let bytes = encode_session_snapshot(&snap);
        let back = decode_session_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        let resumed =
            AnalysisSession::from_snapshot(&back, arbalest_obs::Registry::disabled()).unwrap();
        for ev in &trace[cut..] {
            resumed.feed(ev);
        }
        assert_eq!(wire::encode_reports(&resumed.finish()), wire::encode_reports(&whole.finish()));
    }

    #[test]
    fn restored_snapshot_finishes_identically() {
        let trace = dracc_trace(2);
        let cut = trace.len() / 2;
        let whole = AnalysisSession::new(ArbalestConfig::default());
        let half = AnalysisSession::new(ArbalestConfig::default());
        for ev in &trace {
            whole.feed(ev);
        }
        for ev in &trace[..cut] {
            half.feed(ev);
        }
        let bytes = encode_session_snapshot(&half.to_snapshot());
        let snap = decode_session_snapshot(&bytes).unwrap();
        let resumed =
            AnalysisSession::from_snapshot(&snap, arbalest_obs::Registry::disabled()).unwrap();
        for ev in &trace[cut..] {
            resumed.feed(ev);
        }
        assert_eq!(resumed.finish(), whole.finish());
    }
}
