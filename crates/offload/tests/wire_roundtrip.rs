//! Wire-format round-trip coverage: every `TraceEvent` variant encodes
//! and decodes to an equal value, seeded fuzz over random event streams
//! holds `decode(encode(x)) == x`, and truncated or corrupted bytes
//! always yield a typed [`WireError`] — never a panic and never an
//! oversized allocation.

use arbalest_offload::addr::DeviceId;
use arbalest_offload::buffer::{BufferId, BufferInfo};
use arbalest_offload::events::{
    AccessEvent, ConstructEvent, DataOpEvent, DataOpKind, SrcLoc, SyncEvent, TaskId,
    TransferEvent, TransferKind,
};
use arbalest_offload::trace::TraceEvent;
use arbalest_offload::wire::{self, Cursor, WireError};

/// Deterministic splitmix64 stream (the repo's standard test PRNG).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn loc(rng: &mut Rng) -> SrcLoc {
    let files = ["kernel.rs", "host.rs", "crates/dracc/src/buggy.rs"];
    SrcLoc::intern(
        files[rng.below(files.len() as u64) as usize],
        rng.below(5000) as u32,
        rng.below(120) as u32,
    )
}

fn random_event(rng: &mut Rng) -> TraceEvent {
    let task = TaskId(rng.below(32) as u32);
    let device = DeviceId(rng.below(4) as u16);
    let buffer = BufferId(rng.below(16) as u32);
    match rng.below(8) {
        0 => TraceEvent::BufferRegistered(BufferInfo {
            id: buffer,
            name: format!("buf{}", rng.below(100)),
            elem_size: 1 << rng.below(4),
            len: rng.below(4096) as usize,
            ov_base: rng.next() & 0xFFFF_FFFF_F000,
        }),
        1 => TraceEvent::HostFree(BufferInfo {
            id: buffer,
            name: String::new(),
            elem_size: 8,
            len: rng.below(64) as usize,
            ov_base: rng.next() & 0xFFFF_F000,
        }),
        2 => TraceEvent::PoolAlloc { device, base: rng.next(), len: rng.below(1 << 20) },
        3 => TraceEvent::DataOp(DataOpEvent {
            device,
            buffer,
            kind: if rng.chance(50) { DataOpKind::CvAlloc } else { DataOpKind::CvDelete },
            cv_base: rng.next(),
            ov_addr: rng.next(),
            len: rng.below(1 << 16),
            plugin_visible: rng.chance(80),
            task,
        }),
        4 => TraceEvent::Transfer(TransferEvent {
            buffer,
            kind: match rng.below(3) {
                0 => TransferKind::ToDevice,
                1 => TransferKind::FromDevice,
                _ => TransferKind::DeviceToDevice,
            },
            src_device: device,
            src_addr: rng.next(),
            dst_device: DeviceId(rng.below(4) as u16),
            dst_addr: rng.next(),
            len: rng.below(1 << 16),
            task,
            staged: rng.chance(20),
            unified: rng.chance(10),
        }),
        5 => TraceEvent::Access(AccessEvent {
            device,
            addr: rng.next(),
            size: 1 << rng.below(4),
            is_write: rng.chance(50),
            task,
            buffer: if rng.chance(70) { Some(buffer) } else { None },
            mapped: rng.chance(90),
            atomic: rng.chance(5),
            loc: loc(rng),
        }),
        6 => TraceEvent::Sync(match rng.below(5) {
            0 => SyncEvent::TaskCreate { parent: task, child: TaskId(task.0 + 1) },
            1 => SyncEvent::TaskEnd { task },
            2 => SyncEvent::TaskJoin { waiter: task, joined: TaskId(task.0 + 1) },
            3 => SyncEvent::Acquire { task, lock: rng.next() },
            _ => SyncEvent::Release { task, lock: rng.next() },
        }),
        _ => TraceEvent::Construct(if rng.chance(50) {
            ConstructEvent::TargetBegin { task, device, nowait: rng.chance(30) }
        } else {
            ConstructEvent::TargetEnd { task }
        }),
    }
}

fn round_trip(ev: &TraceEvent) -> TraceEvent {
    let mut bytes = Vec::new();
    wire::encode_event(ev, &mut bytes);
    let mut cur = Cursor::new(&bytes);
    let back = wire::decode_event(&mut cur).expect("decode");
    assert!(cur.is_empty(), "decoder left {} trailing byte(s) for {ev:?}", cur.remaining());
    back
}

/// One hand-written exemplar per variant (and per sub-variant), so a tag
/// remap or field reorder fails with a readable diff rather than only in
/// fuzz.
fn exemplars() -> Vec<TraceEvent> {
    let loc = SrcLoc::intern("exemplar.rs", 42, 7);
    vec![
        TraceEvent::BufferRegistered(BufferInfo {
            id: BufferId(3),
            name: "grid".into(),
            elem_size: 8,
            len: 1024,
            ov_base: 0x2000_0000_0000,
        }),
        TraceEvent::HostFree(BufferInfo {
            id: BufferId(3),
            name: "grid".into(),
            elem_size: 8,
            len: 1024,
            ov_base: 0x2000_0000_0000,
        }),
        TraceEvent::PoolAlloc { device: DeviceId(1), base: 0x7000_0000, len: 1 << 26 },
        TraceEvent::DataOp(DataOpEvent {
            device: DeviceId(1),
            buffer: BufferId(3),
            kind: DataOpKind::CvAlloc,
            cv_base: 0x7000_1000,
            ov_addr: 0x2000_0000_0000,
            len: 8192,
            plugin_visible: true,
            task: TaskId(2),
        }),
        TraceEvent::DataOp(DataOpEvent {
            device: DeviceId(1),
            buffer: BufferId(3),
            kind: DataOpKind::CvDelete,
            cv_base: 0x7000_1000,
            ov_addr: 0x2000_0000_0000,
            len: 8192,
            plugin_visible: false,
            task: TaskId(2),
        }),
        TraceEvent::Transfer(TransferEvent {
            buffer: BufferId(3),
            kind: TransferKind::ToDevice,
            src_device: DeviceId(0),
            src_addr: 0x2000_0000_0000,
            dst_device: DeviceId(1),
            dst_addr: 0x7000_1000,
            len: 8192,
            task: TaskId(2),
            staged: false,
            unified: false,
        }),
        TraceEvent::Transfer(TransferEvent {
            buffer: BufferId(4),
            kind: TransferKind::FromDevice,
            src_device: DeviceId(1),
            src_addr: 0x7000_2000,
            dst_device: DeviceId(0),
            dst_addr: 0x2000_0001_0000,
            len: 64,
            task: TaskId(0),
            staged: true,
            unified: false,
        }),
        TraceEvent::Transfer(TransferEvent {
            buffer: BufferId(5),
            kind: TransferKind::DeviceToDevice,
            src_device: DeviceId(1),
            src_addr: 0x7000_3000,
            dst_device: DeviceId(2),
            dst_addr: 0x8000_3000,
            len: 256,
            task: TaskId(1),
            staged: false,
            unified: true,
        }),
        TraceEvent::Access(AccessEvent {
            device: DeviceId(1),
            addr: 0x7000_1008,
            size: 8,
            is_write: true,
            task: TaskId(2),
            buffer: Some(BufferId(3)),
            mapped: true,
            atomic: false,
            loc,
        }),
        TraceEvent::Access(AccessEvent {
            device: DeviceId(0),
            addr: 0x2000_0000_0010,
            size: 4,
            is_write: false,
            task: TaskId(0),
            buffer: None,
            mapped: false,
            atomic: true,
            loc,
        }),
        TraceEvent::Sync(SyncEvent::TaskCreate { parent: TaskId(0), child: TaskId(1) }),
        TraceEvent::Sync(SyncEvent::TaskEnd { task: TaskId(1) }),
        TraceEvent::Sync(SyncEvent::TaskJoin { waiter: TaskId(0), joined: TaskId(1) }),
        TraceEvent::Sync(SyncEvent::Acquire { task: TaskId(1), lock: 0xDEAD_BEEF }),
        TraceEvent::Sync(SyncEvent::Release { task: TaskId(1), lock: 0xDEAD_BEEF }),
        TraceEvent::Construct(ConstructEvent::TargetBegin {
            task: TaskId(2),
            device: DeviceId(1),
            nowait: true,
        }),
        TraceEvent::Construct(ConstructEvent::TargetEnd { task: TaskId(2) }),
    ]
}

#[test]
fn every_variant_round_trips() {
    for ev in exemplars() {
        assert_eq!(round_trip(&ev), ev);
    }
}

#[test]
fn exemplar_stream_round_trips_as_trace() {
    let events = exemplars();
    let bytes = wire::encode_trace(&events);
    assert_eq!(wire::decode_trace(&bytes).expect("decode trace"), events);
}

#[test]
fn fuzz_round_trip_is_identity() {
    let mut rng = Rng(0xA5BA_1E57);
    for _ in 0..200 {
        let events: Vec<TraceEvent> =
            (0..rng.below(64) + 1).map(|_| random_event(&mut rng)).collect();
        let bytes = wire::encode_trace(&events);
        assert_eq!(wire::decode_trace(&bytes).expect("decode trace"), events);
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let events = exemplars();
    let bytes = wire::encode_trace(&events);
    // Every proper prefix must fail cleanly — a cut cannot decode to a
    // full trace (the header carries no length, so truncation shows up as
    // a short read or a short event list).
    for cut in 0..bytes.len() {
        match wire::decode_trace(&bytes[..cut]) {
            Err(_) => {}
            Ok(decoded) => {
                panic!("prefix of {cut}/{} bytes decoded to {} event(s)", bytes.len(), decoded.len())
            }
        }
    }
}

#[test]
fn corrupted_bytes_never_panic() {
    let mut rng = Rng(0xC0FF_EE00);
    let events = exemplars();
    let pristine = wire::encode_trace(&events);
    for _ in 0..500 {
        let mut bytes = pristine.clone();
        // Flip 1–4 random bytes anywhere (magic, tags, lengths, payload).
        for _ in 0..rng.below(4) + 1 {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= (rng.next() & 0xFF) as u8;
        }
        // Either it still decodes (the flip hit a don't-care value like an
        // address) or it fails with a typed error; it must never panic or
        // hang on allocation.
        let _ = wire::decode_trace(&bytes);
    }
}

#[test]
fn hostile_lengths_do_not_allocate() {
    // A count field of u32::MAX with no bytes behind it must be refused
    // by the bound check, not fed to Vec::with_capacity.
    let mut bytes = wire::TRACE_MAGIC.to_vec();
    bytes.extend_from_slice(&wire::TRACE_VERSION.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    match wire::decode_trace(&bytes) {
        Err(WireError::Oversize { .. }) | Err(WireError::Truncated { .. }) => {}
        other => panic!("hostile count accepted: {other:?}"),
    }

    // Same for a string length inside a BufferRegistered event.
    let mut bytes = wire::TRACE_MAGIC.to_vec();
    bytes.extend_from_slice(&wire::TRACE_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes()); // one event
    bytes.push(0); // BufferRegistered tag
    bytes.extend_from_slice(&7u32.to_le_bytes()); // BufferId
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // name length: hostile
    match wire::decode_trace(&bytes) {
        Err(WireError::Oversize { .. }) => {}
        other => panic!("hostile string length accepted: {other:?}"),
    }
}

#[test]
fn bad_magic_and_version_are_rejected() {
    let events = exemplars();
    let mut bytes = wire::encode_trace(&events);
    bytes[0] ^= 0xFF;
    assert!(matches!(wire::decode_trace(&bytes), Err(WireError::BadMagic)));

    let mut bytes = wire::encode_trace(&events);
    bytes[4] = 0xFE; // version low byte
    assert!(matches!(wire::decode_trace(&bytes), Err(WireError::Version { .. })));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = wire::encode_trace(&exemplars());
    bytes.push(0);
    assert!(matches!(wire::decode_trace(&bytes), Err(WireError::TrailingBytes { extra: 1 })));
}

// ---------------------------------------------------------------------------
// Frame protocol (arbalest-server): every frame type round-trips, the
// type-tag assignment is a bijection, and truncation or corruption of any
// frame yields a typed error — never a panic. Covers the frames added
// after the original protocol (Metrics 0x06, MetricsReply 0x88,
// SessionFailed 0x89); the retired migration tags (0x07, 0x08, 0x8A,
// 0x8B), the retired `Busy` tag (0x83) and the retired tracing admin
// pair (TraceSnapshot 0x09, TraceSnapshotReply 0x8C) must be refused.
// ---------------------------------------------------------------------------

use arbalest_server::proto::{Frame, ProtoError, StatsSnapshot, WIRE_VERSION};
use arbalest_server::supervise::SessionFailure;

/// One exemplar per frame variant (and per meaningful sub-shape), paired
/// with its wire type tag.
fn frame_exemplars() -> Vec<(u8, Frame)> {
    vec![
        (0x01, Frame::Hello { version: WIRE_VERSION, resume: None }),
        (0x01, Frame::Hello { version: WIRE_VERSION, resume: Some(0xDEAD_BEEF_u64) }),
        (0x02, Frame::Events { events: exemplars(), ctx: None }),
        (
            0x02,
            Frame::Events {
                events: exemplars(),
                ctx: Some(arbalest_obs::SpanContext {
                    trace: 0xDEAD_BEEF_0000_0001_u128 << 64 | 7,
                    span: 0x1234_5678,
                    parent: 0,
                }),
            },
        ),
        (0x03, Frame::Finish),
        (0x04, Frame::Stats),
        (0x05, Frame::Shutdown),
        (0x06, Frame::Metrics),
        (0x81, Frame::HelloAck { version: WIRE_VERSION, session: 42, events: 0 }),
        (0x81, Frame::HelloAck { version: WIRE_VERSION, session: 42, events: 1800 }),
        (0x82, Frame::EventsAck { accepted: 1024 }),
        (0x84, Frame::Reports(Vec::new())),
        (
            0x85,
            Frame::StatsReply(StatsSnapshot {
                sessions_started: 5,
                sessions_finished: 3,
                events_received: 999,
                ..Default::default()
            }),
        ),
        (0x86, Frame::Ok),
        (0x87, Frame::Error { message: "unknown session 9".into() }),
        (0x88, Frame::MetricsReply("# TYPE arbalest_x counter\narbalest_x 1\n".into())),
        (0x89, Frame::SessionFailed(SessionFailure::ShardPanic { message: "boom".into() })),
        (
            0x89,
            Frame::SessionFailed(SessionFailure::BudgetExceeded {
                used_bytes: 4096,
                budget_bytes: 1024,
            }),
        ),
        (0x89, Frame::SessionFailed(SessionFailure::IdleTimeout { limit_ms: 120_000 })),
        (0x89, Frame::SessionFailed(SessionFailure::DeadlineExceeded { limit_ms: 30_000 })),
    ]
}

fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame.write_to(&mut bytes).expect("encode frame");
    bytes
}

fn decode_frame(bytes: &[u8]) -> Result<Frame, ProtoError> {
    Frame::read_from(&mut std::io::Cursor::new(bytes), &mut || true)
}

#[test]
fn every_frame_round_trips() {
    for (_, frame) in frame_exemplars() {
        let bytes = encode_frame(&frame);
        let back = decode_frame(&bytes).expect("decode frame");
        assert_eq!(back, frame);
        // And the encoding is deterministic.
        assert_eq!(encode_frame(&back), bytes);
    }
}

#[test]
fn frame_tag_assignment_is_a_bijection() {
    // byte 4 of an encoded frame (after the u32 length prefix) is the
    // type tag. Each tag must match the documented value, and distinct
    // labels must map to distinct tags and back.
    let mut tag_to_label: std::collections::HashMap<u8, &'static str> = Default::default();
    let mut label_to_tag: std::collections::HashMap<&'static str, u8> = Default::default();
    for (want_tag, frame) in frame_exemplars() {
        let bytes = encode_frame(&frame);
        let tag = bytes[4];
        assert_eq!(tag, want_tag, "{} encoded with tag {tag:#04x}", frame.label());
        if let Some(prev) = tag_to_label.insert(tag, frame.label()) {
            assert_eq!(prev, frame.label(), "tag {tag:#04x} shared by two frame types");
        }
        if let Some(prev) = label_to_tag.insert(frame.label(), tag) {
            assert_eq!(prev, tag, "label {} maps to two tags", frame.label());
        }
    }
    assert_eq!(tag_to_label.len(), label_to_tag.len());
    assert_eq!(tag_to_label.len(), 14, "every frame type has an exemplar");
}

#[test]
fn unknown_frame_tags_are_typed_errors() {
    for tag in [0x00u8, 0x07, 0x08, 0x09, 0x0A, 0x7F, 0x80, 0x83, 0x8A, 0x8B, 0x8C, 0x8D, 0xFF] {
        let bytes = [2u32.to_le_bytes().as_slice(), &[tag, 0]].concat();
        match decode_frame(&bytes) {
            Err(ProtoError::Wire(WireError::BadTag { .. })) => {}
            other => panic!("tag {tag:#04x} accepted: {other:?}"),
        }
    }
}

#[test]
fn every_frame_truncation_is_a_typed_error() {
    for (_, frame) in frame_exemplars() {
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                // cut == 0 is a clean between-frames close (plain EOF);
                // any other cut is a mid-frame death and must be typed.
                Err(ProtoError::Io(_)) if cut == 0 => {}
                Err(ProtoError::Wire(_)) => {}
                other => panic!(
                    "{} cut at {cut}/{} bytes: {other:?}",
                    frame.label(),
                    bytes.len()
                ),
            }
        }
    }
}

#[test]
fn corrupted_frames_never_panic() {
    let mut rng = Rng(0xF1A5_ED00);
    for (_, frame) in frame_exemplars() {
        let pristine = encode_frame(&frame);
        for _ in 0..50 {
            let mut bytes = pristine.clone();
            for _ in 0..rng.below(4) + 1 {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= (rng.next() & 0xFF) as u8;
            }
            // Corrupting the length prefix upward makes the reader wait
            // for bytes that never come; EOF then yields Truncated.
            // Everything else either still decodes or fails typed.
            let _ = decode_frame(&bytes);
        }
    }
}

#[test]
fn fuzzed_event_batches_survive_the_frame_layer() {
    let mut rng = Rng(0xBEEF_CAFE);
    for _ in 0..50 {
        let events: Vec<TraceEvent> =
            (0..rng.below(48) + 1).map(|_| random_event(&mut rng)).collect();
        let frame = Frame::Events { events, ctx: None };
        assert_eq!(decode_frame(&encode_frame(&frame)).expect("decode"), frame);
    }
}
