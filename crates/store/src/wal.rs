//! Segmented append-only write-ahead log of wire-encoded trace events.
//!
//! ## Record framing
//!
//! Each appended batch becomes one record:
//!
//! ```text
//! len:u32le | crc:u32le | payload
//! ```
//!
//! where `payload` is [`wire::encode_events`] of the batch (count-prefixed
//! events in the wire layout of trace files and `Events` frames) and `crc`
//! is the [`crc32`] of the payload. Records are written with a single
//! `write`, so a crash tears at most the final record.
//!
//! The server logs a batch through [`WalWriter::append_raw`], as the bytes
//! its `Events` frame carried (the frame's span-context tag left out),
//! once decoding them has validated them, so a served batch is never
//! encoded twice; [`WalWriter::append`] encodes a `&[TraceEvent]` first.
//! Each writer builds its records in one reused buffer.
//!
//! ## Segments
//!
//! A log is a directory of `wal-<start>.log` files where `<start>` is the
//! zero-padded absolute index of the first event the segment holds. Each
//! segment begins with a 14-byte header (`ABWL`, version, start index).
//! Encoding the start index in both the name and the header makes
//! compaction a pure filename computation — a segment is fully covered by
//! a snapshot iff the *next* segment's start is ≤ the snapshot's event
//! count — and lets recovery verify segment contiguity without trusting
//! directory listings.
//!
//! ## Torn-tail rule
//!
//! Scanning stops at the first violation — a record header that doesn't
//! fit, a declared length past end-of-file (torn: the crash shape), a CRC
//! or decode mismatch (corrupt), or a segment that is not contiguous with
//! its predecessor. In repair mode everything from the violation on is
//! discarded *exactly*: the bad segment is truncated to its last good
//! byte and later segments are deleted. Nothing past a violation is ever
//! replayed as state.

use crate::crc::crc32;
use crate::metrics::StoreMetrics;
use crate::StoreError;
use arbalest_offload::fault::{FaultConfig, FaultOutcome, FaultPlan, FaultSite};
use arbalest_offload::trace::TraceEvent;
use arbalest_offload::wire::{self, Cursor};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Magic prefix of a WAL segment file.
pub const WAL_MAGIC: [u8; 4] = *b"ABWL";

/// Version of the WAL record layout. Bump on any layout change.
pub const WAL_VERSION: u16 = 1;

/// Segment header bytes: magic + version + start index.
pub const WAL_HEADER: usize = 4 + 2 + 8;

/// Largest record payload a reader accepts (matches the server's frame
/// bound, so any accepted `Events` frame is loggable).
pub const MAX_RECORD: u32 = 32 << 20;

/// When (relative to appends) WAL bytes are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: an acked batch is always durable.
    Always,
    /// Group commit: `fsync` once at least this many bytes are unsynced.
    /// A crash can lose up to one group of *acked* events — recovery
    /// still converges, the client just re-submits from the typed gap.
    Group {
        /// Unsynced-byte threshold that triggers a flush.
        bytes: u64,
    },
    /// Never `fsync`; rely on the OS. Fastest, weakest.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Group { bytes: 256 * 1024 }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Group { bytes } => write!(f, "group={bytes}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "group" => Ok(FsyncPolicy::default()),
            _ => match s.strip_prefix("group=") {
                Some(n) => n
                    .parse::<u64>()
                    .map(|bytes| FsyncPolicy::Group { bytes })
                    .map_err(|_| format!("bad group fsync byte count '{n}'")),
                None => Err(format!("unknown fsync policy '{s}' (always|group[=BYTES]|never)")),
            },
        }
    }
}

fn segment_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("wal-{start:020}.log"))
}

/// List a log directory's segments as `(start_index, path)`, sorted.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(start) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) {
            if let Ok(start) = start.parse::<u64>() {
                out.push((start, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|&(start, _)| start);
    Ok(out)
}

/// The appender side of one session's log.
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    segment_bytes: u64,
    bytes_in_segment: u64,
    unsynced: u64,
    events_appended: u64,
    policy: FsyncPolicy,
    plan: FaultPlan,
    metrics: Arc<StoreMetrics>,
    poisoned: bool,
    /// The record being written, kept so that appends reuse one buffer.
    record: Vec<u8>,
}

impl WalWriter {
    /// Open a writer over `dir`, starting a *fresh* segment whose first
    /// event has absolute index `start_event` (0 for a new session, the
    /// recovered event count after recovery). Existing segments are left
    /// alone; the new segment is contiguous with them by construction.
    pub fn open(
        dir: &Path,
        start_event: u64,
        segment_bytes: u64,
        policy: FsyncPolicy,
        faults: FaultConfig,
        metrics: Arc<StoreMetrics>,
    ) -> Result<WalWriter, StoreError> {
        fs::create_dir_all(dir)?;
        let file = Self::new_segment(dir, start_event)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            segment_bytes: segment_bytes.max(WAL_HEADER as u64 + 1),
            bytes_in_segment: WAL_HEADER as u64,
            unsynced: 0,
            events_appended: start_event,
            policy,
            plan: FaultPlan::new(faults),
            metrics,
            poisoned: false,
            record: Vec::new(),
        })
    }

    fn new_segment(dir: &Path, start: u64) -> Result<File, StoreError> {
        let mut header = Vec::with_capacity(WAL_HEADER);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&start.to_le_bytes());
        // A segment that already starts here holds no record (or recovery
        // would have counted past `start`), only a header: a resume that
        // logged nothing left it. Start it over, so that it never carries
        // two headers, whose second would read as a corrupt record.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment_path(dir, start))?;
        file.write_all(&header)?;
        Ok(file)
    }

    /// Total events appended over the log's lifetime (== the absolute
    /// index the next appended event will get).
    pub fn events_appended(&self) -> u64 {
        self.events_appended
    }

    /// Encode one batch and append it with [`WalWriter::append_raw`].
    pub fn append(&mut self, events: &[TraceEvent]) -> Result<u64, StoreError> {
        self.append_raw(&wire::encode_events(events))
    }

    /// Append one batch, given as its [`wire::encode_events`] bytes, as a
    /// single CRC-framed record, then apply the fsync policy. On success
    /// the batch may be acked to the client; returns the record size in
    /// bytes (framing included), 0 for an empty batch. The bytes are
    /// logged as given: the caller has decoded them, and the event count
    /// is read from their prefix.
    pub fn append_raw(&mut self, batch: &[u8]) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let events = Cursor::new(batch).count("event batch")? as u64;
        if events == 0 {
            return Ok(0);
        }
        if self.bytes_in_segment >= self.segment_bytes {
            self.sync()?;
            self.file = Self::new_segment(&self.dir, self.events_appended)?;
            self.bytes_in_segment = WAL_HEADER as u64;
        }
        let record = &mut self.record;
        record.clear();
        record.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(batch).to_le_bytes());
        record.extend_from_slice(batch);
        if self.plan.active() {
            if let FaultOutcome::Permanent = self.plan.decide(FaultSite::WalCorruptRecord) {
                // Written whole, checksummed wrong: silent corruption that
                // only the recovery scan can catch. Only the record's copy
                // is flipped, never the caller's bytes.
                record[8 + batch.len() / 2] ^= 0x40;
                self.metrics.injected[1].inc();
            }
        }
        if self.plan.active() {
            if let FaultOutcome::Partial { frac256 } = self.plan.decide(FaultSite::WalTornTail) {
                // The crash model: only a prefix reaches the file, and the
                // "process" (this writer) dies.
                let keep = (record.len() * frac256 as usize) / 256;
                self.file.write_all(&record[..keep])?;
                let _ = self.file.flush();
                self.metrics.injected[0].inc();
                self.poisoned = true;
                return Err(StoreError::Poisoned);
            }
        }
        if let Err(e) = self.file.write_all(record) {
            // Part of the record may be in the file. Another append after
            // it would bury that torn record inside the log, so the writer
            // takes no more.
            self.poisoned = true;
            return Err(e.into());
        }
        let written = record.len() as u64;
        self.events_appended += events;
        self.bytes_in_segment += written;
        self.unsynced += written;
        self.metrics.wal_records.inc();
        self.metrics.wal_appended_bytes.add(written);
        match self.policy {
            FsyncPolicy::Always => self.do_sync()?,
            FsyncPolicy::Group { bytes } => {
                if self.unsynced >= bytes {
                    self.do_sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(written)
    }

    /// Force a flush to stable storage (snapshot barriers use this
    /// regardless of policy).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 {
            self.do_sync()?;
        }
        Ok(())
    }

    fn do_sync(&mut self) -> Result<(), StoreError> {
        if self.plan.active() {
            if let FaultOutcome::Transient = self.plan.decide(FaultSite::FsyncFail) {
                // Transient: the bytes stay unsynced and the next group
                // flush retries them.
                self.metrics.injected[2].inc();
                self.metrics.fsync_failures.inc();
                return Ok(());
            }
        }
        let started = Instant::now();
        match self.file.sync_data() {
            Ok(()) => {
                self.metrics.fsync_latency.record_duration(started.elapsed());
                self.metrics.fsyncs.inc();
                self.unsynced = 0;
                Ok(())
            }
            Err(e) => {
                self.metrics.fsync_failures.inc();
                Err(StoreError::Io(e))
            }
        }
    }
}

/// Result of scanning (and optionally repairing) one session's log.
#[derive(Debug)]
pub struct WalReplay {
    /// Absolute index of `events[0]` (the first segment's start).
    pub first_event: u64,
    /// Every event recovered from complete, checksummed records, in order.
    pub events: Vec<TraceEvent>,
    /// Complete records scanned.
    pub records: u64,
    /// Segment files scanned.
    pub segments: u64,
    /// Bytes past the first violation (discarded in repair mode).
    pub truncated_bytes: u64,
    /// A record was incomplete — the crash shape.
    pub torn: bool,
    /// A record was complete but failed its CRC or decode — bit rot or an
    /// injected corruption.
    pub corrupt: bool,
}

enum ScanEnd {
    Clean,
    /// Violation at this byte offset; `torn` distinguishes an incomplete
    /// suffix from a checksum/decode failure.
    Broken { good_bytes: u64, torn: bool },
}

fn scan_segment(
    bytes: &[u8],
    name_start: u64,
    events: &mut Vec<TraceEvent>,
) -> (u64, ScanEnd) {
    if bytes.len() < WAL_HEADER
        || bytes[0..4] != WAL_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != WAL_VERSION
        || u64::from_le_bytes(bytes[6..14].try_into().unwrap()) != name_start
    {
        // A header can only be short if the crash hit mid-roll; a header
        // that disagrees with the filename is corruption. Either way the
        // whole file is unusable.
        let torn = bytes.len() < WAL_HEADER;
        return (0, ScanEnd::Broken { good_bytes: 0, torn });
    }
    let mut pos = WAL_HEADER;
    let mut records = 0u64;
    loop {
        let left = bytes.len() - pos;
        if left == 0 {
            return (records, ScanEnd::Clean);
        }
        if left < 8 {
            return (records, ScanEnd::Broken { good_bytes: pos as u64, torn: true });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD {
            return (records, ScanEnd::Broken { good_bytes: pos as u64, torn: false });
        }
        if left - 8 < len as usize {
            return (records, ScanEnd::Broken { good_bytes: pos as u64, torn: true });
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return (records, ScanEnd::Broken { good_bytes: pos as u64, torn: false });
        }
        let mut cur = Cursor::new(payload);
        let before = events.len();
        match wire::decode_events(&mut cur) {
            Ok(evs) if cur.is_empty() => events.extend(evs),
            Ok(_) | Err(_) => {
                // CRC matched but the payload does not decode as a clean
                // event batch: a writer bug or forged bytes. Same rule —
                // stop, never replay it.
                events.truncate(before);
                return (records, ScanEnd::Broken { good_bytes: pos as u64, torn: false });
            }
        }
        records += 1;
        pos += 8 + len as usize;
    }
}

/// Scan a log directory. With `repair`, the first violation's suffix is
/// physically discarded: the broken segment is truncated to its last good
/// byte (deleted outright when even its header is bad) and every later
/// segment is deleted, so a subsequent scan is clean. Without `repair`
/// (inspection), files are not touched.
pub fn read_wal(dir: &Path, repair: bool) -> Result<WalReplay, StoreError> {
    let segments = list_segments(dir)?;
    let mut replay = WalReplay {
        first_event: segments.first().map(|&(s, _)| s).unwrap_or(0),
        events: Vec::new(),
        records: 0,
        segments: 0,
        truncated_bytes: 0,
        torn: false,
        corrupt: false,
    };
    let mut broken_at: Option<usize> = None;
    let mut expected_start: Option<u64> = None;
    for (i, (start, path)) in segments.iter().enumerate() {
        if let Some(exp) = expected_start {
            if *start != exp {
                // A hole in the sequence (lost or misnamed segment):
                // everything from here on is unanchored.
                replay.corrupt = true;
                broken_at = Some(i);
                for (_, later) in &segments[i..] {
                    replay.truncated_bytes += fs::metadata(later).map(|m| m.len()).unwrap_or(0);
                }
                break;
            }
        }
        let bytes = fs::read(path)?;
        let (records, end) = scan_segment(&bytes, *start, &mut replay.events);
        replay.records += records;
        replay.segments += 1;
        match end {
            ScanEnd::Clean => {
                expected_start = Some(replay.first_event + replay.events.len() as u64);
            }
            ScanEnd::Broken { good_bytes, torn } => {
                if torn {
                    replay.torn = true;
                } else {
                    replay.corrupt = true;
                }
                replay.truncated_bytes += bytes.len() as u64 - good_bytes;
                for (_, later) in &segments[i + 1..] {
                    replay.truncated_bytes += fs::metadata(later).map(|m| m.len()).unwrap_or(0);
                }
                if repair {
                    if good_bytes == 0 {
                        fs::remove_file(path)?;
                    } else {
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(good_bytes)?;
                        f.sync_data()?;
                    }
                }
                broken_at = Some(i + 1);
                break;
            }
        }
    }
    if let Some(from) = broken_at {
        if repair {
            for (_, later) in &segments[from..] {
                if later.exists() {
                    fs::remove_file(later)?;
                }
            }
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_obs::Registry;
    use arbalest_offload::events::{SyncEvent, TaskId};

    fn metrics() -> Arc<StoreMetrics> {
        Registry::new().state(StoreMetrics::new)
    }

    fn ev(n: u32) -> TraceEvent {
        TraceEvent::Sync(SyncEvent::TaskCreate { parent: TaskId(0), child: TaskId(n) })
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "arbalest-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut w = WalWriter::open(
            &dir,
            0,
            8 << 20,
            FsyncPolicy::Never,
            FaultConfig::disabled(),
            metrics(),
        )
        .unwrap();
        w.append(&[ev(1), ev(2)]).unwrap();
        w.append(&[ev(3)]).unwrap();
        assert_eq!(w.events_appended(), 3);
        let replay = read_wal(&dir, false).unwrap();
        assert_eq!(replay.events, vec![ev(1), ev(2), ev(3)]);
        assert_eq!(replay.records, 2);
        assert!(!replay.torn && !replay.corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_stay_contiguous() {
        let dir = tmpdir("roll");
        // Tiny segment bound: every record rolls a new segment.
        let mut w = WalWriter::open(
            &dir,
            0,
            WAL_HEADER as u64 + 1,
            FsyncPolicy::Never,
            FaultConfig::disabled(),
            metrics(),
        )
        .unwrap();
        for n in 0..5 {
            w.append(&[ev(n)]).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 4, "expected rolls, got {}", segs.len());
        let replay = read_wal(&dir, false).unwrap();
        assert_eq!(replay.events.len(), 5);
        assert!(!replay.torn && !replay.corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_exactly() {
        let dir = tmpdir("torn");
        let mut w = WalWriter::open(
            &dir,
            0,
            8 << 20,
            FsyncPolicy::Never,
            FaultConfig::disabled(),
            metrics(),
        )
        .unwrap();
        w.append(&[ev(1)]).unwrap();
        w.append(&[ev(2)]).unwrap();
        drop(w);
        // Tear the last record by chopping 3 bytes off the file.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
        let replay = read_wal(&dir, true).unwrap();
        assert_eq!(replay.events, vec![ev(1)], "exactly the torn suffix is dropped");
        assert!(replay.torn && !replay.corrupt);
        // After repair the log scans clean.
        let again = read_wal(&dir, false).unwrap();
        assert_eq!(again.events, vec![ev(1)]);
        assert!(!again.torn && !again.corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay_typed() {
        let dir = tmpdir("corrupt");
        let mut w = WalWriter::open(
            &dir,
            0,
            8 << 20,
            FsyncPolicy::Never,
            FaultConfig::disabled(),
            metrics(),
        )
        .unwrap();
        w.append(&[ev(1)]).unwrap();
        w.append(&[ev(2)]).unwrap();
        w.append(&[ev(3)]).unwrap();
        drop(w);
        // Flip a byte inside the second record's payload.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let first_rec = 8 + u32::from_le_bytes(bytes[WAL_HEADER..WAL_HEADER + 4].try_into().unwrap()) as usize;
        let target = WAL_HEADER + first_rec + 10;
        bytes[target] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let replay = read_wal(&dir, true).unwrap();
        assert_eq!(replay.events, vec![ev(1)], "records after the corruption are dropped too");
        assert!(replay.corrupt && !replay.torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_poisons_the_writer_and_scans_like_a_crash() {
        let dir = tmpdir("inject");
        let m = metrics();
        let mut w = WalWriter::open(
            &dir,
            0,
            8 << 20,
            FsyncPolicy::Never,
            FaultConfig::new(7, 1.0),
            m.clone(),
        )
        .unwrap();
        // First append: WalCorruptRecord fires (rate 1.0) and corrupts it;
        // WalTornTail also fires and tears the write. Either way the
        // append errors and the writer is poisoned.
        let err = w.append(&[ev(1)]).unwrap_err();
        assert!(matches!(err, StoreError::Poisoned), "{err:?}");
        assert!(matches!(w.append(&[ev(2)]).unwrap_err(), StoreError::Poisoned));
        assert!(m.injected[0].get() >= 1, "torn-tail fault not counted");
        // The resulting file recovers typed: nothing or a broken suffix.
        let replay = read_wal(&dir, true).unwrap();
        assert!(replay.events.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_corruption_flips_only_the_logged_copy() {
        // A seed whose first append corrupts its record without tearing
        // it (append_raw decides the corruption, then the tear).
        let faults = (0..)
            .map(|seed| FaultConfig::new(seed, 0.5))
            .find(|&cfg| {
                let plan = FaultPlan::new(cfg);
                plan.decide(FaultSite::WalCorruptRecord) == FaultOutcome::Permanent
                    && plan.decide(FaultSite::WalTornTail) == FaultOutcome::None
            })
            .unwrap();
        let dir = tmpdir("corrupt-copy");
        let m = metrics();
        let mut w =
            WalWriter::open(&dir, 0, 8 << 20, FsyncPolicy::Never, faults, m.clone()).unwrap();
        let batch = wire::encode_events(&[ev(1), ev(2)]);
        let sent = batch.clone();
        w.append_raw(&batch).unwrap();
        assert_eq!(batch, sent);
        assert_eq!(m.injected[1].get(), 1);
        // On disk: the right length and checksum, one payload byte flipped.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut record = fs::read(&path).unwrap().split_off(WAL_HEADER);
        assert_eq!(record[..4], (batch.len() as u32).to_le_bytes());
        assert_eq!(record[4..8], crc32(&batch).to_le_bytes());
        record[8 + batch.len() / 2] ^= 0x40;
        assert_eq!(record[8..], batch[..]);
        let replay = read_wal(&dir, false).unwrap();
        assert!(replay.corrupt && replay.events.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_poisons_the_writer() {
        let dir = tmpdir("failed-write");
        let mut w = WalWriter::open(
            &dir,
            0,
            8 << 20,
            FsyncPolicy::Never,
            FaultConfig::disabled(),
            metrics(),
        )
        .unwrap();
        w.append(&[ev(1)]).unwrap();
        // A read-only handle on the same segment: the next write fails.
        let healthy = std::mem::replace(&mut w.file, File::open(segment_path(&dir, 0)).unwrap());
        assert!(matches!(w.append(&[ev(2)]).unwrap_err(), StoreError::Io(_)));
        // The write is gone, but the writer takes no more appends, so
        // nothing can land after a record the failure may have torn.
        w.file = healthy;
        assert!(matches!(w.append(&[ev(3)]).unwrap_err(), StoreError::Poisoned));
        assert_eq!(w.events_appended(), 1);
        assert_eq!(read_wal(&dir, false).unwrap().events, vec![ev(1)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_after_recovery_is_contiguous() {
        let dir = tmpdir("resume");
        let m = metrics();
        let mut w = WalWriter::open(&dir, 0, 8 << 20, FsyncPolicy::Never, FaultConfig::disabled(), m.clone()).unwrap();
        w.append(&[ev(1), ev(2)]).unwrap();
        drop(w);
        let replay = read_wal(&dir, true).unwrap();
        assert_eq!(replay.events.len(), 2);
        // Reopen at the recovered count: a fresh contiguous segment.
        let mut w = WalWriter::open(&dir, 2, 8 << 20, FsyncPolicy::Always, FaultConfig::disabled(), m).unwrap();
        w.append(&[ev(3)]).unwrap();
        drop(w);
        let replay = read_wal(&dir, false).unwrap();
        assert_eq!(replay.events, vec![ev(1), ev(2), ev(3)]);
        assert!(!replay.torn && !replay.corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("always".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Always);
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!(
            "group=4096".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Group { bytes: 4096 }
        );
        assert_eq!("group".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::default());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }
}
