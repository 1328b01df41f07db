//! The [`Store`]: per-session directories of WAL segments and snapshots,
//! snapshot triggering, compaction, and crash recovery.
//!
//! Layout under the data directory:
//!
//! ```text
//! <root>/sessions/<id>/wal-<start>.log        segmented WAL
//! <root>/sessions/<id>/snapshot-<seq>.snap    versioned snapshots
//! ```
//!
//! A session directory *is* the "unfinished session" marker: a clean
//! `Finish` removes the directory, so every directory present can be
//! resumed, and a resume rebuilds it. Snapshots are written atomically
//! (temp + rename), and compaction deletes only the WAL segments a
//! snapshot covers, so at any instant the directory holds a consistent
//! (snapshot, WAL-tail) pair.

use crate::metrics::StoreMetrics;
use crate::snapshot::{decode_session_snapshot, encode_session_snapshot};
use crate::wal::{list_segments, read_wal, FsyncPolicy, WalWriter};
use crate::StoreError;
use arbalest_core::{AnalysisSession, ArbalestConfig, SessionSnapshot};
use arbalest_obs::Registry;
use arbalest_offload::fault::FaultConfig;
use arbalest_offload::trace::TraceEvent;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Durability tuning for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Roll a new WAL segment once the current one exceeds this.
    pub segment_bytes: u64,
    /// When WAL bytes reach stable storage relative to appends.
    pub fsync: FsyncPolicy,
    /// Snapshot a session after this many WAL bytes since the last
    /// snapshot (0 disables the byte trigger).
    pub snapshot_every_bytes: u64,
    /// Snapshot a session after this many events since the last snapshot
    /// (0 disables the event trigger).
    pub snapshot_every_events: u64,
    /// Deterministic storage-fault injection (tests and chaos soaks).
    pub faults: FaultConfig,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::default(),
            snapshot_every_bytes: 0,
            snapshot_every_events: 0,
            faults: FaultConfig::disabled(),
        }
    }
}

/// One data directory holding every session's durable state.
pub struct Store {
    root: PathBuf,
    cfg: StoreConfig,
    metrics: Arc<StoreMetrics>,
}

/// A session rebuilt from disk by [`Store::recover_session`].
pub struct RecoveredSession {
    /// The restored analysis session, ready for more events.
    pub session: AnalysisSession,
    /// Total events the session has absorbed (snapshot + replayed tail).
    pub events: u64,
    /// Events replayed from the WAL tail past the snapshot.
    pub wal_events_replayed: u64,
    /// Bytes discarded as a torn or corrupt suffix.
    pub truncated_bytes: u64,
    /// The WAL tail ended in an incomplete record (crash shape).
    pub torn: bool,
    /// The WAL tail contained a checksum/decode failure.
    pub corrupt: bool,
}

/// The per-session append handle: a [`WalWriter`] plus the since-last-
/// snapshot counters that drive [`SessionLog::snapshot_due`].
pub struct SessionLog {
    wal: WalWriter,
    every_bytes: u64,
    every_events: u64,
    since_bytes: u64,
    since_events: u64,
}

impl SessionLog {
    /// Append one batch; the batch may be acked to the client only after
    /// this returns `Ok`.
    pub fn append(&mut self, events: &[TraceEvent]) -> Result<(), StoreError> {
        let bytes = self.wal.append(events)?;
        self.since_bytes += bytes;
        self.since_events += events.len() as u64;
        Ok(())
    }

    /// Absolute index the next appended event will get.
    pub fn events_appended(&self) -> u64 {
        self.wal.events_appended()
    }

    /// Whether a configured snapshot trigger has fired since the last
    /// [`SessionLog::mark_snapshot`].
    pub fn snapshot_due(&self) -> bool {
        (self.every_bytes > 0 && self.since_bytes >= self.every_bytes)
            || (self.every_events > 0 && self.since_events >= self.every_events)
    }

    /// Reset the snapshot triggers (call after a successful snapshot).
    pub fn mark_snapshot(&mut self) {
        self.since_bytes = 0;
        self.since_events = 0;
    }

    /// Force WAL bytes to stable storage regardless of fsync policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }
}

fn snapshot_seq(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?.strip_suffix(".snap")?.parse().ok()
}

fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(snapshot_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

impl Store {
    /// Open (creating if needed) a data directory. Metrics register into
    /// `reg` once per registry via the instrument-pack cache.
    pub fn open(root: &Path, cfg: StoreConfig, reg: &Registry) -> Result<Store, StoreError> {
        fs::create_dir_all(root.join("sessions"))?;
        Ok(Store { root: root.to_path_buf(), cfg, metrics: reg.state(StoreMetrics::new) })
    }

    /// The durability configuration this store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// The store's instrument pack.
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// Directory holding one session's segments and snapshots.
    pub fn session_dir(&self, id: u64) -> PathBuf {
        self.root.join("sessions").join(id.to_string())
    }

    /// Ids of every session directory present (ascending). Each one is an
    /// unfinished session a client may resume.
    pub fn session_ids(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join("sessions"))? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Open the append handle for a session, starting a fresh segment at
    /// absolute event index `start_event` (0 for new sessions, the
    /// recovered count when resuming).
    pub fn open_log(&self, id: u64, start_event: u64) -> Result<SessionLog, StoreError> {
        let wal = WalWriter::open(
            &self.session_dir(id),
            start_event,
            self.cfg.segment_bytes,
            self.cfg.fsync,
            self.cfg.faults,
            self.metrics.clone(),
        )?;
        Ok(SessionLog {
            wal,
            every_bytes: self.cfg.snapshot_every_bytes,
            every_events: self.cfg.snapshot_every_events,
            since_bytes: 0,
            since_events: 0,
        })
    }

    /// Atomically persist a snapshot (temp file + rename + fsync) under
    /// the next sequence number. Returns the encoded size in bytes.
    pub fn write_snapshot(&self, id: u64, snap: &SessionSnapshot) -> Result<u64, StoreError> {
        let started = Instant::now();
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir)?;
        let seq = list_snapshots(&dir)?.last().map(|&(s, _)| s + 1).unwrap_or(0);
        let bytes = encode_session_snapshot(snap);
        let tmp = dir.join(format!("snapshot-{seq:010}.tmp"));
        let final_path = dir.join(format!("snapshot-{seq:010}.snap"));
        {
            let mut f = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        // Durable rename: fsync the directory so the new name survives.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        self.metrics.snapshots.inc();
        self.metrics.snapshot_bytes.add(bytes.len() as u64);
        self.metrics.snapshot_duration.record_duration(started.elapsed());
        Ok(bytes.len() as u64)
    }

    /// The newest snapshot that decodes cleanly, if any. Unreadable or
    /// corrupt snapshots are skipped (never deleted here), falling back
    /// to older ones — a half-written snapshot can't poison recovery.
    pub fn latest_snapshot(&self, id: u64) -> Result<Option<SessionSnapshot>, StoreError> {
        let dir = self.session_dir(id);
        if !dir.exists() {
            return Ok(None);
        }
        for (_, path) in list_snapshots(&dir)?.into_iter().rev() {
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Ok(snap) = decode_session_snapshot(&bytes) {
                return Ok(Some(snap));
            }
        }
        Ok(None)
    }

    /// Delete WAL segments fully covered by `covered_events` (a segment
    /// is deletable when the *next* segment starts at or before that
    /// index — the live tail segment is never deleted) and all but the
    /// newest snapshot. Returns the number of segments removed.
    pub fn compact(&self, id: u64, covered_events: u64) -> Result<u64, StoreError> {
        let dir = self.session_dir(id);
        let segments = list_segments(&dir)?;
        let mut removed = 0u64;
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (next_start, _) = pair[1];
            if next_start <= covered_events {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        let snaps = list_snapshots(&dir)?;
        for (_, path) in snaps.iter().rev().skip(1) {
            fs::remove_file(path)?;
        }
        self.metrics.segments_compacted.add(removed);
        Ok(removed)
    }

    /// Rebuild one session from its latest valid snapshot plus the WAL
    /// tail, repairing (truncating) any torn or corrupt suffix in place.
    ///
    /// `cfg` seeds the detector only when no snapshot exists (a snapshot
    /// carries its own configuration). Fails typed — [`StoreError::Gap`]
    /// when compaction outran the surviving snapshots — rather than ever
    /// installing wrong state.
    pub fn recover_session(
        &self,
        id: u64,
        cfg: &ArbalestConfig,
        reg: &Registry,
    ) -> Result<RecoveredSession, StoreError> {
        let dir = self.session_dir(id);
        let snap = self.latest_snapshot(id)?;
        let (session, skip) = match snap {
            Some(s) => {
                let events = s.events;
                (AnalysisSession::from_snapshot(&s, reg.clone())?, events)
            }
            None => (AnalysisSession::with_registry(cfg.clone(), reg.clone()), 0),
        };
        let replay = read_wal(&dir, true)?;
        let mut replayed = 0u64;
        if !replay.events.is_empty() {
            if replay.first_event > skip {
                return Err(StoreError::Gap { have: replay.first_event, need: skip });
            }
            let offset = (skip - replay.first_event) as usize;
            if offset < replay.events.len() {
                session.feed_batch(&replay.events[offset..]);
                replayed = (replay.events.len() - offset) as u64;
            }
        }
        self.metrics.recovered_sessions.inc();
        self.metrics.recovered_events.add(replayed);
        self.metrics.truncated_bytes.add(replay.truncated_bytes);
        if replay.torn {
            self.metrics.torn_tails.inc();
        }
        if replay.corrupt {
            self.metrics.corrupt_records.inc();
        }
        Ok(RecoveredSession {
            events: session.events(),
            session,
            wal_events_replayed: replayed,
            truncated_bytes: replay.truncated_bytes,
            torn: replay.torn,
            corrupt: replay.corrupt,
        })
    }

    /// Remove a session's durable state (after a clean `Finish`).
    pub fn remove_session(&self, id: u64) -> Result<(), StoreError> {
        let dir = self.session_dir(id);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::prelude::*;
    use arbalest_offload::trace::TraceRecorder;

    fn dracc_trace(i: usize) -> Vec<TraceEvent> {
        let rec = Arc::new(TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default(), rec.clone());
        arbalest_dracc::all()[i].run(&rt);
        rec.take()
    }

    fn tmp_store(tag: &str, cfg: StoreConfig) -> Store {
        let root = std::env::temp_dir().join(format!(
            "arbalest-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        Store::open(&root, cfg, &Registry::new()).unwrap()
    }

    fn destroy(store: Store) {
        let _ = fs::remove_dir_all(&store.root);
    }

    #[test]
    fn wal_only_recovery_matches_uninterrupted_run() {
        let store = tmp_store("walonly", StoreConfig::default());
        let trace = dracc_trace(1);
        let cut = trace.len() / 2;
        let mut log = store.open_log(7, 0).unwrap();
        for chunk in trace[..cut].chunks(5) {
            log.append(chunk).unwrap();
        }
        drop(log); // crash: in-memory session lost, WAL survives

        let rec = store.recover_session(7, &ArbalestConfig::default(), &Registry::new()).unwrap();
        assert_eq!(rec.events, cut as u64);
        assert_eq!(rec.wal_events_replayed, cut as u64);
        assert!(!rec.torn && !rec.corrupt);

        // Feed the tail; the report must match an uninterrupted run.
        rec.session.feed_batch(&trace[cut..]);
        let whole = AnalysisSession::new(ArbalestConfig::default());
        whole.feed_batch(&trace);
        assert_eq!(rec.session.finish(), whole.finish());
        destroy(store);
    }

    #[test]
    fn snapshot_plus_tail_recovery_and_compaction() {
        let cfg = StoreConfig { segment_bytes: 4096, ..StoreConfig::default() };
        let store = tmp_store("snaptail", cfg);
        let trace = dracc_trace(3);
        let snap_at = trace.len() / 3;
        let cut = 2 * trace.len() / 3;

        let live = AnalysisSession::new(ArbalestConfig::default());
        let mut log = store.open_log(1, 0).unwrap();
        for (i, ev) in trace[..cut].iter().enumerate() {
            log.append(std::slice::from_ref(ev)).unwrap();
            live.feed(ev);
            if i + 1 == snap_at {
                log.sync().unwrap();
                store.write_snapshot(1, &live.to_snapshot()).unwrap();
                store.compact(1, snap_at as u64).unwrap();
                log.mark_snapshot();
            }
        }
        drop(log);
        drop(live);

        let rec = store.recover_session(1, &ArbalestConfig::default(), &Registry::new()).unwrap();
        assert_eq!(rec.events, cut as u64);
        assert_eq!(
            rec.wal_events_replayed,
            (cut - snap_at) as u64,
            "replay must start from the snapshot, not the stream head"
        );
        rec.session.feed_batch(&trace[cut..]);
        let whole = AnalysisSession::new(ArbalestConfig::default());
        whole.feed_batch(&trace);
        assert_eq!(rec.session.finish(), whole.finish());
        destroy(store);
    }

    #[test]
    fn recovery_at_every_cut_point_is_byte_identical() {
        // The acceptance-criterion shape, in miniature: kill at every
        // prefix, recover, finish, demand identical reports.
        let store = tmp_store("everycut", StoreConfig::default());
        let trace = dracc_trace(0);
        let whole = AnalysisSession::new(ArbalestConfig::default());
        whole.feed_batch(&trace);
        let want = whole.finish();

        for cut in (0..=trace.len()).step_by(7) {
            let id = cut as u64 + 100;
            let mut log = store.open_log(id, 0).unwrap();
            log.append(&trace[..cut]).unwrap();
            drop(log);
            let rec =
                store.recover_session(id, &ArbalestConfig::default(), &Registry::new()).unwrap();
            rec.session.feed_batch(&trace[cut..]);
            assert_eq!(rec.session.finish(), want, "diverged at cut {cut}");
            store.remove_session(id).unwrap();
        }
        destroy(store);
    }

    #[test]
    fn gap_between_snapshot_and_wal_is_typed() {
        let store = tmp_store("gap", StoreConfig::default());
        let trace = dracc_trace(0);
        // Log starts at event 10 but no snapshot covers events 0..10.
        let mut log = store.open_log(2, 10).unwrap();
        log.append(&trace[10..20]).unwrap();
        drop(log);
        let err = store.recover_session(2, &ArbalestConfig::default(), &Registry::new());
        match err {
            Err(StoreError::Gap { have: 10, need: 0 }) => {}
            other => panic!("expected Gap, got {:?}", other.map(|r| r.events)),
        }
        destroy(store);
    }

    #[test]
    fn finish_removes_session() {
        let store = tmp_store("remove", StoreConfig::default());
        let trace = dracc_trace(0);
        let mut log = store.open_log(3, 0).unwrap();
        log.append(&trace[..4]).unwrap();
        drop(log);
        assert_eq!(store.session_ids().unwrap(), vec![3]);
        store.remove_session(3).unwrap();
        assert!(store.session_ids().unwrap().is_empty());
        destroy(store);
    }

    #[test]
    fn newer_corrupt_snapshot_falls_back_to_older_valid_one() {
        let store = tmp_store("snapfall", StoreConfig::default());
        let trace = dracc_trace(0);
        let live = AnalysisSession::new(ArbalestConfig::default());
        live.feed_batch(&trace[..6]);
        store.write_snapshot(4, &live.to_snapshot()).unwrap();
        live.feed_batch(&trace[6..12]);
        store.write_snapshot(4, &live.to_snapshot()).unwrap();
        // Corrupt the newer snapshot on disk.
        let dir = store.session_dir(4);
        let (_, newest) = list_snapshots(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        // Also log the WAL so recovery can reach event 12 again.
        let mut log = store.open_log(4, 6).unwrap();
        log.append(&trace[6..12]).unwrap();
        drop(log);
        let rec = store.recover_session(4, &ArbalestConfig::default(), &Registry::new()).unwrap();
        assert_eq!(rec.events, 12, "older snapshot (6 events) + WAL tail (6 events)");
        destroy(store);
    }
}
