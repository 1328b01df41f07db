//! # arbalest-store
//!
//! Durable sessions for the analysis service: a segmented append-only
//! **write-ahead log** of wire-encoded trace events per session, a
//! versioned binary **snapshot** format serializing complete analysis
//! state ([`arbalest_core::SessionSnapshot`]), and **crash recovery**
//! that rebuilds an unfinished session from its latest valid snapshot
//! plus the WAL tail when a client resumes it.
//!
//! ARBALEST's soundness contract (Theorem 1) holds only over a *complete*
//! event stream, so the recovery invariants are strict:
//!
//! * An event is acknowledged to the client only after its batch is
//!   appended to the WAL — acked events survive a crash (modulo the
//!   configured [`FsyncPolicy`] window).
//! * A torn or CRC-corrupt WAL suffix is *discarded exactly*, never
//!   replayed as wrong state: recovery truncates at the first bad record
//!   and reports how much it dropped, typed.
//! * A recovered session fed the rest of its stream finishes with reports
//!   **byte-identical** to an uninterrupted in-process run (this rests on
//!   the deterministic `to_snapshot`/`from_snapshot` support in `core`,
//!   `shadow`, and `race`).
//!
//! Layering:
//!
//! * [`crc`] — hand-rolled CRC32 (IEEE), the only checksum in the stack.
//! * [`wal`] — record framing, segment files, group-fsync policy, torn
//!   tail scanning/repair.
//! * [`snapshot`] — the versioned snapshot byte format.
//! * [`dir`] — the [`Store`]: per-session directories, snapshot
//!   triggering state, compaction, recovery.
//! * [`metrics`] — `arbalest_store_*` observability instruments.

#![warn(missing_docs)]

pub mod crc;
pub mod dir;
pub mod metrics;
pub mod snapshot;
pub mod wal;

pub use dir::{RecoveredSession, SessionLog, Store, StoreConfig};
pub use metrics::StoreMetrics;
pub use snapshot::{decode_session_snapshot, encode_session_snapshot, SNAP_VERSION};
pub use wal::{read_wal, FsyncPolicy, WalReplay, WalWriter, WAL_VERSION};

use arbalest_core::RestoreError;
use arbalest_offload::wire::WireError;
use std::fmt;

/// Why a store operation failed. Every failure is typed: recovery never
/// silently installs wrong state.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A snapshot or WAL payload failed wire decoding.
    Wire(WireError),
    /// A snapshot file did not start with the snapshot magic.
    BadMagic,
    /// A snapshot or WAL file speaks a different layout version.
    Version {
        /// Version found in the file.
        got: u16,
        /// Version this build understands.
        want: u16,
    },
    /// A CRC32 trailer or record checksum did not match.
    Crc {
        /// Checksum stored in the file.
        expected: u32,
        /// Checksum of the bytes actually present.
        actual: u32,
    },
    /// A decoded snapshot could not be installed into a detector.
    Restore(RestoreError),
    /// The WAL no longer covers the events between the best snapshot and
    /// the log's first surviving record — state would be unsound.
    Gap {
        /// First event index the WAL still holds.
        have: u64,
        /// Event index recovery needed to resume from.
        need: u64,
    },
    /// The writer injected (or hit) a torn write and is no longer usable.
    Poisoned,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Wire(e) => write!(f, "store payload decode error: {e}"),
            StoreError::BadMagic => write!(f, "not an arbalest snapshot (bad magic)"),
            StoreError::Version { got, want } => {
                write!(f, "store format version {got} (this build speaks {want})")
            }
            StoreError::Crc { expected, actual } => {
                write!(f, "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}")
            }
            StoreError::Restore(e) => write!(f, "snapshot cannot be installed: {e}"),
            StoreError::Gap { have, need } => write!(
                f,
                "WAL gap: needed events from index {need} but the log starts at {have}"
            ),
            StoreError::Poisoned => write!(f, "WAL writer is poisoned after a torn write"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Wire(e)
    }
}

impl From<RestoreError> for StoreError {
    fn from(e: RestoreError) -> StoreError {
        StoreError::Restore(e)
    }
}

impl StoreError {
    /// Stable snake_case label of the variant (metric label vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            StoreError::Io(_) => "io",
            StoreError::Wire(_) => "wire",
            StoreError::BadMagic => "bad_magic",
            StoreError::Version { .. } => "version",
            StoreError::Crc { .. } => "crc",
            StoreError::Restore(_) => "restore",
            StoreError::Gap { .. } => "gap",
            StoreError::Poisoned => "poisoned",
        }
    }
}
