//! # arbalest-race
//!
//! A FastTrack-style happens-before data race detection engine — the
//! substrate both the Archer baseline model and ARBALEST itself use
//! (ARBALEST "is built upon Archer", §V, and reports data races alongside
//! mapping issues).
//!
//! The engine consumes the runtime's task structure events (fork / end /
//! join) and per-access checks at 8-byte granule granularity, refined by
//! byte offset/length so two threads touching different halves of a word
//! do not collide, mirroring TSan's shadow cells.

#![warn(missing_docs)]

pub mod clock;
pub mod engine;

pub use clock::{Epoch, VectorClock};
pub use engine::{
    Checked, LocSnapshot, RaceEngine, RaceInfo, RaceSnapshot, ReadSnapshot, TaskSnapshot,
};

/// # Example
///
/// ```
/// use arbalest_race::RaceEngine;
///
/// let e = RaceEngine::new();
/// e.fork(0, 1);                       // host forks a task
/// assert!(e.check_write(1, 0x100, 8).race.is_none());
/// // The host never joined task 1: its read races the task's write.
/// let race = e.check_read(0, 0x100, 8).race.expect("race");
/// assert!(race.prev_was_write);
/// ```
#[doc(hidden)]
pub struct _DoctestAnchor;
