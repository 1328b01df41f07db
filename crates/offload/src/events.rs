//! The tool observation interface — this simulation's analogue of OMPT plus
//! sanitizer instrumentation.
//!
//! The runtime broadcasts four event families to every attached [`Tool`]:
//!
//! 1. **Accesses** — every tracked read/write, host-side and kernel-side,
//!    with executing device, logical address, size, owning task, and source
//!    location (what Archer's compile-time instrumentation provides).
//! 2. **Data operations** — corresponding-variable (CV) allocation and
//!    deletion, and OV↔CV transfers (what OMPT `target_data_op` provides).
//!    Each carries a `plugin_visible` flag: when the device plugin pools
//!    its memory (the default, like the LLVM CUDA plugin's memory
//!    manager), per-CV operations are invisible to *binary-level*
//!    instrumentation — the blind spot that shapes the Valgrind column of
//!    Table III.
//! 3. **Synchronization** — task create/end/join edges encoding the
//!    program's happens-before structure (what the OMPT sync callbacks
//!    provide to Archer).
//! 4. **Constructs** — target region begin/end, for bookkeeping.
//!
//! All five tools in the evaluation consume this single stream, mirroring
//! the paper's setup where ARBALEST and the LLVM tools share one
//! infrastructure "so that the difference in implementation has less effect
//! on the evaluation results" (§VI-A).

use crate::addr::DeviceId;
use crate::buffer::{BufferId, BufferInfo};
use crate::report::Report;
use arbalest_sync::Mutex;
use std::cell::Cell;
use std::collections::BTreeSet;

/// A source location that can cross process boundaries.
///
/// `std::panic::Location` has no public constructor, so a location decoded
/// from a wire frame or a trace file could never become one. `SrcLoc`
/// carries the same three fields with the file name *interned* into a
/// process-wide table, keeping the type `Copy` and cheap to stamp on every
/// access event while staying constructible from serialized bytes. The
/// intern table grows with the number of distinct source files, not with
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SrcLoc {
    /// Source file path.
    pub file: &'static str,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

static INTERNED_FILES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

thread_local! {
    /// The file this thread's last [`SrcLoc::intern`] returned. A decoded
    /// trace names the same file access after access, so most lookups
    /// end here, without the table's lock.
    static LAST_FILE: Cell<&'static str> = const { Cell::new("") };
}

impl SrcLoc {
    /// Capture the caller's location (the `Location::caller()` analogue).
    #[track_caller]
    #[inline]
    pub fn caller() -> SrcLoc {
        let l = std::panic::Location::caller();
        SrcLoc { file: l.file(), line: l.line(), column: l.column() }
    }

    /// Build a location from decoded parts, interning the file name.
    pub fn intern(file: &str, line: u32, column: u32) -> SrcLoc {
        let mut interned = LAST_FILE.get();
        if !same_file(interned, file) {
            let mut table = INTERNED_FILES.lock();
            interned = match table.get(file) {
                Some(f) => f,
                None => {
                    let leaked: &'static str = Box::leak(file.to_owned().into_boxed_str());
                    table.insert(leaked);
                    leaked
                }
            };
            LAST_FILE.set(interned);
        }
        SrcLoc { file: interned, line, column }
    }
}

/// `a == b`, with the last eight bytes compared first: paths from one
/// source tree share their directories, so two files of equal length
/// usually differ in their names, and a miss of the last-file cache is
/// found without comparing the whole path.
fn same_file(a: &str, b: &str) -> bool {
    a.len() == b.len() && a.as_bytes().last_chunk::<8>() == b.as_bytes().last_chunk::<8>() && a == b
}

impl std::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// Identifier of a logical task: the host program, a target region
/// instance, a kernel team thread, or a detached transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The initial host task.
    pub const HOST: TaskId = TaskId(0);
}

/// A tracked memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Device whose processing units executed the access.
    pub device: DeviceId,
    /// Logical address accessed (identifies OV or CV storage).
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: usize,
    /// True for writes.
    pub is_write: bool,
    /// The logical task performing the access.
    pub task: TaskId,
    /// The buffer the *program* addressed, when known.
    pub buffer: Option<BufferId>,
    /// False when a kernel addressed a buffer absent from its device data
    /// environment (a "missing map clause" bug).
    pub mapped: bool,
    /// True for `omp atomic`-style accesses: still a read/write for
    /// visibility (VSM) purposes, but exempt from happens-before race
    /// checking, like TSan's handling of atomics.
    pub atomic: bool,
    /// Source location of the access.
    pub loc: SrcLoc,
}

/// CV lifecycle operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOpKind {
    /// A corresponding variable was created on the device.
    CvAlloc,
    /// A corresponding variable was destroyed.
    CvDelete,
}

/// A CV allocation or deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOpEvent {
    /// Device owning the CV.
    pub device: DeviceId,
    /// The mapped buffer.
    pub buffer: BufferId,
    /// Alloc or delete.
    pub kind: DataOpKind,
    /// CV base logical address.
    pub cv_base: u64,
    /// Host address of the mapped section's first byte (OV side).
    pub ov_addr: u64,
    /// Section length in bytes.
    pub len: u64,
    /// False when the device plugin serviced this from its internal pool,
    /// hiding it from binary-level instrumentation.
    pub plugin_visible: bool,
    /// Task performing the operation.
    pub task: TaskId,
}

/// Direction of a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// OV → CV (`to`, `update to`).
    ToDevice,
    /// CV → OV (`from`, `update from`).
    FromDevice,
    /// CV → CV between two accelerators (`omp_target_memcpy` with two
    /// non-host devices).
    DeviceToDevice,
}

/// An OV↔CV memory transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferEvent {
    /// The mapped buffer.
    pub buffer: BufferId,
    /// Direction.
    pub kind: TransferKind,
    /// Source (device, address).
    pub src_device: DeviceId,
    /// Source base address.
    pub src_addr: u64,
    /// Destination (device, address).
    pub dst_device: DeviceId,
    /// Destination base address.
    pub dst_addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Task performing the transfer.
    pub task: TaskId,
    /// True when the transfer was staged through a runtime-internal
    /// buffer (as `target update` is in this runtime). Definedness
    /// trackers relying on allocator/memcpy interception lose shadow
    /// provenance across such a hop.
    pub staged: bool,
    /// True in unified-memory mode, where OV and CV share storage and the
    /// "transfer" is only a coherence flush.
    pub unified: bool,
}

/// Happens-before structure events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// `child` begins, causally after everything `parent` did so far.
    TaskCreate {
        /// Creating task.
        parent: TaskId,
        /// Created task.
        child: TaskId,
    },
    /// `task` finished its last action.
    TaskEnd {
        /// The completed task.
        task: TaskId,
    },
    /// `waiter` continues causally after all of `joined`.
    TaskJoin {
        /// The waiting task.
        waiter: TaskId,
        /// The task being joined.
        joined: TaskId,
    },
    /// `task` entered a named critical section (lock acquire).
    Acquire {
        /// The acquiring task.
        task: TaskId,
        /// Lock identity (hash of the critical section's name).
        lock: u64,
    },
    /// `task` left the critical section (lock release).
    Release {
        /// The releasing task.
        task: TaskId,
        /// Lock identity.
        lock: u64,
    },
}

/// Construct boundary events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructEvent {
    /// A target region starts executing (on its own task).
    TargetBegin {
        /// The target region's task.
        task: TaskId,
        /// Destination device.
        device: DeviceId,
        /// True if launched with `nowait`.
        nowait: bool,
    },
    /// A target region finished.
    TargetEnd {
        /// The target region's task.
        task: TaskId,
    },
}

/// A dynamic analysis tool attached to the runtime.
///
/// All callbacks may be invoked concurrently from multiple threads; tools
/// must be internally synchronized (ARBALEST itself is lock-free via CAS).
#[allow(unused_variables)]
pub trait Tool: Send + Sync {
    /// Stable tool name used in reports and harness tables.
    fn name(&self) -> &'static str;

    /// A host buffer (OV) was allocated and registered.
    fn on_buffer_registered(&self, info: &BufferInfo) {}

    /// A host buffer was freed.
    fn on_host_free(&self, info: &BufferInfo) {}

    /// The device plugin reserved a memory pool (binary-visible).
    fn on_pool_alloc(&self, device: DeviceId, base: u64, len: u64) {}

    /// A CV was created or destroyed.
    fn on_data_op(&self, ev: &DataOpEvent) {}

    /// An OV↔CV transfer happened.
    fn on_transfer(&self, ev: &TransferEvent) {}

    /// A tracked memory access happened.
    fn on_access(&self, ev: &AccessEvent) {}

    /// A happens-before structure event.
    fn on_sync(&self, ev: &SyncEvent) {}

    /// A construct boundary.
    fn on_construct(&self, ev: &ConstructEvent) {}

    /// Findings so far (deduplicated by the tool).
    fn reports(&self) -> Vec<Report> {
        Vec::new()
    }

    /// Bytes of tool side tables currently held (shadow memory, clocks,
    /// interval trees) — the tool's contribution to Fig. 9.
    fn side_table_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use crate::wire::{decode_events, encode_events, Cursor};

    /// Interned files under `prefix`.
    fn interned_under(prefix: &str) -> Vec<&'static str> {
        INTERNED_FILES.lock().iter().copied().filter(|f| f.starts_with(prefix)).collect()
    }

    #[test]
    fn decoding_on_two_threads_interns_each_file_once() {
        // Locations alternate among three files, so every access misses
        // the per-thread cache of the last file.
        const PREFIX: &str = "two-thread-intern/";
        let files: Vec<String> = (0..3).map(|i| format!("{PREFIX}f{i}.c")).collect();
        let events: Vec<TraceEvent> = (0..300u32)
            .map(|i| {
                TraceEvent::Access(AccessEvent {
                    device: DeviceId::HOST,
                    addr: u64::from(i) * 8,
                    size: 8,
                    is_write: i % 2 == 0,
                    task: TaskId(1),
                    buffer: None,
                    mapped: false,
                    atomic: false,
                    // Not interned: a leaked copy stands in for the
                    // recording process's own `file!()`.
                    loc: SrcLoc {
                        file: Box::leak(files[i as usize % 3].clone().into_boxed_str()),
                        line: i,
                        column: 1,
                    },
                })
            })
            .collect();
        assert!(interned_under(PREFIX).is_empty());
        let bytes = encode_events(&events);
        let decode = || decode_events(&mut Cursor::new(&bytes)).unwrap();
        let single = decode();
        assert_eq!(single, events);
        let decoded: Vec<Vec<TraceEvent>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2).map(|_| s.spawn(decode)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let table = interned_under(PREFIX);
        assert_eq!(table.len(), 3, "{table:?}");
        for run in decoded.iter().chain([&single]) {
            assert_eq!(run, &single);
            for ev in run {
                let TraceEvent::Access(a) = ev else { unreachable!() };
                // The one interned copy, not a fresh one per thread.
                assert!(table.iter().any(|f| std::ptr::eq(*f, a.loc.file)), "{}", a.loc.file);
            }
        }
    }
}
