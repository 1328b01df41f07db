//! The FastTrack engine.
//!
//! Read/write checks follow Flanagan & Freund's FastTrack rules: each
//! location keeps the last-write epoch and either a last-read epoch or —
//! after concurrent reads — one read epoch per reading slot. Most checks
//! and updates are O(1) epoch comparisons; only reads and writes of a
//! location read concurrently pay for the number of its readers.
//!
//! A task's happens-before state lives in its own cell: its slot, its own
//! scalar clock and what it has observed of other slots. Only the task's
//! own sync events (fork as parent, join as waiter, acquire, release, end)
//! change the cell. A check read-locks the one task-table shard holding
//! the cell, reads the epoch and clock in place and hands back the epoch
//! the detector stamps; a range check does this once per transfer. No
//! engine-wide lock and no clock copy sits on the access path.
//!
//! Location history lives in a [`PageTable`] of 4 KiB pages, one mutex
//! and one state per granule each: a check finds its page with a few plain
//! loads and locks only that page, and a range check locks each page it
//! covers once.
//!
//! Slots are `u16`. A task's slot goes back to a pool once the task has
//! ended and been joined, together with its final clock. A fork reuses a
//! pooled slot only when the forking parent's clock already covers that
//! final clock, and the child starts one past it. Every epoch the slot
//! carried before is then ordered before anything that observes the new
//! owner, so reuse can neither hide a race nor invent one, and no task
//! ever lands on a live slot. Clock width follows the tasks alive at once
//! rather than the tasks ever run. Past 4096 live tasks a fork takes a
//! fresh slot above 4095; the detector masks the slot to 12 bits only
//! where it stamps Table II's TID field, which reports alone read. When
//! all 65536 slots are live, a fork registers no child: its events are
//! those of an unknown task, checked against an empty clock and stamping
//! the zero epoch.

use crate::clock::{Epoch, VectorClock, MAX_TIDS};
use arbalest_sync::{Mutex, PageTable, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Byte range of an access within its granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteRange {
    offset: u8,
    size: u8,
}

impl ByteRange {
    const WORD: ByteRange = ByteRange { offset: 0, size: 8 };

    #[inline]
    fn overlaps(self, other: ByteRange) -> bool {
        let (a0, b0) = (u16::from(self.offset), u16::from(other.offset));
        a0 < b0 + u16::from(other.size) && b0 < a0 + u16::from(self.size)
    }

    /// The bytes of the granule the range covers, one bit each.
    #[inline]
    fn mask(self) -> u8 {
        let ones = (1u32 << self.size.min(8)) - 1;
        (ones << self.offset.min(8)) as u8
    }
}

/// Details of the prior access involved in a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceInfo {
    /// Thread slot of the prior access.
    pub prev_tid: u16,
    /// Scalar clock of the prior access.
    pub prev_clock: u64,
    /// Whether the prior access was a write.
    pub prev_was_write: bool,
}

impl RaceInfo {
    fn of(e: Epoch, prev_was_write: bool) -> RaceInfo {
        RaceInfo { prev_tid: e.tid, prev_clock: e.clock, prev_was_write }
    }
}

/// Outcome of one access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// The epoch the access was recorded with: what ARBALEST stamps in
    /// the shadow word's TID/clock fields.
    pub epoch: Epoch,
    /// The racing prior access, if any.
    pub race: Option<RaceInfo>,
}

/// Concurrent reads of one granule: one entry per reading slot, sorted by
/// slot, holding the epoch of the slot's latest read and the bytes it read
/// at that epoch (bit `i` = byte `i` of the granule). The state grows with
/// the number of readers, not with their slot numbers.
#[derive(Debug, Clone, Default)]
struct SharedReads(Vec<(Epoch, u8)>);

impl SharedReads {
    fn note(&mut self, e: Epoch, mask: u8) {
        match self.0.binary_search_by_key(&e.tid, |(r, _)| r.tid) {
            Ok(i) => {
                let (r, m) = &mut self.0[i];
                if e.clock > r.clock {
                    (*r, *m) = (e, mask);
                } else if e.clock == r.clock {
                    *m |= mask;
                }
            }
            Err(i) => self.0.insert(i, (e, mask)),
        }
    }

    /// The first reader, by slot, that `cell` has not observed and whose
    /// bytes overlap `mask`.
    fn racing(&self, cell: &TaskCell, mask: u8) -> Option<Epoch> {
        self.0.iter().find(|&&(e, m)| m & mask != 0 && !cell.covers(e)).map(|&(e, _)| e)
    }

    /// Heap bytes of the boxed state.
    fn heap_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.0.capacity() * std::mem::size_of::<(Epoch, u8)>())
            as u64
    }
}

/// Read side of a granule: the last read's epoch while reads are ordered,
/// else the concurrent readers. The epoch variant keeps its fields beside
/// the tag, so the whole state stays 16 bytes.
#[derive(Debug, Clone)]
enum ReadState {
    Epoch { tid: u16, range: ByteRange, clock: u64 },
    Shared(Box<SharedReads>),
}

impl ReadState {
    const fn epoch(e: Epoch, range: ByteRange) -> ReadState {
        ReadState::Epoch { tid: e.tid, range, clock: e.clock }
    }

    /// Heap bytes held beyond the enum itself.
    fn heap_bytes(&self) -> u64 {
        match self {
            ReadState::Shared(reads) => reads.heap_bytes(),
            ReadState::Epoch { .. } => 0,
        }
    }
}

/// One granule's FastTrack state, laid out flat: 32 bytes, so a history
/// page of 512 granules is 16 KiB.
#[derive(Debug, Clone)]
struct LocState {
    write_clock: u64,
    read: ReadState,
    write_tid: u16,
    write_range: ByteRange,
}

impl LocState {
    const NEW: LocState = LocState {
        write_clock: 0,
        read: ReadState::epoch(Epoch::ZERO, ByteRange::WORD),
        write_tid: 0,
        write_range: ByteRange::WORD,
    };

    #[inline]
    fn write(&self) -> Epoch {
        Epoch { tid: self.write_tid, clock: self.write_clock }
    }

    /// Whether the state is still the one of a granule nobody accessed.
    fn is_new(&self) -> bool {
        self.write() == Epoch::ZERO
            && self.write_range == ByteRange::WORD
            && matches!(self.read, ReadState::Epoch { tid: 0, clock: 0, range } if range == ByteRange::WORD)
    }
}

/// Log2 of the application bytes one history page covers.
const PAGE_SHIFT: u32 = 12;
/// Granules per history page.
const PAGE_GRANULES: usize = 1 << (PAGE_SHIFT - 3);

/// The FastTrack states of one 4 KiB page's granules, behind one lock.
type HistoryPage = Box<Mutex<[LocState; PAGE_GRANULES]>>;

fn new_history_page() -> HistoryPage {
    Box::new(Mutex::new([const { LocState::NEW }; PAGE_GRANULES]))
}

/// Per-location access history: the pages, plus the heap bytes of shared
/// read states, which the pages do not hold inline.
#[derive(Default)]
struct History {
    pages: PageTable<HistoryPage>,
    shared_bytes: AtomicU64,
}

impl History {
    /// Run `f` on the states of the granules `[lo, hi)` of one page, in
    /// ascending order, under the page's lock once.
    #[inline]
    fn with_granules(&self, lo: u64, hi: u64, mut f: impl FnMut(&mut LocState)) {
        let page = self.pages.get_or_init(lo >> PAGE_SHIFT, new_history_page);
        let mut locs = page.lock();
        for g in (lo..hi).step_by(8) {
            let loc = &mut locs[(g >> 3) as usize % PAGE_GRANULES];
            let before = loc.read.heap_bytes();
            f(loc);
            let after = loc.read.heap_bytes();
            if after != before {
                self.shared_bytes.fetch_add(after.wrapping_sub(before), Relaxed);
            }
        }
    }

    fn bytes(&self) -> u64 {
        let page = std::mem::size_of::<Mutex<[LocState; PAGE_GRANULES]>>() as u64;
        self.pages.len() as u64 * page + self.pages.node_bytes() + self.shared_bytes.load(Relaxed)
    }
}

/// One task's happens-before state.
struct TaskCell {
    tid: u16,
    /// The task's own scalar clock: its epoch is `tid@own`.
    own: u64,
    /// What the task has observed of other slots; `own` supersedes the
    /// entry of its own slot.
    vc: VectorClock,
    /// Ended: the clock is frozen.
    ended: bool,
    /// Ended and joined: the slot is back in the pool.
    released: bool,
}

impl TaskCell {
    /// An unregistered task: empty clock, zero epoch.
    const UNKNOWN: TaskCell = TaskCell::running(0, 0, VectorClock::new());

    const fn running(tid: u16, own: u64, vc: VectorClock) -> TaskCell {
        TaskCell { tid, own, vc, ended: false, released: false }
    }

    #[inline]
    fn epoch(&self) -> Epoch {
        Epoch { tid: self.tid, clock: self.own }
    }

    #[inline]
    fn get(&self, tid: u16) -> u64 {
        if tid == self.tid {
            self.own
        } else {
            self.vc.get(tid)
        }
    }

    /// `e ⪯` this task's clock.
    #[inline]
    fn covers(&self, e: Epoch) -> bool {
        e.clock <= self.get(e.tid)
    }

    /// The whole clock, own slot included.
    fn full(&self) -> VectorClock {
        let mut vc = self.vc.clone();
        vc.raise(self.tid, self.own);
        vc
    }
}

/// Slots handed out so far and the recycled ones.
struct SlotPool {
    /// Slots of ended-and-joined tasks with their last owner's final
    /// clock, most recently freed last.
    free: Vec<(u16, u64)>,
    /// Fresh slots handed out: `0..fresh`.
    fresh: u32,
}

impl SlotPool {
    /// A slot for a child whose inherited clock is `vc`: the newest pooled
    /// one whose final clock `vc` covers, else a fresh one; `None` when
    /// every slot is live.
    fn take(&mut self, vc: &VectorClock) -> Option<u16> {
        if let Some(i) = self.free.iter().rposition(|&(slot, last)| vc.get(slot) >= last) {
            return Some(self.free.remove(i).0);
        }
        let slot = u16::try_from(self.fresh).ok()?;
        self.fresh += 1;
        Some(slot)
    }
}

/// Task tables, split by task id: each behind its own lock.
const TASK_TABLES: usize = 16;

/// One task's clock state in a [`RaceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// Task id.
    pub task: u32,
    /// Assigned thread slot.
    pub tid: u16,
    /// The task's own scalar clock.
    pub own: u64,
    /// Raw vector-clock slots of what the task observed of other slots
    /// ([`VectorClock::slot_values`]).
    pub clock: Vec<u64>,
    /// Whether the task has ended.
    pub ended: bool,
    /// Whether the task was joined after it ended, returning its slot.
    pub released: bool,
}

/// Read side of one location in a [`RaceSnapshot`] (FastTrack's
/// epoch-or-shared-clock alternative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadSnapshot {
    /// Single last-read epoch with its byte range.
    Epoch {
        /// Reader's thread slot.
        tid: u16,
        /// Reader's scalar clock.
        clock: u64,
        /// Byte offset of the read within its granule.
        offset: u8,
        /// Byte size of the read.
        size: u8,
    },
    /// Concurrent reads: one `(slot, clock, byte mask)` per reading slot,
    /// sorted by slot: the slot's latest read and the bytes it read at
    /// that clock (bit `i` = byte `i` of the granule).
    Shared(Vec<(u16, u64, u8)>),
}

/// One location's FastTrack state in a [`RaceSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocSnapshot {
    /// Last-write thread slot.
    pub write_tid: u16,
    /// Last-write scalar clock.
    pub write_clock: u64,
    /// Byte offset of the last write within its granule.
    pub write_offset: u8,
    /// Byte size of the last write.
    pub write_size: u8,
    /// Read state.
    pub read: ReadSnapshot,
}

/// Complete serializable state of a [`RaceEngine`], produced by
/// [`RaceEngine::to_snapshot`] with every map sorted by key so equal
/// engine states yield equal (hence byte-identical, once encoded)
/// snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSnapshot {
    /// Task clocks, sorted by task id.
    pub tasks: Vec<TaskSnapshot>,
    /// Recycled slots with their last owner's final clock, in pool order.
    pub free_slots: Vec<(u16, u64)>,
    /// Fresh slots handed out so far.
    pub fresh_slots: u32,
    /// Per-granule location states, sorted by granule address.
    pub locs: Vec<(u64, LocSnapshot)>,
    /// Lock release clocks, sorted by lock id.
    pub locks: Vec<(u64, Vec<u64>)>,
}

/// A happens-before race detection engine.
pub struct RaceEngine {
    /// Task cells, sharded by task id.
    tasks: Vec<RwLock<HashMap<u32, TaskCell>>>,
    slots: Mutex<SlotPool>,
    history: History,
    /// Release clocks of lock objects (`omp critical` support).
    locks: Mutex<HashMap<u64, VectorClock>>,
}

impl Default for RaceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RaceEngine {
    /// Create an engine with task 0 (the host) already registered.
    pub fn new() -> Self {
        // The host holds slot 0.
        let engine = Self::empty(SlotPool { free: Vec::new(), fresh: 1 });
        engine.task_shard(0).write().insert(0, TaskCell::running(0, 1, VectorClock::new()));
        engine
    }

    fn empty(slots: SlotPool) -> Self {
        RaceEngine {
            tasks: (0..TASK_TABLES).map(|_| RwLock::new(HashMap::new())).collect(),
            slots: Mutex::new(slots),
            history: History::default(),
            locks: Mutex::new(HashMap::new()),
        }
    }

    #[inline]
    fn task_shard(&self, task: u32) -> &RwLock<HashMap<u32, TaskCell>> {
        &self.tasks[task as usize % TASK_TABLES]
    }

    /// Run `f` on the task's cell (an empty one for unknown tasks) under
    /// its shard's read lock.
    #[inline]
    fn with_task<R>(&self, task: u32, f: impl FnOnce(&TaskCell) -> R) -> R {
        let shard = self.task_shard(task).read();
        f(shard.get(&task).unwrap_or(&TaskCell::UNKNOWN))
    }

    /// Mutate a running task's cell; ended and unknown tasks are left as
    /// they are.
    fn update_running(&self, task: u32, f: impl FnOnce(&mut TaskCell)) {
        if let Some(t) = self.task_shard(task).write().get_mut(&task) {
            if !t.ended {
                f(t);
            }
        }
    }

    /// The (tid, clock) epoch a task would stamp on its next access —
    /// what ARBALEST stores in the shadow word's TID/clock fields.
    pub fn epoch_of(&self, task: u32) -> Epoch {
        self.with_task(task, TaskCell::epoch)
    }

    /// Fork: `child` begins, ordered after everything `parent` did so far.
    /// A fork of an already-registered child is ignored.
    pub fn fork(&self, parent: u32, child: u32) {
        let vc = self.with_task(parent, TaskCell::full);
        {
            let mut shard = self.task_shard(child).write();
            if shard.contains_key(&child) {
                return;
            }
            if let Some(tid) = self.slots.lock().take(&vc) {
                let own = vc.get(tid) + 1;
                shard.insert(child, TaskCell::running(tid, own, vc));
            }
        }
        // Parent ticks so its post-fork work is not ordered before the
        // child's view of it.
        self.update_running(parent, |p| p.own += 1);
    }

    /// Task end: freeze the task's final clock.
    pub fn end(&self, task: u32) {
        if let Some(t) = self.task_shard(task).write().get_mut(&task) {
            t.ended = true;
        }
    }

    /// Lock acquire: the task continues ordered after the lock's last
    /// release (FastTrack's `acquire` rule).
    pub fn acquire(&self, task: u32, lock: u64) {
        let lock_vc = self.locks.lock().get(&lock).cloned();
        if let Some(vc) = lock_vc {
            self.update_running(task, |t| t.vc.join(&vc));
        }
    }

    /// Lock release: publish the task's clock into the lock and tick.
    pub fn release(&self, task: u32, lock: u64) {
        let mut published = None;
        self.update_running(task, |t| {
            published = Some(t.full());
            t.own += 1;
        });
        if let Some(vc) = published {
            self.locks.lock().insert(lock, vc);
        }
    }

    /// Join: `waiter` continues, ordered after all of `joined`. The first
    /// join after `joined` ended returns its slot to the pool.
    pub fn join(&self, waiter: u32, joined: u32) {
        let (vc, freed) = {
            let mut shard = self.task_shard(joined).write();
            let Some(j) = shard.get_mut(&joined) else { return };
            let freed = (j.ended && !j.released).then(|| {
                j.released = true;
                (j.tid, j.own)
            });
            (j.full(), freed)
        };
        if let Some(slot) = freed {
            self.slots.lock().free.push(slot);
        }
        self.update_running(waiter, |w| {
            w.vc.join(&vc);
            w.own += 1;
        });
    }

    /// FastTrack check of one granule access by `cell`; records it.
    fn check_granule(
        cell: &TaskCell,
        loc: &mut LocState,
        range: ByteRange,
        is_write: bool,
    ) -> Option<RaceInfo> {
        let me = cell.epoch();
        let mut race = None;
        let write = loc.write();
        if !write.is_zero() && !cell.covers(write) && range.overlaps(loc.write_range) {
            race = Some(RaceInfo::of(write, true));
        }
        if is_write {
            if race.is_none() {
                race = match &loc.read {
                    &ReadState::Epoch { tid, range: r, clock } => {
                        let e = Epoch { tid, clock };
                        (!e.is_zero() && !cell.covers(e) && range.overlaps(r)).then_some(e)
                    }
                    ReadState::Shared(reads) => reads.racing(cell, range.mask()),
                }
                .map(|e| RaceInfo::of(e, false));
            }
            (loc.write_tid, loc.write_clock) = (me.tid, me.clock);
            loc.write_range = range;
            loc.read = ReadState::epoch(Epoch::ZERO, range);
        } else {
            match &mut loc.read {
                &mut ReadState::Epoch { tid, range: r, clock } => {
                    let e = Epoch { tid, clock };
                    if e.is_zero() || cell.covers(e) {
                        loc.read = ReadState::epoch(me, range);
                    } else {
                        // Concurrent reads: promote to a shared read state.
                        let mut reads = SharedReads::default();
                        reads.note(e, r.mask());
                        reads.note(me, range.mask());
                        loc.read = ReadState::Shared(Box::new(reads));
                    }
                }
                ReadState::Shared(reads) => reads.note(me, range.mask()),
            }
        }
        race
    }

    fn check(&self, task: u32, addr: u64, size: u8, is_write: bool) -> Checked {
        let range = ByteRange { offset: (addr & 7) as u8, size };
        let granule = addr & !7;
        self.with_task(task, |cell| {
            let mut race = None;
            self.history.with_granules(granule, granule.saturating_add(8), |loc| {
                race = Self::check_granule(cell, loc, range, is_write);
            });
            Checked { epoch: cell.epoch(), race }
        })
    }

    /// FastTrack read check at `addr` (byte address; `size` ∈ 1..=8).
    /// Returns the epoch recorded and the racing prior write, if any.
    pub fn check_read(&self, task: u32, addr: u64, size: u8) -> Checked {
        self.check(task, addr, size, false)
    }

    /// FastTrack write check; returns the epoch recorded and the racing
    /// prior access, if any.
    pub fn check_write(&self, task: u32, addr: u64, size: u8) -> Checked {
        self.check(task, addr, size, true)
    }

    fn check_range(&self, task: u32, addr: u64, len: u64, is_write: bool) -> Option<RaceInfo> {
        let end = addr.saturating_add(len);
        self.with_task(task, |cell| {
            let mut first = None;
            let mut lo = addr & !7;
            while lo < end {
                // The granules of `lo`'s page that the range covers.
                let page_end = (lo | ((1 << PAGE_SHIFT) - 1)).saturating_add(1);
                let hi = end.min(page_end);
                self.history.with_granules(lo, hi, |loc| {
                    if let Some(r) = Self::check_granule(cell, loc, ByteRange::WORD, is_write) {
                        first.get_or_insert(r);
                    }
                });
                lo = page_end;
            }
            first
        })
    }

    /// Range write check: used for transfers, which behave like writes of
    /// the destination range and reads of the source range by the
    /// transferring task. Takes the task's clock once for the whole range
    /// and returns the first race found.
    pub fn check_write_range(&self, task: u32, addr: u64, len: u64) -> Option<RaceInfo> {
        self.check_range(task, addr, len, true)
    }

    /// Range read check (see [`Self::check_write_range`]).
    pub fn check_read_range(&self, task: u32, addr: u64, len: u64) -> Option<RaceInfo> {
        self.check_range(task, addr, len, false)
    }

    /// Drop the recorded per-location access history — the bulk of the
    /// engine's footprint — keeping task clocks and lock release clocks.
    ///
    /// Losing prior-access records can only *miss* races (a race needs a
    /// recorded unordered prior access), never invent one, so eviction is
    /// safe in the no-false-positive direction. Task and lock clocks are
    /// small and retaining them keeps every happens-before edge intact
    /// for accesses made after the eviction.
    pub fn evict_history(&mut self) {
        self.history = History::default();
    }

    /// Dump the complete engine state as plain data for durable session
    /// snapshots. Every map is emitted sorted by key so two dumps of
    /// identical state are identical, independent of hash iteration order.
    pub fn to_snapshot(&self) -> RaceSnapshot {
        let mut tasks: Vec<TaskSnapshot> = Vec::new();
        for s in &self.tasks {
            tasks.extend(s.read().iter().map(|(&task, t)| TaskSnapshot {
                task,
                tid: t.tid,
                own: t.own,
                clock: t.vc.slot_values().to_vec(),
                ended: t.ended,
                released: t.released,
            }));
        }
        tasks.sort_unstable_by_key(|t| t.task);
        let mut locs: Vec<(u64, LocSnapshot)> = Vec::new();
        self.history.pages.for_each(|idx, page| {
            for (g, loc) in page.lock().iter().enumerate() {
                if loc.is_new() {
                    continue;
                }
                locs.push((
                    (idx << PAGE_SHIFT) | ((g as u64) << 3),
                    LocSnapshot {
                        write_tid: loc.write_tid,
                        write_clock: loc.write_clock,
                        write_offset: loc.write_range.offset,
                        write_size: loc.write_range.size,
                        read: match &loc.read {
                            &ReadState::Epoch { tid, range, clock } => ReadSnapshot::Epoch {
                                tid,
                                clock,
                                offset: range.offset,
                                size: range.size,
                            },
                            ReadState::Shared(reads) => ReadSnapshot::Shared(
                                reads.0.iter().map(|&(e, m)| (e.tid, e.clock, m)).collect(),
                            ),
                        },
                    },
                ));
            }
        });
        let mut locks: Vec<(u64, Vec<u64>)> =
            self.locks.lock().iter().map(|(&l, vc)| (l, vc.slot_values().to_vec())).collect();
        locks.sort_unstable_by_key(|&(l, _)| l);
        let slots = self.slots.lock();
        RaceSnapshot {
            tasks,
            free_slots: slots.free.clone(),
            fresh_slots: slots.fresh,
            locs,
            locks,
        }
    }

    /// Rebuild an engine from a [`RaceSnapshot`]. The root task is NOT
    /// re-registered — the snapshot already carries it — so slot
    /// assignment resumes exactly where the dumped engine left off.
    pub fn from_snapshot(snap: &RaceSnapshot) -> RaceEngine {
        let engine = Self::empty(SlotPool {
            free: snap.free_slots.clone(),
            fresh: snap.fresh_slots.min(MAX_TIDS as u32),
        });
        for t in &snap.tasks {
            engine.task_shard(t.task).write().insert(
                t.task,
                TaskCell {
                    tid: t.tid,
                    own: t.own,
                    vc: VectorClock::from_slots(t.clock.clone()),
                    ended: t.ended,
                    released: t.released,
                },
            );
        }
        for (granule, loc) in &snap.locs {
            let granule = granule & !7;
            engine.history.with_granules(granule, granule.saturating_add(8), |state| {
                *state = LocState {
                    write_clock: loc.write_clock,
                    write_tid: loc.write_tid,
                    write_range: ByteRange { offset: loc.write_offset, size: loc.write_size },
                    read: match &loc.read {
                        &ReadSnapshot::Epoch { tid, clock, offset, size } => {
                            ReadState::Epoch { tid, range: ByteRange { offset, size }, clock }
                        }
                        ReadSnapshot::Shared(reads) => ReadState::Shared(Box::new(SharedReads(
                            reads
                                .iter()
                                .map(|&(tid, clock, m)| (Epoch { tid, clock }, m))
                                .collect(),
                        ))),
                    },
                };
            });
        }
        {
            let mut locks = engine.locks.lock();
            for (l, slots) in &snap.locks {
                locks.insert(*l, VectorClock::from_slots(slots.clone()));
            }
        }
        engine
    }

    /// Approximate bytes held by clocks and location history (Fig. 9):
    /// whole history pages, the table nodes above them and the shared-read
    /// entries.
    pub fn approx_bytes(&self) -> u64 {
        let task_bytes: u64 = self
            .tasks
            .iter()
            .map(|s| s.read().values().map(|t| t.vc.approx_bytes() + 32).sum::<u64>())
            .sum();
        let lock_bytes: u64 = self.locks.lock().values().map(|v| v.approx_bytes() + 16).sum();
        task_bytes + self.history.bytes() + lock_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Task ids for readability.
    const HOST: u32 = 0;

    #[test]
    fn ordered_accesses_do_not_race() {
        let e = RaceEngine::new();
        assert!(e.check_write(HOST, 0x100, 8).race.is_none());
        e.fork(HOST, 1);
        // Child write after parent write: ordered by fork.
        assert!(e.check_write(1, 0x100, 8).race.is_none());
        e.end(1);
        e.join(HOST, 1);
        // Parent read after join: ordered.
        assert!(e.check_read(HOST, 0x100, 8).race.is_none());
    }

    #[test]
    fn concurrent_write_write_races() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        assert!(e.check_write(1, 0x200, 8).race.is_none());
        let race = e.check_write(2, 0x200, 8).race.expect("siblings race");
        assert!(race.prev_was_write);
    }

    #[test]
    fn concurrent_read_write_races_but_read_read_does_not() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        assert!(e.check_read(1, 0x300, 8).race.is_none());
        assert!(e.check_read(2, 0x300, 8).race.is_none(), "read-read is fine");
        let race = e.check_write(2, 0x300, 8).race;
        // Reader 1 is concurrent with writer 2.
        assert!(race.is_some());
        assert!(!race.unwrap().prev_was_write);
    }

    #[test]
    fn racing_write_then_read_detected() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        assert!(e.check_write(1, 0x400, 8).race.is_none());
        // Host never joined task 1 → host read races child write.
        let race = e.check_read(HOST, 0x400, 8).race.expect("unordered read");
        assert!(race.prev_was_write);
    }

    #[test]
    fn join_orders_subsequent_accesses() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.check_write(1, 0x500, 8);
        e.end(1);
        e.join(HOST, 1);
        assert!(e.check_write(HOST, 0x500, 8).race.is_none());
    }

    #[test]
    fn disjoint_bytes_in_one_granule_do_not_race() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        assert!(e.check_write(1, 0x600, 4).race.is_none());
        assert!(e.check_write(2, 0x604, 4).race.is_none(), "different halves of the word");
        // Same half does race (fresh granule so the last-write range is 1's).
        assert!(e.check_write(1, 0x610, 4).race.is_none());
        assert!(e.check_write(2, 0x610, 4).race.is_some());
    }

    #[test]
    fn transitive_ordering_via_intermediate_join() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.check_write(1, 0x700, 8);
        e.end(1);
        // Task 2 joins 1, then writes: ordered after 1.
        e.fork(HOST, 2);
        e.join(2, 1);
        assert!(e.check_write(2, 0x700, 8).race.is_none());
    }

    #[test]
    fn shared_read_promotion_then_ordered_write() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_read(1, 0x800, 8);
        e.check_read(2, 0x800, 8);
        e.end(1);
        e.end(2);
        e.join(HOST, 1);
        e.join(HOST, 2);
        // After joining both readers the host write is ordered.
        assert!(e.check_write(HOST, 0x800, 8).race.is_none());
    }

    #[test]
    fn range_checks_cover_every_granule() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        assert!(e.check_write(1, 0x918, 8).race.is_none());
        // Host range-write over [0x900, 0x940) hits granule 0x918.
        let race = e.check_write_range(HOST, 0x900, 0x40);
        assert!(race.is_some());
    }

    #[test]
    fn critical_sections_order_siblings() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        // Task 1 writes inside the critical section, then releases.
        e.acquire(1, 99);
        assert!(e.check_write(1, 0xA00, 8).race.is_none());
        e.release(1, 99);
        // Task 2 acquires the same lock: ordered after task 1's write.
        e.acquire(2, 99);
        assert!(e.check_write(2, 0xA00, 8).race.is_none(), "lock ordering suppresses the race");
        e.release(2, 99);
    }

    #[test]
    fn different_locks_do_not_order() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.acquire(1, 1);
        e.check_write(1, 0xB00, 8);
        e.release(1, 1);
        e.acquire(2, 2); // a different lock
        let race = e.check_write(2, 0xB00, 8).race;
        assert!(race.is_some(), "disjoint locks provide no ordering");
    }

    #[test]
    fn snapshot_restores_identical_behaviour_and_state() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_read(1, 0x800, 8);
        e.check_read(2, 0x800, 8); // promotes to a shared read state
        e.check_write(1, 0x900, 4);
        e.acquire(1, 99);
        e.release(1, 99);
        e.end(2);
        let snap = e.to_snapshot();
        let r = RaceEngine::from_snapshot(&snap);
        // State round trip is exact: re-snapshotting yields equal data.
        assert_eq!(r.to_snapshot(), snap);
        // Behaviour matches the live engine on the next events.
        assert_eq!(e.epoch_of(HOST), r.epoch_of(HOST));
        assert_eq!(e.epoch_of(1), r.epoch_of(1));
        let live = e.check_write(HOST, 0x800, 8).race;
        let rec = r.check_write(HOST, 0x800, 8).race;
        assert_eq!(live, rec, "shared-read race must survive the snapshot");
        assert!(live.is_some());
        // Slot allocation resumes identically (no double-registered root).
        e.fork(HOST, 3);
        r.fork(HOST, 3);
        assert_eq!(e.epoch_of(3), r.epoch_of(3));
    }

    #[test]
    fn epoch_of_reflects_progress() {
        let e = RaceEngine::new();
        let e0 = e.epoch_of(HOST);
        e.fork(HOST, 1);
        let e1 = e.epoch_of(HOST);
        assert!(e1.clock > e0.clock, "fork ticks the parent");
        assert_eq!(e0.tid, e1.tid);
        let c = e.epoch_of(1);
        assert_ne!(c.tid, e0.tid);
    }

    #[test]
    fn checks_hand_back_the_stamped_epoch() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        let c = e.check_write(1, 0xC00, 8);
        assert_eq!(c.epoch, e.epoch_of(1));
        assert_eq!(e.check_read(HOST, 0xC08, 8).epoch, e.epoch_of(HOST));
        // An unknown task checks against an empty clock and stamps zero.
        assert_eq!(e.check_read(77, 0xC10, 8).epoch, Epoch::ZERO);
    }

    #[test]
    fn shared_reads_keep_their_byte_extents() {
        let e = RaceEngine::new();
        for t in 1..=3 {
            e.fork(HOST, t);
        }
        // Two concurrent reads of bytes 0..4 promote to a shared state.
        assert!(e.check_read(1, 0xD00, 4).race.is_none());
        assert!(e.check_read(2, 0xD00, 4).race.is_none());
        assert!(
            e.check_write(3, 0xD04, 4).race.is_none(),
            "a write of bytes 4..8 does not collide with reads of bytes 0..4"
        );
        // The same reads followed by an overlapping write do race.
        e.check_read(1, 0xD10, 4);
        e.check_read(2, 0xD10, 4);
        let race = e.check_write(3, 0xD12, 2).race.expect("overlapping bytes race");
        assert!(!race.prev_was_write);
        assert_eq!(race.prev_tid, e.epoch_of(1).tid, "the first unordered reader is named");
    }

    #[test]
    fn shared_reads_on_high_slots_stay_small_and_are_counted() {
        let e = RaceEngine::new();
        for t in 1..=4200 {
            e.fork(HOST, t);
        }
        let (a, b) = (4198, 4199);
        assert!(e.epoch_of(a).tid > 4095 && e.epoch_of(b).tid > 4095);
        e.check_read(a, 0x3008, 8); // the history page is resident from here on
        let before = e.approx_bytes();
        e.check_read(a, 0x3000, 8);
        e.check_read(b, 0x3000, 8); // promotes to a shared state
        let grown = e.approx_bytes() - before;
        assert!(grown > 0, "the shared entries are counted");
        assert!(grown < 512, "two readers on high slots hold {grown} bytes");
        let race = e.check_write(4200, 0x3000, 8).race.expect("unordered readers");
        assert_eq!(race.prev_tid, e.epoch_of(a).tid, "the lower reading slot is named");
        assert_eq!(e.approx_bytes(), before, "the write dropped the shared entries");
        let snap = e.to_snapshot();
        assert_eq!(RaceEngine::from_snapshot(&snap).to_snapshot(), snap);
    }

    fn fork_end_join(e: &RaceEngine, parent: u32, child: u32) {
        e.fork(parent, child);
        e.end(child);
        e.join(parent, child);
    }

    #[test]
    fn slots_of_joined_tasks_are_recycled() {
        let e = RaceEngine::new();
        for t in 1..=10_000 {
            fork_end_join(&e, HOST, t);
        }
        let snap = e.to_snapshot();
        assert!(snap.fresh_slots <= 2, "fresh slots {}", snap.fresh_slots);
        assert!(snap.tasks.iter().all(|t| t.clock.len() <= 2));
    }

    #[test]
    fn more_than_4096_live_tasks_take_distinct_slots() {
        let e = RaceEngine::new();
        for t in 1..=5000 {
            e.fork(HOST, t);
        }
        let snap = e.to_snapshot();
        let mut tids: Vec<u16> = snap.tasks.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 5001, "no two live tasks share a slot");
        // Slots 4097 apart in 12 bits still tell their tasks apart.
        let a = (1..=5000).find(|&t| e.epoch_of(t).tid == 10).unwrap();
        let b = (1..=5000).find(|&t| e.epoch_of(t).tid == 4106).unwrap();
        assert!(e.check_write(a, 0xF00, 8).race.is_none());
        assert!(e.check_write(b, 0xF00, 8).race.is_some());
        // Live children's clocks stay narrow: their own slot is not stored.
        assert!(snap.tasks.iter().all(|t| t.clock.len() <= 1));
    }

    #[test]
    fn a_slot_is_reused_only_when_the_parent_covers_its_last_owner() {
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(1, 2);
        e.check_write(2, 0x1000, 8);
        e.end(2);
        e.join(1, 2); // 2's slot is pooled; only task 1 has observed it
        e.fork(HOST, 3);
        assert_ne!(e.epoch_of(3).tid, e.epoch_of(2).tid, "the host never observed task 2");
        assert!(e.check_write(3, 0x1000, 8).race.is_some());
        e.fork(1, 4);
        assert_eq!(e.epoch_of(4).tid, e.epoch_of(2).tid, "task 1 covers task 2's final clock");
        assert!(e.epoch_of(4).clock > e.epoch_of(2).clock);
        assert!(e.check_write(4, 0x1000, 8).race.is_some(), "task 3's write is unordered");
    }

    #[test]
    fn malformed_sync_streams_neither_panic_nor_unlock_reuse() {
        let e = RaceEngine::new();
        e.fork(HOST, u32::MAX);
        e.fork(u32::MAX, 7);
        e.join(HOST, 123_456_789); // unknown
        e.join(HOST, 7); // still running: its slot stays taken
        e.join(7, 7);
        e.end(404);
        e.fork(HOST, 7); // already registered: ignored
        e.check_write(7, 0x2000, 8);
        e.fork(HOST, 8);
        assert_ne!(e.epoch_of(8).tid, e.epoch_of(7).tid);
        assert!(e.check_write(8, 0x2000, 8).race.is_some());
        assert!(e.check_write_range(9, u64::MAX - 4, 64).is_none());
        e.check_write(7, u64::MAX - 3, 4);
        assert!(e.check_write(8, u64::MAX - 3, 4).race.is_some(), "the top granule is checked");
        // Only the two touched history pages, with the table nodes above
        // them, hold memory; the clocks stay small.
        assert_eq!(e.history.pages.len(), 2);
        assert!(e.approx_bytes() - e.history.bytes() < 1 << 12);
    }
}
