//! The FastTrack engine.
//!
//! Read/write checks follow Flanagan & Freund's FastTrack rules: each
//! location keeps the last-write epoch and either a last-read epoch or —
//! after concurrent reads — one read epoch per reading slot. Most checks
//! and updates are O(1) epoch comparisons; only reads and writes of a
//! location read concurrently pay for the number of its readers.
//!
//! A task's happens-before state lives in its own cell: its slot, its own
//! scalar clock and what it has observed of other slots. Only sync events
//! (fork, join, acquire, release, end) change a cell; each takes the task
//! table's lock and then bumps the engine's sync generation. A check reads
//! the cell from a small per-thread cache keyed by engine id, generation
//! and task id, and copies it out of the table only when the generation
//! moved; a range check does this once per transfer. So while no sync
//! event intervenes, an access takes no table lock and hashes no task id.
//!
//! Location history lives in a [`PageTable`] with one page per 4 KiB of
//! memory: one mutex over its granules' states and, beside them, two
//! lock-free repeat slots per granule. A slot holds an access, packed into
//! one word, whose repetition is a race-free no-op on the granule's state.
//! A check finds its page with a few plain loads; when its own word is in
//! a slot it returns at once, with no lock and no store, and otherwise it
//! locks the page, checks the granule and rewrites the slots. A range
//! check locks each page it covers once.
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
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

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

/// An access packed into one repeat-slot word: clock (39 bits), thread
/// slot (16), byte mask (8) and kind (1, set for a write). Accesses that
/// get no slot pack to 0, the empty slot: unknown tasks (clock 0), clocks
/// that do not fit, and empty ranges or ranges that leave the granule,
/// whose masks do not name their bytes.
#[inline]
fn repeat_word(e: Epoch, range: ByteRange, is_write: bool) -> u64 {
    let bytes = u16::from(range.offset) + u16::from(range.size);
    if e.clock == 0 || e.clock >> 39 != 0 || range.size == 0 || bytes > 8 {
        return 0;
    }
    e.clock << 25 | u64::from(e.tid) << 9 | u64::from(range.mask()) << 1 | u64::from(is_write)
}

/// Rewrite a granule's repeat slots, under its page's lock, after `me`'s
/// access packed as `word` left the granule's state at `loc`; `raced` is
/// its verdict. A race-free access records itself; a racy one records
/// nothing, so its repeat reports again. The other slot survives only a
/// read that leaves the state shared, and only if it holds another
/// thread's read: that reader's entry and the write it was checked
/// against are untouched. A slot that would not change is not stored.
fn note_repeat(
    slots: &[AtomicU64; 2],
    loc: &LocState,
    me: Epoch,
    word: u64,
    is_write: bool,
    raced: bool,
) {
    let shared = !is_write && matches!(loc.read, ReadState::Shared(_));
    let old = [slots[0].load(Relaxed), slots[1].load(Relaxed)];
    let other_read = |w: u64| w != 0 && w & 1 == 0 && (w >> 9) as u16 != me.tid;
    let kept = old.into_iter().find(|&w| shared && other_read(w)).unwrap_or(0);
    let new = if raced || word == 0 { [kept, 0] } else { [word, kept] };
    for (slot, (o, n)) in slots.iter().zip(old.into_iter().zip(new)) {
        if o != n {
            slot.store(n, Relaxed);
        }
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

/// One granule's FastTrack state, laid out flat: 32 bytes, so the states
/// of a history page's 512 granules take 16 KiB.
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

/// The history of one 4 KiB page: its granules' FastTrack states behind
/// one lock, and beside them each granule's repeat slots, read without it
/// (16 + 8 KiB).
///
/// A nonzero slot holds the [`repeat_word`] of an access that would be a
/// race-free no-op on its granule's current state, for any task at that
/// epoch: while a task keeps its epoch its clock only grows, so neither
/// the verdict nor the update can change. Slots are written only under
/// the lock, and every state change rewrites them (`note_repeat`).
struct HistoryPage {
    repeats: [[AtomicU64; 2]; PAGE_GRANULES],
    locs: Mutex<[LocState; PAGE_GRANULES]>,
}

fn new_history_page() -> Box<HistoryPage> {
    Box::new(HistoryPage {
        repeats: [const { [const { AtomicU64::new(0) }; 2] }; PAGE_GRANULES],
        locs: Mutex::new([const { LocState::NEW }; PAGE_GRANULES]),
    })
}

/// Index of `addr`'s granule within its history page.
#[inline]
fn granule_index(addr: u64) -> usize {
    (addr >> 3) as usize % PAGE_GRANULES
}

/// Per-location access history: the pages, plus the heap bytes of shared
/// read states, which the pages do not hold inline.
#[derive(Default)]
struct History {
    pages: PageTable<Box<HistoryPage>>,
    shared_bytes: AtomicU64,
}

impl History {
    /// The page holding `addr`'s granule, made on first touch.
    #[inline]
    fn page(&self, addr: u64) -> &HistoryPage {
        self.pages.get_or_init(addr >> PAGE_SHIFT, new_history_page)
    }

    /// Run `f` on one granule's state, under its page's lock, counting
    /// any change in the heap bytes of its shared read state.
    #[inline]
    fn update<R>(&self, loc: &mut LocState, f: impl FnOnce(&mut LocState) -> R) -> R {
        let before = loc.read.heap_bytes();
        let r = f(loc);
        let after = loc.read.heap_bytes();
        if after != before {
            self.shared_bytes.fetch_add(after.wrapping_sub(before), Relaxed);
        }
        r
    }

    fn bytes(&self) -> u64 {
        let page = std::mem::size_of::<HistoryPage>() as u64;
        self.pages.len() as u64 * page + self.pages.node_bytes() + self.shared_bytes.load(Relaxed)
    }
}

/// One task's happens-before state.
#[derive(Clone)]
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

/// Entries of the per-thread task-cell cache.
const TASK_CACHE_ENTRIES: usize = 4;

/// A task's cell one thread copied out of an engine's table, valid while
/// the engine's sync generation is the one it was copied under.
struct CachedCell {
    engine: u64,
    generation: u64,
    task: u32,
    cell: TaskCell,
}

/// The calling thread's recently used task cells, for every engine it
/// feeds, replaced round-robin.
struct TaskCache {
    entries: [CachedCell; TASK_CACHE_ENTRIES],
    next: usize,
}

impl TaskCache {
    /// The entry of `task` copied under `generation`, copying it from
    /// `tasks` on a miss.
    #[inline]
    fn get(
        &mut self,
        engine: u64,
        generation: u64,
        task: u32,
        tasks: &RwLock<HashMap<u32, TaskCell>>,
    ) -> &TaskCell {
        let hit = self
            .entries
            .iter()
            .position(|e| e.engine == engine && e.generation == generation && e.task == task);
        let i = hit.unwrap_or_else(|| {
            let i = self.next;
            self.next = (i + 1) % TASK_CACHE_ENTRIES;
            let e = &mut self.entries[i];
            (e.engine, e.generation, e.task) = (engine, generation, task);
            // `clone_from` keeps the entry's clock allocation.
            e.cell.clone_from(tasks.read().get(&task).unwrap_or(&TaskCell::UNKNOWN));
            i
        });
        &self.entries[i].cell
    }
}

thread_local! {
    static TASK_CACHE: RefCell<TaskCache> = const {
        RefCell::new(TaskCache {
            // Engine 0 matches no engine: ids start at 1.
            entries: [const {
                CachedCell { engine: 0, generation: 0, task: 0, cell: TaskCell::UNKNOWN }
            }; TASK_CACHE_ENTRIES],
            next: 0,
        })
    };
}

/// Source of engine ids; never reused, so a cached cell can never be taken
/// for another engine's.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

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
    /// Process-unique, for the per-thread task-cell cache.
    id: u64,
    /// Bumped after every sync event's change to a task cell.
    generation: AtomicU64,
    tasks: RwLock<HashMap<u32, TaskCell>>,
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

/// Mutate a running task's cell; ended and unknown tasks are left as they
/// are.
fn update_running(tasks: &mut HashMap<u32, TaskCell>, task: u32, f: impl FnOnce(&mut TaskCell)) {
    if let Some(t) = tasks.get_mut(&task).filter(|t| !t.ended) {
        f(t);
    }
}

impl RaceEngine {
    /// Create an engine with task 0 (the host) already registered.
    pub fn new() -> Self {
        // The host holds slot 0.
        let engine = Self::empty(SlotPool { free: Vec::new(), fresh: 1 });
        engine.tasks.write().insert(0, TaskCell::running(0, 1, VectorClock::new()));
        engine
    }

    fn empty(slots: SlotPool) -> Self {
        RaceEngine {
            id: NEXT_ENGINE_ID.fetch_add(1, Relaxed),
            generation: AtomicU64::new(0),
            tasks: RwLock::new(HashMap::new()),
            slots: Mutex::new(slots),
            history: History::default(),
            locks: Mutex::new(HashMap::new()),
        }
    }

    /// Run `f` on the task's cell (an empty one for unknown tasks), read
    /// through the calling thread's cache.
    #[inline]
    fn with_task<R>(&self, task: u32, f: impl FnOnce(&TaskCell) -> R) -> R {
        // Read the generation before the table: a cell copied under it
        // cannot outlive a sync event, which bumps it after the change.
        let generation = self.generation.load(Acquire);
        TASK_CACHE.with(|c| f(c.borrow_mut().get(self.id, generation, task, &self.tasks)))
    }

    /// Publish a sync event's change to a task cell to every thread's
    /// cache.
    fn synced(&self) {
        self.generation.fetch_add(1, Release);
    }

    /// The (tid, clock) epoch a task would stamp on its next access —
    /// what ARBALEST stores in the shadow word's TID/clock fields.
    pub fn epoch_of(&self, task: u32) -> Epoch {
        self.with_task(task, TaskCell::epoch)
    }

    /// Fork: `child` begins, ordered after everything `parent` did so far.
    /// A fork of an already-registered child is ignored.
    pub fn fork(&self, parent: u32, child: u32) {
        let mut tasks = self.tasks.write();
        if tasks.contains_key(&child) {
            return;
        }
        let vc = tasks.get(&parent).map_or_else(VectorClock::new, TaskCell::full);
        if let Some(tid) = self.slots.lock().take(&vc) {
            let own = vc.get(tid) + 1;
            tasks.insert(child, TaskCell::running(tid, own, vc));
        }
        // Parent ticks so its post-fork work is not ordered before the
        // child's view of it.
        update_running(&mut tasks, parent, |p| p.own += 1);
        drop(tasks);
        self.synced();
    }

    /// Task end: freeze the task's final clock.
    pub fn end(&self, task: u32) {
        if let Some(t) = self.tasks.write().get_mut(&task) {
            t.ended = true;
        }
        self.synced();
    }

    /// Lock acquire: the task continues ordered after the lock's last
    /// release (FastTrack's `acquire` rule).
    pub fn acquire(&self, task: u32, lock: u64) {
        let lock_vc = self.locks.lock().get(&lock).cloned();
        if let Some(vc) = lock_vc {
            update_running(&mut self.tasks.write(), task, |t| t.vc.join(&vc));
            self.synced();
        }
    }

    /// Lock release: publish the task's clock into the lock and tick.
    pub fn release(&self, task: u32, lock: u64) {
        let mut published = None;
        update_running(&mut self.tasks.write(), task, |t| {
            published = Some(t.full());
            t.own += 1;
        });
        if let Some(vc) = published {
            self.locks.lock().insert(lock, vc);
            self.synced();
        }
    }

    /// Join: `waiter` continues, ordered after all of `joined`. The first
    /// join after `joined` ended returns its slot to the pool.
    pub fn join(&self, waiter: u32, joined: u32) {
        let mut tasks = self.tasks.write();
        let Some(j) = tasks.get_mut(&joined) else { return };
        if j.ended && !j.released {
            j.released = true;
            self.slots.lock().free.push((j.tid, j.own));
        }
        let vc = j.full();
        update_running(&mut tasks, waiter, |w| {
            w.vc.join(&vc);
            w.own += 1;
        });
        drop(tasks);
        self.synced();
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

    /// The FastTrack check of one granule, under its page's lock, and the
    /// rewrite of the granule's repeat slots; `word` packs the access.
    #[inline]
    fn check_locked(
        &self,
        loc: &mut LocState,
        slots: &[AtomicU64; 2],
        cell: &TaskCell,
        range: ByteRange,
        is_write: bool,
        word: u64,
    ) -> Option<RaceInfo> {
        let race = self.history.update(loc, |loc| Self::check_granule(cell, loc, range, is_write));
        note_repeat(slots, loc, cell.epoch(), word, is_write, race.is_some());
        race
    }

    fn check(&self, task: u32, addr: u64, size: u8, is_write: bool) -> Checked {
        let range = ByteRange { offset: (addr & 7) as u8, size };
        let granule = addr & !7;
        self.with_task(task, |cell| {
            let epoch = cell.epoch();
            let word = repeat_word(epoch, range, is_write);
            let page = self.history.page(granule);
            let i = granule_index(granule);
            // A repeat of a recorded access: no lock and no store.
            if word != 0 && page.repeats[i].iter().any(|s| s.load(Relaxed) == word) {
                return Checked { epoch, race: None };
            }
            let mut locs = page.locs.lock();
            let race =
                self.check_locked(&mut locs[i], &page.repeats[i], cell, range, is_write, word);
            Checked { epoch, race }
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
            let range = ByteRange::WORD;
            let word = repeat_word(cell.epoch(), range, is_write);
            let mut first = None;
            let mut lo = addr & !7;
            while lo < end {
                // The granules of `lo`'s page that the range covers, under
                // the page's lock once.
                let page_end = (lo | ((1 << PAGE_SHIFT) - 1)).saturating_add(1);
                let page = self.history.page(lo);
                let mut locs = page.locs.lock();
                for g in (lo..end.min(page_end)).step_by(8) {
                    let i = granule_index(g);
                    let (loc, slots) = (&mut locs[i], &page.repeats[i]);
                    first = first.or(self.check_locked(loc, slots, cell, range, is_write, word));
                }
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
        let mut tasks: Vec<TaskSnapshot> = self
            .tasks
            .read()
            .iter()
            .map(|(&task, t)| TaskSnapshot {
                task,
                tid: t.tid,
                own: t.own,
                clock: t.vc.slot_values().to_vec(),
                ended: t.ended,
                released: t.released,
            })
            .collect();
        tasks.sort_unstable_by_key(|t| t.task);
        let mut locs: Vec<(u64, LocSnapshot)> = Vec::new();
        self.history.pages.for_each(|idx, page| {
            for (g, loc) in page.locs.lock().iter().enumerate() {
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
        engine.tasks.write().extend(snap.tasks.iter().map(|t| {
            let cell = TaskCell {
                tid: t.tid,
                own: t.own,
                vc: VectorClock::from_slots(t.clock.clone()),
                ended: t.ended,
                released: t.released,
            };
            (t.task, cell)
        }));
        // Restored pages start with empty repeat slots.
        for (granule, loc) in &snap.locs {
            let page = engine.history.page(*granule);
            let mut locs = page.locs.lock();
            engine.history.update(&mut locs[granule_index(*granule)], |state| {
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
        let task_bytes: u64 = self.tasks.read().values().map(|t| t.vc.approx_bytes() + 32).sum();
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

    #[test]
    fn a_read_that_leaves_an_epoch_read_state_clears_other_readers_slots() {
        // Task 2 joins task 1 while 1 still runs, so 2 covers 1's epoch and
        // 1 keeps it. 2's read then replaces 1's epoch read of the granule,
        // and 1's next read must go back into the state, not be skipped as
        // a repeat.
        let e = RaceEngine::new();
        e.fork(HOST, 1);
        e.fork(HOST, 2);
        e.check_read(1, 0xE00, 8);
        e.join(2, 1);
        e.check_read(2, 0xE00, 8);
        e.check_read(1, 0xE00, 8);
        let snap = e.to_snapshot();
        let (_, loc) = snap.locs.iter().find(|(g, _)| *g == 0xE00).expect("touched");
        assert!(matches!(&loc.read, ReadSnapshot::Shared(r) if r.len() == 2), "{loc:?}");
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
