//! The ARBALEST detector (§IV–V).
//!
//! Per aligned 8-byte granule of every tracked host variable, ARBALEST
//! keeps one Table II shadow word, updated with lock-free compare-and-swap
//! so analysis runs fully concurrently with the program (§IV-C). Kernel
//! accesses land on CV device addresses; an interval tree (with a small
//! per-thread cache of recent lookups) resolves them back to the OV's
//! shadow in O(log m) — amortised O(1) — and doubles as the §IV-D
//! mapping-related buffer-overflow detector. A FastTrack engine (ARBALEST
//! is built on Archer) supplies the happens-before side: data races are
//! reported and the Table II TID/clock fields are stamped from the racing
//! task's epoch.

use crate::vsm::{self, StorageLoc, ViolationKind, VsmOp};
use arbalest_offload::addr::DeviceId;
use arbalest_offload::buffer::{BufferId, BufferInfo};
use arbalest_offload::events::{
    AccessEvent, DataOpEvent, DataOpKind, SrcLoc, SyncEvent, Tool, TransferEvent, TransferKind,
};
use arbalest_offload::report::{hints, PrevAccess, ProvenanceStep, Report, ReportKind};
use arbalest_offload::sections;
use arbalest_race::{Epoch, RaceEngine};
use arbalest_shadow::{IntervalTree, Layout, ShadowMemory};
use arbalest_sync::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Deduplication key: (kind, buffer, file, line).
type ReportKey = (ReportKind, Option<u32>, &'static str, u32);

/// Edges kept per buffer when provenance capture is on. A mapping-issue
/// story is short (map, transfer, a few accesses); the ring only has to
/// outlive the window between the decisive edges and the faulting read.
const PROV_RING_CAP: usize = 16;

/// Interval payload: which buffer a CV belongs to and where its OV lives.
#[derive(Debug, Clone, Copy)]
struct CvInfo {
    buffer: BufferId,
    ov_addr: u64,
}

/// Entries of the per-thread CV lookup cache.
const CV_CACHE_ENTRIES: usize = 16;

/// A CV interval one thread resolved, valid while its detector's
/// generation is the one it was resolved under.
#[derive(Debug, Clone, Copy)]
struct CachedCv {
    detector: u64,
    generation: u64,
    lo: u64,
    hi: u64,
    info: CvInfo,
}

impl CachedCv {
    /// Matches no detector: ids start at 1.
    const EMPTY: CachedCv = CachedCv {
        detector: 0,
        generation: 0,
        lo: 0,
        hi: 0,
        info: CvInfo { buffer: BufferId(0), ov_addr: 0 },
    };
}

/// The calling thread's recent CV lookups, for every detector it feeds,
/// replaced round-robin. Thread-local, so kernel threads never write a
/// shared line to cache a lookup.
struct CvCache {
    entries: [Cell<CachedCv>; CV_CACHE_ENTRIES],
    next: Cell<usize>,
}

impl CvCache {
    fn find(&self, detector: u64, generation: u64, addr: u64) -> Option<CachedCv> {
        self.entries.iter().map(Cell::get).find(|e| {
            e.detector == detector && e.generation == generation && (e.lo..e.hi).contains(&addr)
        })
    }

    fn insert(&self, entry: CachedCv) {
        let i = self.next.get();
        self.entries[i].set(entry);
        self.next.set((i + 1) % CV_CACHE_ENTRIES);
    }
}

thread_local! {
    static CV_CACHE: CvCache = const {
        CvCache {
            entries: [const { Cell::new(CachedCv::EMPTY) }; CV_CACHE_ENTRIES],
            next: Cell::new(0),
        }
    };
}

/// Source of detector ids; never reused, so a cached lookup can never be
/// taken for another detector's.
static NEXT_DETECTOR_ID: AtomicU64 = AtomicU64::new(1);

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct ArbalestConfig {
    /// Number of accelerators the analysed program may use (≤ 7 for the
    /// multi-device shadow encoding). Chooses the shadow layout.
    pub accelerators: u16,
    /// Run the integrated happens-before race detection (Archer side).
    /// Disable only for ablation measurements.
    pub check_races: bool,
    /// Use the per-thread interval-tree lookup cache (§IV-C's
    /// amortisation).
    pub lookup_cache: bool,
    /// Stop recording after this many distinct reports.
    pub max_reports: usize,
    /// Capture per-buffer VSM edge provenance and attach the causal chain
    /// to UUM/USD reports (the `arbalest explain` feed). Off by default:
    /// recording allocates per edge, and default-config reports must stay
    /// byte-identical with or without the feature compiled in.
    pub provenance: bool,
}

impl Default for ArbalestConfig {
    fn default() -> Self {
        ArbalestConfig {
            accelerators: 1,
            check_races: true,
            lookup_cache: true,
            max_reports: 1024,
            provenance: false,
        }
    }
}

/// Live operation counters (§IV-C's amortisation claims, measurable).
///
/// Registry-backed [`Counter`](arbalest_obs::Counter) handles: the same
/// cells appear in metric snapshots under `arbalest_detector_*`, so
/// exporters and these accessors can never disagree. One pack is built
/// per registry; every detector recording into it holds a copy of the
/// handles. All handles are no-ops on a disabled registry.
///
/// An analysed access costs one counter increment: the VSM edge it
/// commits. The access and cache-hit series sum the edge cells
/// ([`Registry::counter_sum`](arbalest_obs::Registry::counter_sum)), so
/// they are counted directly only for what commits no edge: accesses
/// rejected before the VSM step, and hits such an access or a transfer
/// made.
#[derive(Clone, Debug)]
pub struct ArbalestStats {
    /// Memory accesses analysed (`arbalest_detector_accesses_total`).
    pub accesses: arbalest_obs::Counter,
    /// Interval lookups answered by the per-thread cache
    /// (`arbalest_detector_lookup_cache_total{result="hit"}`).
    pub cache_hits: arbalest_obs::Counter,
    /// Interval lookups that walked the tree
    /// (`arbalest_detector_lookup_cache_total{result="miss"}`).
    pub cache_misses: arbalest_obs::Counter,
    /// `arbalest_detector_vsm_transition_pairs_total{from,op}`, indexed
    /// `[from_state][op]`; every access commits one edge, from whichever
    /// kernel thread made it. Fixed arrays: the per-access edge increment
    /// must not pay `Vec` double indirection.
    vsm_pairs: [[arbalest_obs::Counter; VSM_OP_LABELS.len()]; VSM_STATE_LABELS.len()],
    /// Device read and write edges committed after a cache hit, indexed
    /// `[from_state][read_target, write_target]`. Unlisted cells, summed
    /// into their `vsm_pairs` series, `cache_hits` and `accesses`.
    hit_edges: [[arbalest_obs::Counter; 2]; VSM_STATE_LABELS.len()],
    /// Failed shadow-word CAS attempts
    /// (`arbalest_detector_shadow_cas_retries_total`).
    cas_retries: arbalest_obs::Counter,
    /// Nodes visited per successful interval stab
    /// (`arbalest_detector_lookup_depth`).
    lookup_depth: arbalest_obs::Histogram,
    /// `arbalest_detector_present_ops_total{op}`: [cv_alloc, cv_delete].
    present_ops: [arbalest_obs::Counter; 2],
}

impl ArbalestStats {
    fn new(reg: &arbalest_obs::Registry) -> ArbalestStats {
        let hit_edges: [[arbalest_obs::Counter; 2]; VSM_STATE_LABELS.len()] =
            std::array::from_fn(|_| std::array::from_fn(|_| reg.unlisted_counter()));
        let vsm_pairs: [[arbalest_obs::Counter; VSM_OP_LABELS.len()]; VSM_STATE_LABELS.len()] =
            std::array::from_fn(|f| {
                std::array::from_fn(|o| {
                    let after_hit: &[&arbalest_obs::Counter] = match o {
                        VSM_OP_READ_TARGET => &[&hit_edges[f][0]],
                        VSM_OP_WRITE_TARGET => &[&hit_edges[f][1]],
                        _ => &[],
                    };
                    reg.counter_sum(
                        "arbalest_detector_vsm_transition_pairs_total",
                        &[("from", VSM_STATE_LABELS[f]), ("op", VSM_OP_LABELS[o])],
                        after_hit,
                    )
                })
            });
        // Every analysed access commits one edge of the four access ops.
        let access_edges: Vec<&arbalest_obs::Counter> =
            vsm_pairs.iter().flat_map(|ops| &ops[..VSM_ACCESS_OPS]).collect();
        let hits: Vec<&arbalest_obs::Counter> = hit_edges.iter().flatten().collect();
        ArbalestStats {
            accesses: reg.counter_sum("arbalest_detector_accesses_total", &[], &access_edges),
            cache_hits: reg.counter_sum(
                "arbalest_detector_lookup_cache_total",
                &[("result", "hit")],
                &hits,
            ),
            cache_misses: reg
                .counter("arbalest_detector_lookup_cache_total", &[("result", "miss")]),
            vsm_pairs,
            hit_edges,
            cas_retries: reg.counter("arbalest_detector_shadow_cas_retries_total", &[]),
            lookup_depth: reg.histogram("arbalest_detector_lookup_depth", &[]),
            present_ops: [
                reg.counter("arbalest_detector_present_ops_total", &[("op", "cv_alloc")]),
                reg.counter("arbalest_detector_present_ops_total", &[("op", "cv_delete")]),
            ],
        }
    }

    /// VSM transitions applied — accesses + per-granule range ops.
    ///
    /// Every committed transition counts exactly one edge of
    /// `arbalest_detector_vsm_transition_pairs_total{from,op}`, so the
    /// total is the sum of that family, read here instead of paying a
    /// second hot-path RMW per transition.
    pub fn vsm_transitions(&self) -> u64 {
        self.vsm_pairs.iter().flatten().map(arbalest_obs::Counter::get).sum()
    }

    /// Fraction of CV lookups served by the cache (0 when none happened,
    /// never NaN).
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.cache_hits.get() as f64;
        let m = self.cache_misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Count one committed transition from the *post-commit* old word, so
    /// CAS retries never double-count an edge. `hit`: the access's CV
    /// lookup was a cache hit, which the same increment counts.
    #[inline]
    fn note_transition(&self, from: vsm::NamedState, op: VsmOp, retries: u32, hit: bool) {
        let (f, o) = (vsm_state_index(from), vsm_op_index(op));
        match (hit, o) {
            (true, VSM_OP_READ_TARGET) => self.hit_edges[f][0].inc(),
            (true, VSM_OP_WRITE_TARGET) => self.hit_edges[f][1].inc(),
            _ => self.vsm_pairs[f][o].inc(),
        }
        if retries > 0 {
            self.cas_retries.add(u64::from(retries));
        }
    }

    /// Batched form for range operations: one counter add per occupied
    /// from-state instead of one per granule.
    fn note_transitions(&self, op: VsmOp, by_from: &[u64; 4], retries: u64) {
        let o = vsm_op_index(op);
        for (f, &count) in by_from.iter().enumerate() {
            if count > 0 {
                self.vsm_pairs[f][o].add(count);
            }
        }
        if retries > 0 {
            self.cas_retries.add(retries);
        }
    }
}

/// VSM state labels for the `(from_state, event)` transition counters,
/// indexed by [`vsm::NamedState`] discriminant order.
const VSM_STATE_LABELS: [&str; 4] = ["invalid", "host", "target", "consistent"];

/// The access ops lead [`VSM_OP_LABELS`]; the device read and write are
/// the ones a CV lookup precedes.
const VSM_ACCESS_OPS: usize = 4;
const VSM_OP_READ_TARGET: usize = 1;
const VSM_OP_WRITE_TARGET: usize = 3;

/// VSM event labels, indexed by [`vsm_op_index`].
const VSM_OP_LABELS: [&str; 10] = [
    "read_host",
    "read_target",
    "write_host",
    "write_target",
    "update_target",
    "update_host",
    "alloc",
    "release",
    "flush",
    "device_to_device",
];

fn vsm_state_index(s: vsm::NamedState) -> usize {
    match s {
        vsm::NamedState::Invalid => 0,
        vsm::NamedState::Host => 1,
        vsm::NamedState::Target => 2,
        vsm::NamedState::Consistent => 3,
    }
}

fn vsm_op_index(op: VsmOp) -> usize {
    match op {
        VsmOp::Read(StorageLoc::Host) => 0,
        VsmOp::Read(StorageLoc::Device(_)) => 1,
        VsmOp::Write(StorageLoc::Host) => 2,
        VsmOp::Write(StorageLoc::Device(_)) => 3,
        VsmOp::UpdateToDevice(_) => 4,
        VsmOp::UpdateFromDevice(_) => 5,
        VsmOp::Allocate(_) => 6,
        VsmOp::Release(_) => 7,
        VsmOp::Flush(_) => 8,
        VsmOp::UpdateDeviceToDevice { .. } => 9,
    }
}

/// One entry of the CV→OV interval tree in a [`DetectorSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvInterval {
    /// CV range start (inclusive).
    pub lo: u64,
    /// CV range end (exclusive).
    pub hi: u64,
    /// Owning buffer id.
    pub buffer: u32,
    /// OV address the CV range shadows.
    pub ov_addr: u64,
}

/// One deduplication key from the detector's `seen` set. Serialized
/// separately from the reports themselves: the key holds the buffer *id*
/// while a [`Report`] holds only the buffer *name*, so the set cannot be
/// reconstructed from the report list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenKey {
    /// Report kind.
    pub kind: ReportKind,
    /// Buffer id, when the report named one.
    pub buffer: Option<u32>,
    /// Source file of the reporting site ("" when unknown).
    pub file: String,
    /// Source line of the reporting site (0 when unknown).
    pub line: u32,
}

/// Complete serializable state of an [`Arbalest`] detector, produced by
/// [`Arbalest::to_snapshot`]. All collections are sorted (shadow pages by
/// page index, intervals by lo, buffers by id, seen keys lexicographically)
/// except `reports`, which keeps insertion order — report order is part of
/// the byte-identical-`Finish` contract.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSnapshot {
    /// [`ArbalestConfig::accelerators`].
    pub accelerators: u16,
    /// [`ArbalestConfig::check_races`].
    pub check_races: bool,
    /// [`ArbalestConfig::lookup_cache`].
    pub lookup_cache: bool,
    /// [`ArbalestConfig::max_reports`].
    pub max_reports: u64,
    /// Resident shadow pages ([`ShadowMemory::snapshot_pages`]).
    pub shadow_pages: Vec<(u64, Vec<u64>)>,
    /// CV→OV present-table intervals, sorted by `lo`.
    pub intervals: Vec<CvInterval>,
    /// Registered buffers, sorted by id.
    pub buffers: Vec<BufferInfo>,
    /// Findings so far, in insertion order.
    pub reports: Vec<Report>,
    /// Deduplication keys, sorted.
    pub seen: Vec<SeenKey>,
    /// Whether [`Arbalest::evict_to_may`] has run.
    pub degraded: bool,
    /// Race-engine state when race checking is on.
    pub race: Option<arbalest_race::RaceSnapshot>,
}

/// Why a [`DetectorSnapshot`] could not be installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Shadow pages in the snapshot do not match this build's page layout.
    ShadowLayout,
    /// `check_races` and the presence of race state disagree.
    RaceMismatch,
    /// The snapshot's accelerator count exceeds the shadow encoding limit.
    TooManyAccelerators,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ShadowLayout => write!(f, "snapshot shadow pages do not fit this build's page layout"),
            RestoreError::RaceMismatch => write!(f, "snapshot race state disagrees with its check_races flag"),
            RestoreError::TooManyAccelerators => write!(f, "snapshot accelerator count exceeds the 7-device shadow encoding"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The ARBALEST tool.
pub struct Arbalest {
    cfg: ArbalestConfig,
    layout: Layout,
    shadow: ShadowMemory,
    intervals: RwLock<IntervalTree<CvInfo>>,
    /// Tags this detector's entries in the per-thread lookup caches.
    id: u64,
    /// Bumped whenever a cached lookup may have gone stale (a CV deleted,
    /// side tables evicted); cached entries of older generations miss.
    generation: AtomicU64,
    race: Option<RaceEngine>,
    buffers: RwLock<HashMap<u32, BufferInfo>>,
    reports: Mutex<Vec<Report>>,
    seen: Mutex<HashSet<ReportKey>>,
    /// Per-buffer bounded rings of VSM edges, recorded only when
    /// [`ArbalestConfig::provenance`] is on; cloned into UUM/USD reports.
    prov: Mutex<HashMap<u32, std::collections::VecDeque<ProvenanceStep>>>,
    /// Logical clock stamped on provenance edges (event order, not time).
    prov_clock: std::sync::atomic::AtomicU64,
    stats: ArbalestStats,
    registry: arbalest_obs::Registry,
    /// Set once [`evict_to_may`](Self::evict_to_may) has run: shadow state
    /// was reset, so VSM violations can no longer be asserted.
    degraded: std::sync::atomic::AtomicBool,
}

impl Default for Arbalest {
    fn default() -> Self {
        Arbalest::new(ArbalestConfig::default())
    }
}

impl Arbalest {
    /// Create a detector with a private (enabled) metrics registry, so
    /// [`stats`](Self::stats) counts as it always has.
    pub fn new(cfg: ArbalestConfig) -> Arbalest {
        Arbalest::with_registry(cfg, arbalest_obs::Registry::new())
    }

    /// Create a detector recording into `reg` — share one registry across
    /// detector, runtime, and server to get a unified metric namespace,
    /// or pass [`Registry::disabled`](arbalest_obs::Registry::disabled)
    /// to strip instrumentation down to single-branch no-ops.
    pub fn with_registry(cfg: ArbalestConfig, reg: arbalest_obs::Registry) -> Arbalest {
        assert!(cfg.accelerators <= 7, "multi-device shadow word supports up to 7 accelerators");
        let layout = Layout::for_accelerators(cfg.accelerators);
        // The pack is cached per registry: detectors sharing a registry
        // share cells anyway, so re-registering every series per detector
        // would buy nothing and cost setup time. The detector keeps its
        // own copy of the handles: holding them through the shared `Arc`
        // instead measured about 8% slower on the per-access path.
        let stats = ArbalestStats::clone(&reg.state(ArbalestStats::new));
        Arbalest {
            layout,
            shadow: ShadowMemory::new(1),
            intervals: RwLock::new(IntervalTree::new()),
            id: NEXT_DETECTOR_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            race: if cfg.check_races { Some(RaceEngine::new()) } else { None },
            buffers: RwLock::new(HashMap::new()),
            reports: Mutex::new(Vec::new()),
            seen: Mutex::new(HashSet::new()),
            prov: Mutex::new(HashMap::new()),
            prov_clock: std::sync::atomic::AtomicU64::new(0),
            stats,
            registry: reg,
            cfg,
            degraded: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Shed side-table memory under resource pressure: drop every resident
    /// shadow page and the race engine's per-location access history, and
    /// invalidate cached lookups, returning the approximate bytes freed.
    /// Exclusive access: no event may be in flight while tables are freed.
    ///
    /// The detector keeps running afterwards in *May mode*: evicted shadow
    /// words read back as the initial state, so VSM violations (UUM/USD)
    /// can no longer be asserted and are suppressed — only claims that do
    /// not depend on evicted state (mapping-overflow checks against the
    /// retained interval tree and buffer table, and races between two
    /// post-eviction accesses) are still reported. Reports recorded before
    /// the eviction are retained. The transition is one-way.
    pub fn evict_to_may(&mut self) -> u64 {
        let before = self.side_table_bytes();
        self.shadow.evict_all();
        if let Some(r) = &mut self.race {
            r.evict_history();
        }
        *self.generation.get_mut() += 1;
        *self.degraded.get_mut() = true;
        before.saturating_sub(self.side_table_bytes())
    }

    /// Whether [`evict_to_may`](Self::evict_to_may) has run on this
    /// detector, i.e. VSM findings are now May-only and suppressed.
    pub fn degraded(&self) -> bool {
        self.degraded.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Dump the complete detector state as plain data for durable session
    /// snapshots. Two detectors holding identical analysis state dump
    /// equal snapshots (every map is emitted sorted by key), and
    /// [`from_snapshot`](Self::from_snapshot) of the dump behaves
    /// identically to this detector on every subsequent event — the
    /// recovered-session byte-identical-`Finish` invariant rests on this.
    pub fn to_snapshot(&self) -> DetectorSnapshot {
        let mut intervals: Vec<CvInterval> = self
            .intervals
            .read()
            .iter_ordered()
            .into_iter()
            .map(|(lo, hi, info)| CvInterval { lo, hi, buffer: info.buffer.0, ov_addr: info.ov_addr })
            .collect();
        intervals.sort_unstable_by_key(|iv| iv.lo);
        let mut buffers: Vec<BufferInfo> = self.buffers.read().values().cloned().collect();
        buffers.sort_unstable_by_key(|b| b.id.0);
        let mut seen: Vec<SeenKey> = self
            .seen
            .lock()
            .iter()
            .map(|&(kind, buffer, file, line)| SeenKey { kind, buffer, file: file.to_string(), line })
            .collect();
        seen.sort_unstable_by(|a, b| {
            (a.kind, a.buffer, &a.file, a.line).cmp(&(b.kind, b.buffer, &b.file, b.line))
        });
        DetectorSnapshot {
            accelerators: self.cfg.accelerators,
            check_races: self.cfg.check_races,
            lookup_cache: self.cfg.lookup_cache,
            max_reports: self.cfg.max_reports as u64,
            shadow_pages: self.shadow.snapshot_pages(),
            intervals,
            buffers,
            reports: self.reports.lock().clone(),
            seen,
            degraded: self.degraded(),
            race: self.race.as_ref().map(|r| r.to_snapshot()),
        }
    }

    /// Rebuild a detector from a [`DetectorSnapshot`], recording metrics
    /// into `reg`. The lookup cache restarts cold (a pure performance
    /// artifact, invisible to analysis results); everything else resumes
    /// exactly where the dumped detector stopped.
    pub fn from_snapshot(
        snap: &DetectorSnapshot,
        reg: arbalest_obs::Registry,
    ) -> Result<Arbalest, RestoreError> {
        if snap.accelerators > 7 {
            return Err(RestoreError::TooManyAccelerators);
        }
        if snap.check_races != snap.race.is_some() {
            return Err(RestoreError::RaceMismatch);
        }
        let cfg = ArbalestConfig {
            accelerators: snap.accelerators,
            check_races: snap.check_races,
            lookup_cache: snap.lookup_cache,
            max_reports: snap.max_reports as usize,
            // Provenance rings are transient working memory, deliberately
            // excluded from snapshots (the feature is off on every durable
            // path); a restored detector restarts with capture off.
            provenance: false,
        };
        let layout = Layout::for_accelerators(cfg.accelerators);
        let stats = ArbalestStats::clone(&reg.state(ArbalestStats::new));
        let mut shadow = ShadowMemory::new(1);
        if !shadow.restore_pages(&snap.shadow_pages) {
            return Err(RestoreError::ShadowLayout);
        }
        let mut intervals = IntervalTree::new();
        for iv in &snap.intervals {
            intervals.insert(
                iv.lo,
                iv.hi,
                CvInfo { buffer: BufferId(iv.buffer), ov_addr: iv.ov_addr },
            );
        }
        let buffers: HashMap<u32, BufferInfo> =
            snap.buffers.iter().map(|b| (b.id.0, b.clone())).collect();
        let seen: HashSet<ReportKey> = snap
            .seen
            .iter()
            .map(|k| {
                // Re-intern the file path so the key's &'static str compares
                // (and hashes) identically to keys made by future reports.
                (k.kind, k.buffer, SrcLoc::intern(&k.file, 0, 0).file, k.line)
            })
            .collect();
        Ok(Arbalest {
            layout,
            shadow,
            intervals: RwLock::new(intervals),
            id: NEXT_DETECTOR_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            race: snap.race.as_ref().map(RaceEngine::from_snapshot),
            buffers: RwLock::new(buffers),
            reports: Mutex::new(snap.reports.clone()),
            seen: Mutex::new(seen),
            prov: Mutex::new(HashMap::new()),
            prov_clock: std::sync::atomic::AtomicU64::new(0),
            stats,
            registry: reg,
            cfg,
            degraded: std::sync::atomic::AtomicBool::new(snap.degraded),
        })
    }

    /// Live operation counters.
    pub fn stats(&self) -> &ArbalestStats {
        &self.stats
    }

    /// The metrics registry this detector records into.
    pub fn registry(&self) -> &arbalest_obs::Registry {
        &self.registry
    }

    /// The shadow layout in use (Table II vs multi-device).
    pub fn layout(&self) -> Layout {
        self.layout
    }

    fn buffer_name(&self, id: Option<BufferId>) -> Option<String> {
        let id = id?;
        self.buffers.read().get(&id.0).map(|b| b.name.clone())
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        kind: ReportKind,
        message: String,
        buffer: Option<BufferId>,
        device: DeviceId,
        addr: u64,
        size: usize,
        loc: Option<SrcLoc>,
        prev: Option<PrevAccess>,
        suggested_fix: Option<String>,
        provenance: Vec<ProvenanceStep>,
    ) {
        let key = (
            kind,
            buffer.map(|b| b.0),
            loc.map(|l| l.file).unwrap_or(""),
            loc.map(|l| l.line).unwrap_or(0),
        );
        let mut seen = self.seen.lock();
        if seen.len() >= self.cfg.max_reports || !seen.insert(key) {
            return;
        }
        drop(seen);
        self.reports.lock().push(Report {
            tool: "arbalest",
            kind,
            message,
            buffer: self.buffer_name(buffer),
            device,
            addr,
            size,
            loc,
            prev,
            suggested_fix,
            provenance,
        });
    }

    /// Record one VSM edge in the buffer's provenance ring (bounded at
    /// [`PROV_RING_CAP`] — old edges fall off the front). No-op unless
    /// [`ArbalestConfig::provenance`] is on.
    fn prov_note(
        &self,
        buffer: Option<BufferId>,
        op: VsmOp,
        from: vsm::NamedState,
        to: vsm::NamedState,
        loc: Option<SrcLoc>,
        tid: u16,
    ) {
        if !self.cfg.provenance {
            return;
        }
        let Some(buffer) = buffer else { return };
        let clock = self.prov_clock.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let step = ProvenanceStep {
            op: VSM_OP_LABELS[vsm_op_index(op)].to_string(),
            from: VSM_STATE_LABELS[vsm_state_index(from)].to_string(),
            to: VSM_STATE_LABELS[vsm_state_index(to)].to_string(),
            loc,
            tid,
            clock,
        };
        let mut prov = self.prov.lock();
        let ring = prov.entry(buffer.0).or_default();
        if ring.len() >= PROV_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(step);
    }

    /// The buffer's current provenance chain, oldest edge first; empty
    /// when capture is off or nothing was recorded.
    fn prov_chain(&self, buffer: Option<BufferId>) -> Vec<ProvenanceStep> {
        if !self.cfg.provenance {
            return Vec::new();
        }
        let Some(buffer) = buffer else { return Vec::new() };
        self.prov
            .lock()
            .get(&buffer.0)
            .map(|ring| ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Resolve a device (CV) address to its owning interval, through the
    /// calling thread's lookup cache when enabled. Counts a miss; a hit,
    /// flagged by the returned `bool`, is the caller's to count.
    fn lookup(&self, addr: u64) -> Option<(u64, CvInfo, bool)> {
        if !self.cfg.lookup_cache {
            self.stats.cache_misses.inc();
            return self.stab(addr).map(|(lo, _, info)| (lo, info, false));
        }
        // Read the generation before the tree: an entry cached under it
        // cannot outlive a delete, which bumps it after removing the CV.
        let generation = self.generation.load(Ordering::Acquire);
        if let Some(e) = CV_CACHE.with(|c| c.find(self.id, generation, addr)) {
            return Some((e.lo, e.info, true));
        }
        self.stats.cache_misses.inc();
        let (lo, hi, info) = self.stab(addr)?;
        CV_CACHE.with(|c| c.insert(CachedCv { detector: self.id, generation, lo, hi, info }));
        Some((lo, info, false))
    }

    /// Walk the interval tree for `addr`.
    fn stab(&self, addr: u64) -> Option<(u64, u64, CvInfo)> {
        let tree = self.intervals.read();
        let (lo, hi, info, depth) =
            tree.stab_with_depth(addr).map(|(lo, hi, v, d)| (lo, hi, *v, d))?;
        drop(tree);
        self.stats.lookup_depth.record(u64::from(depth));
        Some((lo, hi, info))
    }

    /// Apply an access's VSM operation to its granule's shadow word,
    /// stamping the Table II epoch fields with `epoch`, the one the race
    /// check recorded; returns the violation and the *previous* word's
    /// recorded access for the report.
    fn vsm_step(
        &self,
        key: u64,
        op: VsmOp,
        ev: &AccessEvent,
        epoch: Epoch,
        hit: bool,
    ) -> (Option<vsm::Violation>, PrevAccess) {
        let mut violation = None;
        // The closure may re-run on CAS contention, so per-edge counting
        // happens *after* commit, from the old word that actually won.
        let (old, new, retries) = self.shadow.update_counted(key & !7, 0, |w| {
            let state = self.layout.decode(w);
            let (mut next, v) = vsm::apply(state, op);
            violation = v;
            next.tid = epoch.tid;
            next.clock = epoch.clock;
            next.is_write = ev.is_write;
            next.access_size = ev.size as u8;
            next.addr_offset = (ev.addr & 7) as u8;
            self.layout.encode(next)
        });
        let old_state = self.layout.decode(old);
        self.stats.note_transition(vsm::named(old_state), op, retries, hit);
        if self.cfg.provenance {
            self.prov_note(
                ev.buffer,
                op,
                vsm::named(old_state),
                vsm::named(self.layout.decode(new)),
                Some(ev.loc),
                epoch.tid,
            );
        }
        let prev =
            PrevAccess { tid: old_state.tid, clock: old_state.clock, is_write: old_state.is_write };
        (violation, prev)
    }

    /// Apply a VSM operation across a granule range; returns the first
    /// granule's `(from, to)` named states (the representative edge for
    /// provenance capture), or `None` for an empty range.
    fn vsm_range(
        &self,
        ov_addr: u64,
        len: u64,
        op: VsmOp,
    ) -> Option<(vsm::NamedState, vsm::NamedState)> {
        let mut a = ov_addr & !7;
        let end = ov_addr + len;
        // Accumulate locally and flush once: range ops dominate transition
        // volume, and per-granule counter traffic is what the ≤5%
        // observability budget cannot afford.
        let mut by_from = [0u64; 4];
        let mut retries_total = 0u64;
        let mut first_edge = None;
        while a < end {
            let (old, new, retries) = self.shadow.update_counted(a, 0, |w| {
                let state = self.layout.decode(w);
                vsm::apply(state, op).0.pipe_encode(self.layout)
            });
            by_from[vsm_state_index(vsm::named(self.layout.decode(old)))] += 1;
            if first_edge.is_none() {
                first_edge =
                    Some((vsm::named(self.layout.decode(old)), vsm::named(self.layout.decode(new))));
            }
            retries_total += u64::from(retries);
            a += 8;
        }
        self.stats.note_transitions(op, &by_from, retries_total);
        first_edge
    }

    /// Race-check an access; returns the epoch to stamp in its shadow
    /// word (zero with race checking off).
    fn race_access(&self, ev: &AccessEvent) -> Epoch {
        let Some(engine) = &self.race else { return Epoch::ZERO };
        if ev.atomic {
            // `omp atomic` accesses are synchronised by definition.
            return engine.epoch_of(ev.task.0);
        }
        let checked = if ev.is_write {
            engine.check_write(ev.task.0, ev.addr, ev.size as u8)
        } else {
            engine.check_read(ev.task.0, ev.addr, ev.size as u8)
        };
        if let Some(r) = checked.race {
            self.report(
                ReportKind::DataRace,
                format!(
                    "{} of size {} races with a previous {} by T{}",
                    if ev.is_write { "write" } else { "read" },
                    ev.size,
                    if r.prev_was_write { "write" } else { "read" },
                    r.prev_tid
                ),
                ev.buffer,
                ev.device,
                ev.addr,
                ev.size,
                Some(ev.loc),
                Some(PrevAccess { tid: r.prev_tid, clock: r.prev_clock, is_write: r.prev_was_write }),
                Some(hints::ORDER_ACCESSES.into()),
                Vec::new(),
            );
        }
        checked.epoch
    }
}

/// Tiny helper so a `GranuleState` can be encoded in closure position.
trait PipeEncode {
    fn pipe_encode(self, layout: Layout) -> u64;
}
impl PipeEncode for arbalest_shadow::GranuleState {
    #[inline]
    fn pipe_encode(self, layout: Layout) -> u64 {
        layout.encode(self)
    }
}

impl Tool for Arbalest {
    fn name(&self) -> &'static str {
        "arbalest"
    }

    fn on_buffer_registered(&self, info: &BufferInfo) {
        // Shadow defaults to the all-zero word — VSM `invalid`, exactly
        // the paper's initial state for a fresh variable.
        self.buffers.write().insert(info.id.0, info.clone());
    }

    fn on_data_op(&self, ev: &DataOpEvent) {
        let d = ev.device.0 as u8;
        match ev.kind {
            DataOpKind::CvAlloc => {
                self.stats.present_ops[0].inc();
                self.intervals.write().insert(
                    ev.cv_base,
                    ev.cv_base + ev.len,
                    CvInfo { buffer: ev.buffer, ov_addr: ev.ov_addr },
                );
                let op = VsmOp::Allocate(d);
                if let Some((from, to)) = self.vsm_range(ev.ov_addr, ev.len, op) {
                    self.prov_note(Some(ev.buffer), op, from, to, None, ev.task.0 as u16);
                }
            }
            DataOpKind::CvDelete => {
                self.stats.present_ops[1].inc();
                self.intervals.write().remove(ev.cv_base);
                self.generation.fetch_add(1, Ordering::Release);
                let op = VsmOp::Release(d);
                if let Some((from, to)) = self.vsm_range(ev.ov_addr, ev.len, op) {
                    self.prov_note(Some(ev.buffer), op, from, to, None, ev.task.0 as u16);
                }
            }
        }
    }

    fn on_transfer(&self, ev: &TransferEvent) {
        let (ov_addr, device) = match ev.kind {
            TransferKind::ToDevice => (ev.src_addr, ev.dst_device),
            TransferKind::FromDevice => (ev.dst_addr, ev.src_device),
            TransferKind::DeviceToDevice => {
                // Resolve the shadow anchor through the source CV's
                // interval; both CVs shadow the same OV range.
                let Some((lo, info, hit)) = self.lookup(ev.src_addr) else { return };
                if hit {
                    self.stats.cache_hits.inc();
                }
                (info.ov_addr + (ev.src_addr - lo), ev.dst_device)
            }
        };
        let d = device.0 as u8;

        // Mapping-related buffer overflow in the *transfer* itself: the
        // array section walks outside the original variable (§IV-D).
        if let Some(info) = self.buffers.read().get(&ev.buffer.0) {
            if ov_addr < info.ov_base || ov_addr + ev.len > info.ov_end() {
                self.report(
                    ReportKind::MappingOverflow,
                    format!(
                        "mapped array section [{:#x}, {:#x}) exceeds variable '{}' [{:#x}, {:#x})",
                        ov_addr,
                        ov_addr + ev.len,
                        info.name,
                        info.ov_base,
                        info.ov_end()
                    ),
                    Some(ev.buffer),
                    device,
                    ov_addr,
                    ev.len as usize,
                    None,
                    None,
                    Some(hints::shrink_section(&info.name)),
                    Vec::new(),
                );
            }
        }

        // Happens-before: a transfer reads its source range and writes its
        // destination range on the transferring task. Fig. 2's exit
        // transfer racing a nowait kernel is caught here. Unified flushes
        // move no data and are skipped.
        if !ev.unified {
            if let Some(engine) = &self.race {
                let read_race = engine.check_read_range(ev.task.0, ev.src_addr, ev.len);
                let write_race = engine.check_write_range(ev.task.0, ev.dst_addr, ev.len);
                if let Some(r) = read_race.or(write_race) {
                    self.report(
                        ReportKind::DataRace,
                        format!(
                            "implicit data transfer of '{}' races with a concurrent {} by T{}",
                            self.buffer_name(Some(ev.buffer)).unwrap_or_default(),
                            if r.prev_was_write { "write" } else { "read" },
                            r.prev_tid
                        ),
                        Some(ev.buffer),
                        device,
                        ov_addr,
                        ev.len as usize,
                        None,
                        Some(PrevAccess {
                            tid: r.prev_tid,
                            clock: r.prev_clock,
                            is_write: r.prev_was_write,
                        }),
                        Some(hints::SYNC_BEFORE_TRANSFER.into()),
                        Vec::new(),
                    );
                }
            }
        }

        // VSM range update. Clamp to the variable's extent so a
        // transfer-overflow does not scribble on a neighbour's shadow.
        let clamped = match self.buffers.read().get(&ev.buffer.0) {
            Some(info) => {
                sections::intersect(ov_addr, ov_addr + ev.len, info.ov_base, info.ov_end())
            }
            None if ev.len > 0 => Some((ov_addr, ov_addr + ev.len)),
            None => None,
        };
        if let Some((lo, hi)) = clamped {
            let op = if ev.unified {
                VsmOp::Flush(d)
            } else {
                match ev.kind {
                    TransferKind::ToDevice => VsmOp::UpdateToDevice(d),
                    TransferKind::FromDevice => VsmOp::UpdateFromDevice(d),
                    TransferKind::DeviceToDevice => VsmOp::UpdateDeviceToDevice {
                        src: ev.src_device.0 as u8,
                        dst: ev.dst_device.0 as u8,
                    },
                }
            };
            if let Some((from, to)) = self.vsm_range(lo, hi - lo, op) {
                self.prov_note(Some(ev.buffer), op, from, to, None, ev.task.0 as u16);
            }
        }
    }

    fn on_access(&self, ev: &AccessEvent) {
        let epoch = self.race_access(ev);

        // An access that reaches the VSM step is counted by its edge; the
        // ones rejected before it are counted here.
        let (key, loc, hit) = if ev.device.is_host() {
            (ev.addr, StorageLoc::Host, false)
        } else {
            if !ev.mapped {
                self.stats.accesses.inc();
                self.report(
                    ReportKind::MappingOverflow,
                    "kernel accessed a variable absent from the device data environment (missing map clause)".into(),
                    ev.buffer,
                    ev.device,
                    ev.addr,
                    ev.size,
                    Some(ev.loc),
                    None,
                    Some(hints::ADD_MAP.into()),
                    Vec::new(),
                );
                return;
            }
            match self.lookup(ev.addr) {
                None => {
                    self.stats.accesses.inc();
                    self.report(
                        ReportKind::MappingOverflow,
                        "kernel access outside every mapped corresponding variable".into(),
                        ev.buffer,
                        ev.device,
                        ev.addr,
                        ev.size,
                        Some(ev.loc),
                        None,
                        Some(hints::CHECK_BOUNDS.into()),
                        Vec::new(),
                    );
                    return;
                }
                Some((lo, info, hit)) => {
                    if let Some(b) = ev.buffer {
                        if b != info.buffer {
                            self.stats.accesses.inc();
                            if hit {
                                self.stats.cache_hits.inc();
                            }
                            // The access landed inside a *different*
                            // variable's CV — the undefined-behaviour case
                            // of §IV-D.
                            self.report(
                                ReportKind::MappingOverflow,
                                format!(
                                    "kernel access to '{}' overflowed into the corresponding variable of '{}'",
                                    self.buffer_name(ev.buffer).unwrap_or_default(),
                                    self.buffer_name(Some(info.buffer)).unwrap_or_default()
                                ),
                                ev.buffer,
                                ev.device,
                                ev.addr,
                                ev.size,
                                Some(ev.loc),
                                None,
                                Some(hints::CHECK_SECTION.into()),
                                Vec::new(),
                            );
                            return;
                        }
                    }
                    (info.ov_addr + (ev.addr - lo), StorageLoc::Device(ev.device.0 as u8), hit)
                }
            }
        };

        let op = if ev.is_write { VsmOp::Write(loc) } else { VsmOp::Read(loc) };
        let (violation, prev) = self.vsm_step(key, op, ev, epoch, hit);
        // In May mode the shadow was evicted: decoded states are no longer
        // trustworthy, so a Must claim derived from them would be a false
        // positive. Transitions still commit (re-warming the shadow keeps
        // the accounting honest); only the violation verdict is dropped.
        if self.degraded() {
            return;
        }
        if let Some(v) = violation {
            let (kind, what, fix) = match v.kind {
                ViolationKind::Uum => (
                    ReportKind::MappingUum,
                    "use of uninitialized memory",
                    hints::for_read(ReportKind::MappingUum, ev.device),
                ),
                ViolationKind::Usd => (
                    ReportKind::MappingUsd,
                    "use of stale data",
                    hints::for_read(ReportKind::MappingUsd, ev.device),
                ),
            };
            self.report(
                kind,
                format!(
                    "{what}: read of '{}' on {} did not observe the last write",
                    self.buffer_name(ev.buffer).unwrap_or_default(),
                    ev.device
                ),
                ev.buffer,
                ev.device,
                ev.addr,
                ev.size,
                Some(ev.loc),
                Some(prev),
                Some(fix.to_string()),
                self.prov_chain(ev.buffer),
            );
        }
    }

    fn on_sync(&self, ev: &SyncEvent) {
        let Some(engine) = &self.race else { return };
        match ev {
            SyncEvent::TaskCreate { parent, child } => engine.fork(parent.0, child.0),
            SyncEvent::TaskEnd { task } => engine.end(task.0),
            SyncEvent::TaskJoin { waiter, joined } => engine.join(waiter.0, joined.0),
            SyncEvent::Acquire { task, lock } => engine.acquire(task.0, *lock),
            SyncEvent::Release { task, lock } => engine.release(task.0, *lock),
        }
    }

    fn reports(&self) -> Vec<Report> {
        self.reports.lock().clone()
    }

    fn side_table_bytes(&self) -> u64 {
        let mut bytes = self.shadow.resident_bytes() + self.intervals.read().approx_bytes();
        if let Some(r) = &self.race {
            bytes += r.approx_bytes();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::prelude::*;
    use std::sync::Arc;

    fn harness(cfg: ArbalestConfig) -> (Runtime, Arc<Arbalest>) {
        let tool = Arc::new(Arbalest::new(cfg));
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        (rt, tool)
    }

    fn kinds(tool: &Arbalest) -> Vec<ReportKind> {
        let mut v: Vec<ReportKind> = tool.reports().iter().map(|r| r.kind).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn clean_program_produces_no_reports() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 64, |i| i as f64);
        let b = rt.alloc::<f64>("b", 64);
        rt.target().map(Map::to(&a)).map(Map::from(&b)).run(move |k| {
            k.par_for(0..64, |k, i| {
                let v = k.read(&a, i);
                k.write(&b, i, 2.0 * v);
            });
        });
        let sum: f64 = (0..64).map(|i| rt.read(&b, i)).sum();
        assert_eq!(sum, 2.0 * (63.0 * 64.0 / 2.0));
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn figure1_alloc_instead_of_to_is_uum() {
        // DRACC_OMP_022 shape: map(alloc: b) then read b in the kernel.
        let (rt, tool) = harness(ArbalestConfig::default());
        let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
        let c = rt.alloc_with::<f64>("c", 32, |_| 0.0);
        rt.target().map(Map::alloc(&b)).map(Map::tofrom(&c)).run(move |k| {
            k.for_each(0..32, |k, i| {
                let v = k.read(&b, i); // UUM: CV of b allocated, never filled
                k.write(&c, i, v);
            });
        });
        assert_eq!(kinds(&tool), vec![ReportKind::MappingUum]);
        let r = &tool.reports()[0];
        assert_eq!(r.buffer.as_deref(), Some("b"));
        assert!(r.suggested_fix.is_some());
    }

    #[test]
    fn figure2_map_to_stale_host_read_is_usd() {
        // Fig. 2 lines 1–5: map(to: a); kernel writes a; host reads a.
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..1, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        let _stale = rt.read(&a, 0);
        assert_eq!(kinds(&tool), vec![ReportKind::MappingUsd]);
        assert!(tool.reports()[0].suggested_fix.as_deref().unwrap().contains("tofrom"));
    }

    #[test]
    fn provenance_chain_tells_the_uum_story() {
        // Figure 1 shape with provenance capture on: the report must carry
        // the causal VSM walk — alloc (invalid stays invalid on the read
        // path) followed by the faulting device read.
        let (rt, tool) =
            harness(ArbalestConfig { provenance: true, ..Default::default() });
        let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
        let c = rt.alloc_with::<f64>("c", 32, |_| 0.0);
        rt.target().map(Map::alloc(&b)).map(Map::tofrom(&c)).run(move |k| {
            k.for_each(0..32, |k, i| {
                let v = k.read(&b, i);
                k.write(&c, i, v);
            });
        });
        let reports = tool.reports();
        let r = reports.iter().find(|r| r.kind == ReportKind::MappingUum).unwrap();
        assert!(!r.provenance.is_empty(), "provenance chain missing");
        let ops: Vec<&str> = r.provenance.iter().map(|s| s.op.as_str()).collect();
        assert!(ops.contains(&"alloc"), "{ops:?}");
        assert!(ops.contains(&"read_target"), "{ops:?}");
        // Edges are in causal order (clock strictly increases) and use the
        // stable state vocabulary.
        for w in r.provenance.windows(2) {
            assert!(w[0].clock < w[1].clock);
        }
        for s in &r.provenance {
            assert!(VSM_STATE_LABELS.contains(&s.from.as_str()), "{s:?}");
            assert!(VSM_STATE_LABELS.contains(&s.to.as_str()), "{s:?}");
        }
        // The faulting read's edge carries its source location.
        let last = r.provenance.last().unwrap();
        assert_eq!(last.op, "read_target");
        assert!(last.loc.is_some());
    }

    #[test]
    fn provenance_chain_tells_the_usd_story() {
        // Figure 2 shape: the chain must show the device write followed by
        // the stale host read, matching the USD hint's vocabulary.
        let (rt, tool) =
            harness(ArbalestConfig { provenance: true, ..Default::default() });
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..1, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        let _stale = rt.read(&a, 0);
        let reports = tool.reports();
        let r = reports.iter().find(|r| r.kind == ReportKind::MappingUsd).unwrap();
        let ops: Vec<&str> = r.provenance.iter().map(|s| s.op.as_str()).collect();
        assert!(ops.contains(&"update_target"), "{ops:?}");
        assert!(ops.contains(&"write_target"), "{ops:?}");
        assert_eq!(ops.last(), Some(&"read_host"), "{ops:?}");
        // The decisive edge: the device write left the fresh value on the
        // target, which is exactly what the USD_HOST hint says.
        let w = r.provenance.iter().find(|s| s.op == "write_target").unwrap();
        assert_eq!(w.to, "target");
        assert!(r.suggested_fix.as_deref().unwrap().contains("update from"));
    }

    #[test]
    fn provenance_off_leaves_reports_untouched() {
        // The same buggy trace with capture off and on: identical reports
        // except for the chain itself (off ⇒ empty).
        let run = |provenance: bool| {
            let (rt, tool) = harness(ArbalestConfig { provenance, ..Default::default() });
            let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
            rt.target().map(Map::alloc(&b)).run(move |k| {
                k.for_each(0..32, |k, i| {
                    let _ = k.read(&b, i);
                });
            });
            tool.reports()
        };
        let off = run(false);
        let on = run(true);
        assert!(off.iter().all(|r| r.provenance.is_empty()));
        assert!(on.iter().any(|r| !r.provenance.is_empty()));
        let mut stripped = on.clone();
        for r in &mut stripped {
            r.provenance.clear();
        }
        assert_eq!(off, stripped);
        // render() ignores the chain entirely.
        assert_eq!(off[0].render(), on[0].render());
    }

    #[test]
    fn provenance_ring_is_bounded() {
        let (rt, tool) =
            harness(ArbalestConfig { provenance: true, ..Default::default() });
        let a = rt.alloc_init::<i64>("a", &[1]);
        // Far more edges than the ring holds: repeated map/unmap churn.
        for _ in 0..PROV_RING_CAP * 4 {
            rt.target().map(Map::to(&a)).run(move |k| {
                k.for_each(0..1, |k, _| {
                    let _ = k.read(&a, 0);
                });
            });
        }
        let _stale_check = rt.read(&a, 0);
        for r in tool.reports() {
            assert!(r.provenance.len() <= PROV_RING_CAP, "{}", r.provenance.len());
        }
    }

    #[test]
    fn kernel_overflow_into_neighbour_cv_is_mapping_bo() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        let b = rt.alloc_with::<f64>("b", 8, |_| 2.0);
        rt.target().map(Map::to(&a)).map(Map::to(&b)).run(move |k| {
            k.for_each(0..1, |k, _| {
                // a[12] lands beyond a's CV. With bump allocation b's CV is
                // nearby; either way it is a mapping-related overflow.
                let _ = k.read(&a, 12);
            });
        });
        assert_eq!(kinds(&tool), vec![ReportKind::MappingOverflow]);
    }

    #[test]
    fn oversized_section_flagged_at_transfer() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        // map(to: a[0:12]) — section exceeds the variable.
        rt.target().map(Map::to_section(&a, 0, 12)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let _ = k.read(&a, i);
            });
        });
        assert!(kinds(&tool).contains(&ReportKind::MappingOverflow));
    }

    #[test]
    fn missing_map_is_reported() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        let b = rt.alloc_with::<f64>("b", 8, |_| 0.0);
        rt.target().map(Map::tofrom(&b)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i); // `a` never mapped
                k.write(&b, i, v);
            });
        });
        let reports = tool.reports();
        assert!(reports.iter().any(|r| r.kind == ReportKind::MappingOverflow
            && r.message.contains("missing map clause")));
    }

    #[test]
    fn update_constructs_restore_consistency() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_init::<i64>("a", &[5; 8]);
        rt.target_data().map(Map::to(&a)).scope(|rt| {
            rt.target().map(Map::to(&a)).run(move |k| {
                k.for_each(0..8, |k, i| {
                    let v = k.read(&a, i);
                    k.write(&a, i, v * 2);
                });
            });
            rt.update_from(&a); // pulls the device values back
            for i in 0..8 {
                assert_eq!(rt.read(&a, i), 10);
            }
        });
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn nowait_exit_transfer_race_is_detected_in_serial_mode() {
        // Fig. 2 lines 7–16, run under Theorem-1 serialization: the VSM
        // sees a deterministic schedule while the race engine still sees
        // the unordered host write vs kernel write.
        let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
        let rt = Runtime::with_tool(Config::default().serialize(true), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target_data().map(Map::tofrom(&a)).scope(|rt| {
            rt.target().nowait().run(move |k| {
                k.for_each(0..1, |k, _| k.write(&a, 0, 3));
            });
            rt.write(&a, 0, rt.read(&a, 0) + 1); // races with the kernel
        });
        rt.taskwait();
        assert!(
            tool.reports().iter().any(|r| r.kind == ReportKind::DataRace),
            "expected a data race report: {:?}",
            tool.reports()
        );
    }

    #[test]
    fn unified_memory_flushes_prevent_false_positives() {
        // §III-B: under unified memory, a data-race-free program is free of
        // mapping issues even with map(to) only — the implicit flushes at
        // region boundaries synchronise the views. ARBALEST must not
        // report USD here.
        let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
        let rt = Runtime::with_tool(Config::default().unified(true), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..1, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        assert_eq!(rt.read(&a, 0), 2, "unified memory shares storage");
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn multi_device_stale_second_accelerator() {
        let tool = Arc::new(Arbalest::new(ArbalestConfig { accelerators: 2, ..Default::default() }));
        assert_eq!(tool.layout(), Layout::MultiDevice);
        let rt = Runtime::with_tool(Config::default().accelerators(2), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[7; 4]);
        let d0 = DeviceId(1);
        let d1 = DeviceId(2);
        // Map to both devices, write on device 0, then read on device 1:
        // device 1's CV is stale.
        rt.target_enter_data(d0, &[Map::to(&a)]);
        rt.target_enter_data(d1, &[Map::to(&a)]);
        rt.target().on_device(d0).map(Map::to(&a)).run(move |k| {
            k.for_each(0..4, |k, i| k.write(&a, i, 100));
        });
        rt.target().on_device(d1).map(Map::to(&a)).run(move |k| {
            k.for_each(0..4, |k, i| {
                let _ = k.read(&a, i); // stale
            });
        });
        assert!(kinds(&tool).contains(&ReportKind::MappingUsd));
    }

    #[test]
    fn reports_deduplicate_per_site() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc::<f64>("a", 128);
        // 128 faulting reads from one source line → one report.
        for i in 0..128 {
            let _ = rt.read(&a, i);
        }
        assert_eq!(tool.reports().len(), 1);
        assert_eq!(tool.reports()[0].kind, ReportKind::MappingUum);
    }

    #[test]
    fn cache_hit_rate_is_zero_not_nan_before_any_lookup() {
        let tool = Arbalest::new(ArbalestConfig::default());
        let rate = tool.stats().cache_hit_rate();
        assert!(!rate.is_nan());
        assert_eq!(rate, 0.0);
        // Still well-defined with the cache disabled (misses only).
        let (rt, tool) = harness(ArbalestConfig { lookup_cache: false, ..Default::default() });
        let a = rt.alloc_with::<f64>("a", 8, |_| 1.0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v);
            });
        });
        let rate = tool.stats().cache_hit_rate();
        assert!(!rate.is_nan());
        assert_eq!(rate, 0.0);
        assert!(tool.stats().cache_misses.get() > 0);
    }

    #[test]
    fn transition_pairs_and_lookup_depth_are_recorded() {
        let reg = arbalest_obs::Registry::new();
        let tool = Arc::new(Arbalest::with_registry(ArbalestConfig::default(), reg.clone()));
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        let a = rt.alloc_with::<f64>("a", 16, |i| i as f64);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..16, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        rt.taskwait();
        let snap = reg.snapshot();
        // The per-pair breakdown sums to the aggregate transition count.
        assert_eq!(
            snap.counter_sum("arbalest_detector_vsm_transition_pairs_total"),
            tool.stats().vsm_transitions()
        );
        // map(tofrom) allocates CVs: alloc edges must exist (from the
        // `host` state — the buffer was host-initialised before mapping).
        let allocs: u64 = snap
            .counters_named("arbalest_detector_vsm_transition_pairs_total")
            .filter(|(labels, _)| labels.iter().any(|(k, v)| k == "op" && v == "alloc"))
            .map(|(_, v)| v)
            .sum();
        assert!(allocs > 0, "no alloc transition edges recorded");
        // Device reads resolved through the interval tree record a depth.
        let depth = snap.histogram("arbalest_detector_lookup_depth", &[]).unwrap();
        assert!(depth.count > 0);
        assert!(depth.min >= 1);
        // One CV allocated and deleted through the present table.
        assert_eq!(
            snap.counter("arbalest_detector_present_ops_total", &[("op", "cv_alloc")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("arbalest_detector_present_ops_total", &[("op", "cv_delete")]),
            Some(1)
        );
    }

    #[test]
    fn disabled_registry_detector_still_detects() {
        let reg = arbalest_obs::Registry::disabled();
        let tool = Arc::new(Arbalest::with_registry(ArbalestConfig::default(), reg.clone()));
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        let b = rt.alloc_with::<f64>("b", 8, |_| 1.0);
        rt.target().map(Map::alloc(&b)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let _ = k.read(&b, i); // UUM
            });
        });
        assert_eq!(kinds(&tool), vec![ReportKind::MappingUum]);
        // No metrics recorded, and the stats counters read zero.
        assert!(reg.snapshot().counters.is_empty());
        assert_eq!(tool.stats().accesses.get(), 0);
        assert_eq!(tool.stats().cache_hit_rate(), 0.0);
    }

    #[test]
    fn evict_to_may_sheds_memory_and_suppresses_vsm_claims() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let a = rt.alloc_with::<f64>("a", 100_000, |_| 0.0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..100_000, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
        // Eviction frees tables that concurrent events would read, so it
        // takes the detector exclusively: the runtime goes first.
        let a0 = rt.info(a.id()).ov_base;
        drop(rt);
        let mut tool = Arc::into_inner(tool).expect("the runtime held the only other handle");
        let before = tool.side_table_bytes();
        let freed = tool.evict_to_may();
        assert!(tool.degraded());
        assert!(freed > 0, "eviction freed nothing");
        assert!(tool.side_table_bytes() < before, "side tables did not shrink");
        // Post-eviction the granule reads back as the initial state, which
        // would be a UUM claim on a fresh detector; May mode suppresses it.
        tool.on_access(&host_access(a0, false, a.id()));
        assert!(tool.reports().is_empty(), "May mode asserted a violation: {:?}", tool.reports());
    }

    fn host_access(addr: u64, is_write: bool, buffer: BufferId) -> AccessEvent {
        AccessEvent {
            device: DeviceId::HOST,
            addr,
            size: 8,
            is_write,
            task: TaskId::HOST,
            buffer: Some(buffer),
            mapped: true,
            atomic: false,
            loc: SrcLoc::caller(),
        }
    }

    fn kernel_access(addr: u64, buffer: BufferId) -> AccessEvent {
        AccessEvent { device: DeviceId::ACCEL0, is_write: true, ..host_access(addr, true, buffer) }
    }

    fn register(tool: &Arbalest, id: u32, name: &str, ov_base: u64) -> BufferId {
        let info =
            BufferInfo { id: BufferId(id), name: name.into(), elem_size: 8, len: 64, ov_base };
        tool.on_buffer_registered(&info);
        info.id
    }

    fn data_op(kind: DataOpKind, buffer: BufferId, ov_addr: u64, cv_base: u64) -> DataOpEvent {
        DataOpEvent {
            kind,
            buffer,
            device: DeviceId::ACCEL0,
            ov_addr,
            cv_base,
            len: 512,
            plugin_visible: true,
            task: TaskId::HOST,
        }
    }

    #[test]
    fn detectors_sharing_a_thread_resolve_their_own_cvs() {
        // A server shard feeds many sessions on one thread: two detectors
        // map the same CV range to different buffers, and each lookup must
        // come from its own detector's tree, not the other's cached entry.
        let cv = 0x2000_0000_1000;
        let (d1, d2) = (Arbalest::default(), Arbalest::default());
        let b1 = register(&d1, 0, "one", 0x1000_0000_0000);
        let b2 = register(&d2, 1, "two", 0x1000_0000_8000);
        d1.on_data_op(&data_op(DataOpKind::CvAlloc, b1, 0x1000_0000_0000, cv));
        d2.on_data_op(&data_op(DataOpKind::CvAlloc, b2, 0x1000_0000_8000, cv));
        for i in 0..8 {
            d1.on_access(&kernel_access(cv + i * 8, b1));
            d2.on_access(&kernel_access(cv + i * 8, b2));
        }
        for d in [&d1, &d2] {
            assert!(d.reports().is_empty(), "{:?}", d.reports());
            assert_eq!(d.stats().cache_misses.get(), 1, "one walk, then the thread's cache");
            assert_eq!(d.stats().cache_hits.get(), 7);
        }
    }

    #[test]
    fn access_and_lookup_counts_are_exact_on_every_path() {
        // Hits and accesses that commit a VSM edge are counted by the edge
        // alone; the series must still read exactly what happened.
        let cv = 0x2000_0000_1000;
        let tool = Arbalest::default();
        let a = register(&tool, 0, "a", 0x1000_0000_0000);
        let b = register(&tool, 1, "b", 0x1000_0000_8000);
        tool.on_data_op(&data_op(DataOpKind::CvAlloc, a, 0x1000_0000_0000, cv));
        tool.on_access(&host_access(0x1000_0000_0000, true, a)); // host: no lookup
        tool.on_access(&kernel_access(cv, a)); // miss
        tool.on_access(&kernel_access(cv + 8, a)); // hit
        tool.on_access(&kernel_access(cv + 16, b)); // hit, into a's CV: rejected
        tool.on_access(&kernel_access(0x2000_0000_9000, a)); // miss, outside every CV
        tool.on_access(&AccessEvent { mapped: false, ..kernel_access(cv, b) }); // no lookup
        let stats = tool.stats();
        assert_eq!(stats.accesses.get(), 6);
        assert_eq!((stats.cache_hits.get(), stats.cache_misses.get()), (2, 2));
        // One alloc range of 64 granules plus the three analysed accesses.
        assert_eq!(stats.vsm_transitions(), 64 + 3);
        let snap = tool.registry().snapshot();
        assert_eq!(snap.counter("arbalest_detector_accesses_total", &[]), Some(6));
        assert_eq!(
            snap.counter("arbalest_detector_lookup_cache_total", &[("result", "hit")]),
            Some(2)
        );
        assert_eq!(snap.counter_sum("arbalest_detector_vsm_transition_pairs_total"), 64 + 3);
        // The two analysed device writes, one after a miss and one after a
        // hit, both land in the exported write_target column.
        let device_writes: u64 = snap
            .counters_named("arbalest_detector_vsm_transition_pairs_total")
            .filter(|(labels, _)| labels.iter().any(|(k, v)| k == "op" && v == "write_target"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(device_writes, 2);
    }

    #[test]
    fn a_deleted_cv_is_not_served_from_the_cache() {
        let cv = 0x2000_0000_1000;
        let tool = Arbalest::default();
        let b1 = register(&tool, 0, "one", 0x1000_0000_0000);
        let b2 = register(&tool, 1, "two", 0x1000_0000_8000);
        tool.on_data_op(&data_op(DataOpKind::CvAlloc, b1, 0x1000_0000_0000, cv));
        tool.on_access(&kernel_access(cv, b1));
        tool.on_data_op(&data_op(DataOpKind::CvDelete, b1, 0x1000_0000_0000, cv));
        tool.on_data_op(&data_op(DataOpKind::CvAlloc, b2, 0x1000_0000_8000, cv));
        tool.on_access(&kernel_access(cv, b2));
        assert!(
            !tool.reports().iter().any(|r| r.message.contains("overflowed into the corresponding variable of")),
            "stale cached CV: {:?}",
            tool.reports()
        );
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn isolated_pages_are_counted_with_their_table_nodes() {
        // Each page lies in its own top-level subtree of the 52-bit page
        // index (4-bit root, six 256-slot levels), so in both the shadow
        // and the race history it brings its own path of six nodes of at
        // least 4 KiB (256 slots of 16 bytes), besides a 4 KiB shadow page
        // and a race-history page of at least 4 KiB.
        const K: u64 = 5;
        let tool = Arbalest::default();
        let b = register(&tool, 0, "a", 0x1000_0000_0000);
        let base = tool.side_table_bytes();
        for k in 1..=K {
            tool.on_access(&host_access(k << 60, true, b));
        }
        let grown = tool.side_table_bytes() - base;
        let per_page = 4096 + 4096 + 2 * 6 * 4096;
        assert!(grown >= K * per_page, "{K} isolated pages grew the side tables by {grown} bytes");
        // Neighbours of those pages share everything but their own page.
        let isolated = tool.side_table_bytes();
        for k in 1..=K {
            tool.on_access(&host_access((k << 60) + 4096, true, b));
        }
        let neighbours = tool.side_table_bytes() - isolated;
        assert!(
            grown - neighbours >= K * 2 * 6 * 4096,
            "isolated pages {grown} bytes, neighbours {neighbours}: the node paths are missing"
        );
    }

    #[test]
    fn side_tables_grow_with_footprint() {
        let (rt, tool) = harness(ArbalestConfig::default());
        let base = tool.side_table_bytes();
        let a = rt.alloc_with::<f64>("a", 100_000, |_| 0.0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..100_000, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        assert!(tool.side_table_bytes() > base + 100_000, "shadow must be resident");
    }
}
