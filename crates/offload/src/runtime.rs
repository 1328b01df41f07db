//! The offloading runtime: devices, target constructs, kernel teams,
//! asynchronous tasks, and tool event dispatch.
//!
//! Execution model (§II of the paper): a host program (one logical host
//! task) offloads *target regions* to devices. Synchronous regions block
//! the host; `nowait` regions run concurrently on their own OS thread.
//! Entry/exit data mappings execute *as part of the target task*, so a
//! `nowait` region's transfers genuinely race with concurrent host code —
//! the hazard of Fig. 2 is executable, not merely modeled.
//!
//! Kernel team members (`par_for`, `teams`, `par_reduce`) run on the hot
//! team (`crate::team`): member 0 on the thread that encounters the
//! construct, the others on parked workers reused from fork to fork, as
//! libomp keeps its team between parallel regions. A `nowait` region
//! keeps its own OS thread. Its schedule is a seeded input still to come
//! (ROADMAP item 2), and a parked worker would start it sooner than a
//! spawned thread does. That changes which unordered present-table
//! operation wins on the schedule-dependent generated programs, and the
//! differential fuzz checks would read the flips as failures.
//!
//! With `Config::serialize_nowait` (ARBALEST's Theorem-1 analysis mode),
//! `nowait` bodies run inline on the host thread **but the emitted
//! happens-before structure is unchanged** — the race detector still sees
//! host and kernel as unordered, while the VSM observes the deterministic
//! serialized schedule. That decoupling is exactly what Theorem 1 needs.

use crate::addr::{device_base, device_of, DeviceId, UNMAPPED_REGION_OFFSET};
use crate::buffer::{Buffer, BufferId, BufferInfo};
use crate::error::RuntimeError;
use crate::events::{
    AccessEvent, ConstructEvent, DataOpEvent, DataOpKind, SrcLoc, SyncEvent, TaskId, Tool,
    TransferEvent, TransferKind,
};
use crate::fault::{FaultConfig, FaultOutcome, FaultPlan, FaultSite, MAX_RETRIES};
use crate::mapping::{ExitPlan, Map, PresentEntry, PresentTable};
use crate::mem::{self, AddressSpace};
use crate::report::{Report, ReportKind};
use crate::scalar::Scalar;
use crate::team;
use arbalest_sync::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::marker::PhantomData;

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};

/// Runtime configuration.
#[derive(Clone)]
pub struct Config {
    /// Number of accelerator devices (default 1).
    pub accelerators: u16,
    /// Threads per kernel team for `par_for` (default 4).
    pub team_size: usize,
    /// Unified memory (§III-B): OV and CV share storage; map transfers
    /// become coherence flushes.
    pub unified_memory: bool,
    /// Theorem-1 analysis mode: run `nowait` bodies synchronously while
    /// preserving the asynchronous happens-before structure.
    pub serialize_nowait: bool,
    /// Device plugin pools its allocations (default true, like the LLVM
    /// CUDA plugin) — hides per-CV operations from binary instrumentation.
    pub pooled_device_alloc: bool,
    /// Route `target update` transfers through a runtime-internal staging
    /// buffer (default true) — launders allocator-interception shadow.
    pub staged_update_transfers: bool,
    /// Emit tool events for *implicit* data mappings of `declare target`
    /// globals (default true — the OMPT extension the paper's authors
    /// proposed in §V-A). With `false`, the runtime still performs the
    /// implicit mappings but tools never hear about them — the LLVM-9 OMPT
    /// behaviour that made tools mishandle global variables.
    pub implicit_map_events: bool,
    /// X10CUDA/OpenARC-style automatic memory management (§III-C, §VII-A
    /// of the paper): track per-variable coherence at coarse granularity
    /// and insert the missing transfers before stale reads. Repairs
    /// USD-class mapping issues in synchronous programs; cannot repair
    /// UUMs (there is nothing valid to copy) or asynchronous hazards.
    pub auto_coherence: bool,
    /// Deterministic fault injection (seed + per-site fault rate). The
    /// default is disabled; see [`crate::fault`] for the fault model.
    pub faults: FaultConfig,
    /// Metrics registry the runtime records into (map/update/launch
    /// latencies, transfer volume, fault outcomes). Disabled by default —
    /// an uninstrumented runtime pays one predictable branch per site.
    pub metrics: arbalest_obs::Registry,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            accelerators: 1,
            team_size: 4,
            unified_memory: false,
            serialize_nowait: false,
            pooled_device_alloc: true,
            staged_update_transfers: true,
            implicit_map_events: true,
            auto_coherence: false,
            faults: FaultConfig::disabled(),
            metrics: arbalest_obs::Registry::disabled(),
        }
    }
}

impl Config {
    /// Set the number of accelerators.
    pub fn accelerators(mut self, n: u16) -> Self {
        self.accelerators = n;
        self
    }
    /// Set the kernel team size.
    pub fn team_size(mut self, n: usize) -> Self {
        self.team_size = n.max(1);
        self
    }
    /// Enable unified memory.
    pub fn unified(mut self, on: bool) -> Self {
        self.unified_memory = on;
        self
    }
    /// Enable Theorem-1 serialization of `nowait` kernels.
    pub fn serialize(mut self, on: bool) -> Self {
        self.serialize_nowait = on;
        self
    }
    /// Control device-plugin pooling.
    pub fn pooled(mut self, on: bool) -> Self {
        self.pooled_device_alloc = on;
        self
    }
    /// Control update-transfer staging.
    pub fn staged_updates(mut self, on: bool) -> Self {
        self.staged_update_transfers = on;
        self
    }
    /// Enable automatic coherence management (issue *avoidance*).
    pub fn auto_coherence(mut self, on: bool) -> Self {
        self.auto_coherence = on;
        self
    }
    /// Control implicit-mapping event callbacks (§V-A).
    pub fn implicit_map_events(mut self, on: bool) -> Self {
        self.implicit_map_events = on;
        self
    }
    /// Inject deterministic faults: each fault site fires with probability
    /// `rate`, decided by a SplitMix64 stream seeded with `seed`.
    pub fn faults(mut self, seed: u64, rate: f64) -> Self {
        self.faults = FaultConfig::new(seed, rate);
        self
    }
    /// Set the full fault-injection configuration.
    pub fn fault_config(mut self, cfg: FaultConfig) -> Self {
        self.faults = cfg;
        self
    }
    /// Record runtime metrics into `reg` (share one registry across the
    /// runtime, the detector, and the exporters).
    pub fn metrics(mut self, reg: arbalest_obs::Registry) -> Self {
        self.metrics = reg;
        self
    }
}

/// Pre-registered metric handles for the runtime hot paths; constructed
/// once per runtime so recording never touches the registry tables.
struct RtMetrics {
    /// Map-phase latency histograms: `arbalest_rt_map_nanos{phase}`.
    entry_maps: arbalest_obs::Histogram,
    exit_maps: arbalest_obs::Histogram,
    /// `target update` latency: `arbalest_rt_update_nanos`.
    update: arbalest_obs::Histogram,
    /// Whole target-region latency (launch + maps + body):
    /// `arbalest_rt_target_nanos`.
    target: arbalest_obs::Histogram,
    /// `arbalest_rt_transfers_total` / `arbalest_rt_transfer_bytes_total`.
    transfers: arbalest_obs::Counter,
    transfer_bytes: arbalest_obs::Counter,
    /// Transient-fault retries: `arbalest_rt_fault_retries_total`.
    fault_retries: arbalest_obs::Counter,
    /// `arbalest_rt_fault_outcomes_total{site,outcome}`, indexed
    /// `[site][outcome]` per the label tables below.
    fault_outcomes: Vec<Vec<arbalest_obs::Counter>>,
    sp_entry: arbalest_obs::SpanName,
    sp_exit: arbalest_obs::SpanName,
    sp_update: arbalest_obs::SpanName,
    sp_target: arbalest_obs::SpanName,
    reg: arbalest_obs::Registry,
}

const FAULT_SITE_LABELS: [&str; 13] = [
    "device_alloc",
    "transfer_to_device",
    "transfer_from_device",
    "kernel_launch",
    "nowait_complete",
    "wire_partial_frame",
    "wire_disconnect",
    "wire_stall",
    "shard_panic",
    "budget_pressure",
    "wal_torn_tail",
    "wal_corrupt_record",
    "fsync_fail",
];
const FAULT_OUTCOME_LABELS: [&str; 5] = ["none", "transient", "permanent", "partial", "delay"];

fn fault_site_index(site: FaultSite) -> usize {
    match site {
        FaultSite::DeviceAlloc => 0,
        FaultSite::TransferToDevice => 1,
        FaultSite::TransferFromDevice => 2,
        FaultSite::KernelLaunch => 3,
        FaultSite::NowaitComplete => 4,
        FaultSite::WirePartialFrame => 5,
        FaultSite::WireDisconnect => 6,
        FaultSite::WireStall => 7,
        FaultSite::ShardPanic => 8,
        FaultSite::BudgetPressure => 9,
        FaultSite::WalTornTail => 10,
        FaultSite::WalCorruptRecord => 11,
        FaultSite::FsyncFail => 12,
    }
}

fn fault_outcome_index(outcome: &FaultOutcome) -> usize {
    match outcome {
        FaultOutcome::None => 0,
        FaultOutcome::Transient => 1,
        FaultOutcome::Permanent => 2,
        FaultOutcome::Partial { .. } => 3,
        FaultOutcome::Delay { .. } => 4,
    }
}

impl RtMetrics {
    fn new(reg: &arbalest_obs::Registry) -> RtMetrics {
        let fault_outcomes = FAULT_SITE_LABELS
            .iter()
            .map(|site| {
                FAULT_OUTCOME_LABELS
                    .iter()
                    .map(|outcome| {
                        reg.counter(
                            "arbalest_rt_fault_outcomes_total",
                            &[("site", site), ("outcome", outcome)],
                        )
                    })
                    .collect()
            })
            .collect();
        RtMetrics {
            entry_maps: reg.histogram("arbalest_rt_map_nanos", &[("phase", "entry")]),
            exit_maps: reg.histogram("arbalest_rt_map_nanos", &[("phase", "exit")]),
            update: reg.histogram("arbalest_rt_update_nanos", &[]),
            target: reg.histogram("arbalest_rt_target_nanos", &[]),
            transfers: reg.counter("arbalest_rt_transfers_total", &[]),
            transfer_bytes: reg.counter("arbalest_rt_transfer_bytes_total", &[]),
            fault_retries: reg.counter("arbalest_rt_fault_retries_total", &[]),
            fault_outcomes,
            sp_entry: reg.span_name("rt.entry_maps"),
            sp_exit: reg.span_name("rt.exit_maps"),
            sp_update: reg.span_name("rt.update"),
            sp_target: reg.span_name("rt.target"),
            reg: reg.clone(),
        }
    }

    /// Count one fault-plan decision (only called when injection is
    /// active, so the inactive hot path stays untouched).
    fn note_fault(&self, site: FaultSite, outcome: &FaultOutcome) {
        self.fault_outcomes[fault_site_index(site)][fault_outcome_index(outcome)].inc();
        if matches!(outcome, FaultOutcome::Transient) {
            self.fault_retries.inc();
        }
    }
}

/// Completion latch for a task.
struct TaskRecord {
    done: Mutex<bool>,
    cv: Condvar,
}

impl TaskRecord {
    fn new() -> Self {
        TaskRecord { done: Mutex::new(false), cv: Condvar::new() }
    }
    fn complete(&self) {
        *self.done.lock() = true;
        self.cv.notify_all();
    }
    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.cv.wait(&mut done);
        }
    }
}

/// Dependence kind for `depend` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependKind {
    /// `depend(in: ...)` — ordered after the last `out` task.
    In,
    /// `depend(out: ...)` / `depend(inout: ...)` — ordered after the last
    /// `out` task and all intervening `in` tasks.
    Out,
}

/// One `depend` clause.
#[derive(Debug, Clone, Copy)]
pub struct Depend {
    /// Buffer whose dependence chain this participates in.
    pub buffer: BufferId,
    /// In or out.
    pub kind: DependKind,
}

impl Depend {
    /// `depend(in: buf)`
    pub fn read<T: Scalar>(buf: &Buffer<T>) -> Depend {
        Depend { buffer: buf.id(), kind: DependKind::In }
    }
    /// `depend(out: buf)` / `depend(inout: buf)`
    pub fn write<T: Scalar>(buf: &Buffer<T>) -> Depend {
        Depend { buffer: buf.id(), kind: DependKind::Out }
    }
}

#[derive(Default)]
struct DepChain {
    last_out: Option<(TaskId, Arc<TaskRecord>)>,
    last_ins: Vec<(TaskId, Arc<TaskRecord>)>,
}

/// The attached tools, in attach order.
type Tools = Arc<Vec<Arc<dyn Tool>>>;

struct Rt {
    cfg: Config,
    criticals: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    /// `declare target` globals: implicitly mapped at first device use.
    declared: Mutex<Vec<BufferId>>,
    globals_mapped: Vec<AtomicBool>,
    spaces: Vec<Arc<AddressSpace>>,
    buffers: RwLock<Vec<BufferInfo>>,
    present: Vec<Mutex<PresentTable>>,
    /// Attached tools. Replaced whole on attach, so a construct can take
    /// one snapshot and hand it to its kernel threads.
    tools: RwLock<Tools>,
    next_task: AtomicU32,
    pending: Mutex<Vec<(TaskId, Arc<TaskRecord>)>>,
    deps: Mutex<HashMap<BufferId, DepChain>>,
    pool_announced: Vec<AtomicBool>,
    staging_lock: Mutex<()>,
    staging_base: Mutex<Option<(u64, u64)>>,
    /// Coarse per-variable coherence state for `auto_coherence` mode: a
    /// freshness bitmask (bit 0 = host OV, bit d = device d's CV), one
    /// state per whole variable like X10CUDA/OpenARC (§VII-A).
    coherence: Mutex<HashMap<BufferId, u8>>,
    /// Seeded fault-decision stream (inactive when the rate is zero).
    faults: FaultPlan,
    /// Log of every recovered abnormality, in observation order.
    errors: Mutex<Vec<RuntimeError>>,
    /// Reports the runtime itself emits (e.g. double free), merged into
    /// [`Runtime::reports`] alongside tool findings.
    own_reports: Mutex<Vec<Report>>,
    /// Pre-registered observability handles (no-ops unless
    /// [`Config::metrics`] carries an enabled registry).
    metrics: std::sync::Arc<RtMetrics>,
}

/// The offloading runtime. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Rt>,
}

impl Runtime {
    /// Create a runtime with the given configuration and no tools.
    pub fn new(cfg: Config) -> Runtime {
        let n = cfg.accelerators;
        let spaces = (0..=n).map(|d| Arc::new(AddressSpace::new(DeviceId(d)))).collect();
        let present = (0..n).map(|_| Mutex::new(PresentTable::new())).collect();
        let pool_announced = (0..n).map(|_| AtomicBool::new(false)).collect();
        let faults = FaultPlan::new(cfg.faults);
        // Cached per registry: runtimes sharing a registry share cells, so
        // re-registering the ~35 series per runtime would only slow setup.
        let metrics = cfg.metrics.state(RtMetrics::new);
        Runtime {
            inner: Arc::new(Rt {
                criticals: Mutex::new(HashMap::new()),
                declared: Mutex::new(Vec::new()),
                globals_mapped: (0..cfg.accelerators).map(|_| AtomicBool::new(false)).collect(),
                cfg,
                spaces,
                buffers: RwLock::new(Vec::new()),
                present,
                tools: RwLock::new(Tools::default()),
                next_task: AtomicU32::new(1),
                pending: Mutex::new(Vec::new()),
                deps: Mutex::new(HashMap::new()),
                pool_announced,
                staging_lock: Mutex::new(()),
                staging_base: Mutex::new(None),
                coherence: Mutex::new(HashMap::new()),
                faults,
                errors: Mutex::new(Vec::new()),
                own_reports: Mutex::new(Vec::new()),
                metrics,
            }),
        }
    }

    /// Create a runtime with a single attached tool.
    pub fn with_tool(cfg: Config, tool: Arc<dyn Tool>) -> Runtime {
        let rt = Runtime::new(cfg);
        rt.attach(tool);
        rt
    }

    /// Attach a tool. Attach all tools before allocating buffers so they
    /// observe every registration.
    pub fn attach(&self, tool: Arc<dyn Tool>) {
        Arc::make_mut(&mut *self.inner.tools.write()).push(tool);
    }

    /// The runtime configuration.
    pub fn config(&self) -> &Config {
        &self.inner.cfg
    }

    /// Collected reports: the runtime's own findings (e.g. double free)
    /// followed by those of every attached tool.
    pub fn reports(&self) -> Vec<Report> {
        let mut out: Vec<Report> = self.inner.own_reports.lock().clone();
        out.extend(self.inner.tools.read().iter().flat_map(|t| t.reports()));
        out
    }

    /// Every recovered abnormality so far, in observation order: injected
    /// faults the runtime rode out (retries, host fallback) and API misuse
    /// it survived (out-of-range accesses, double frees). An empty log
    /// means the run was fault-free.
    pub fn errors(&self) -> Vec<RuntimeError> {
        self.inner.errors.lock().clone()
    }

    /// Reports from the named tool only.
    pub fn reports_of(&self, name: &str) -> Vec<Report> {
        self.inner
            .tools
            .read()
            .iter()
            .filter(|t| t.name() == name)
            .flat_map(|t| t.reports())
            .collect()
    }

    /// Total bytes materialised by all device memories (application side
    /// of Fig. 9's measurement).
    pub fn resident_bytes(&self) -> u64 {
        self.inner.spaces.iter().map(|s| s.resident_bytes()).sum()
    }

    /// Bytes of tool side tables (shadow memory etc.), summed.
    pub fn tool_bytes(&self) -> u64 {
        self.inner.tools.read().iter().map(|t| t.side_table_bytes()).sum()
    }

    // ------------------------------------------------------------------
    // Buffers (OVs)
    // ------------------------------------------------------------------

    /// Allocate an uninitialized tracked host buffer of `len` elements.
    pub fn alloc<T: Scalar>(&self, name: &str, len: usize) -> Buffer<T> {
        let bytes = (len * T::SIZE) as u64;
        let ov_base = self.inner.spaces[0].alloc(bytes.max(8));
        let id = BufferId(self.inner.buffers.read().len() as u32);
        let info = BufferInfo { id, name: name.to_string(), elem_size: T::SIZE, len, ov_base };
        self.inner.buffers.write().push(info.clone());
        for t in self.inner.tools.read().iter() {
            t.on_buffer_registered(&info);
        }
        Buffer { id, len, _marker: PhantomData }
    }

    /// Allocate and initialise from a slice (each element written through
    /// the instrumented path, so tools see the initialisation).
    #[track_caller]
    pub fn alloc_init<T: Scalar>(&self, name: &str, data: &[T]) -> Buffer<T> {
        let buf = self.alloc(name, data.len());
        for (i, v) in data.iter().enumerate() {
            self.write(&buf, i, *v);
        }
        buf
    }

    /// Allocate and fill with a generator.
    #[track_caller]
    pub fn alloc_with<T: Scalar>(&self, name: &str, len: usize, f: impl Fn(usize) -> T) -> Buffer<T> {
        let buf = self.alloc(name, len);
        for i in 0..len {
            self.write(&buf, i, f(i));
        }
        buf
    }

    /// Free a tracked host buffer. A double free is recorded as a
    /// [`RuntimeError::DoubleFree`] plus a `UseAfterFree` report (visible
    /// in [`Runtime::reports`]) instead of aborting the process.
    #[track_caller]
    pub fn free<T: Scalar>(&self, buf: &Buffer<T>) {
        let _ = self.try_free(buf);
    }

    /// Like [`Runtime::free`], returning the error for a bad free.
    #[track_caller]
    pub fn try_free<T: Scalar>(&self, buf: &Buffer<T>) -> Result<(), RuntimeError> {
        let info = self.info(buf.id());
        match self.inner.spaces[0].free(info.ov_base) {
            Ok(_) => {
                for t in self.inner.tools.read().iter() {
                    t.on_host_free(&info);
                }
                Ok(())
            }
            Err(e) => {
                self.inner.note_error(e.clone());
                self.inner.own_reports.lock().push(Report {
                    tool: "runtime",
                    kind: ReportKind::UseAfterFree,
                    message: format!("free of already-freed buffer '{}'", info.name),
                    buffer: Some(info.name.clone()),
                    device: DeviceId::HOST,
                    addr: info.ov_base,
                    size: info.elem_size,
                    loc: Some(SrcLoc::caller()),
                    prev: None,
                    suggested_fix: Some(format!("remove the duplicate free of '{}'", info.name)),
                    provenance: Vec::new(),
                });
                Err(e)
            }
        }
    }

    /// Metadata of a buffer. An id this runtime never allocated yields a
    /// zero-length placeholder and a logged [`RuntimeError::UnknownBuffer`].
    pub fn info(&self, id: BufferId) -> BufferInfo {
        self.inner.buffer_info(id)
    }

    // ------------------------------------------------------------------
    // Host accesses
    // ------------------------------------------------------------------

    /// Tracked host read of element `idx`. An out-of-range index is
    /// recorded as a [`RuntimeError::OutOfRange`] and reads as a zero
    /// value (see [`Runtime::try_read`] for the checked variant).
    #[track_caller]
    #[inline]
    pub fn read<T: Scalar>(&self, buf: &Buffer<T>, idx: usize) -> T {
        match self.try_read(buf, idx) {
            Ok(v) => v,
            Err(e) => {
                self.inner.note_error(e);
                T::from_bits(0)
            }
        }
    }

    /// Checked host read: `Err` for an out-of-range index.
    #[track_caller]
    #[inline]
    pub fn try_read<T: Scalar>(&self, buf: &Buffer<T>, idx: usize) -> Result<T, RuntimeError> {
        if idx >= buf.len() {
            return Err(RuntimeError::OutOfRange {
                buffer: buf.id(),
                index: idx,
                len: buf.len(),
                is_write: false,
            });
        }
        self.inner.coherence_before_host_read(buf.id());
        let addr = self.inner.ov_base(buf.id()) + (idx * T::SIZE) as u64;
        self.inner.emit_access(AccessEvent {
            device: DeviceId::HOST,
            addr,
            size: T::SIZE,
            is_write: false,
            task: TaskId::HOST,
            buffer: Some(buf.id()),
            mapped: true,
            atomic: false,
            loc: SrcLoc::caller(),
        });
        Ok(T::from_bits(self.inner.spaces[0].load(addr, T::SIZE)))
    }

    /// Tracked host write of element `idx`. An out-of-range index is
    /// recorded as a [`RuntimeError::OutOfRange`] and dropped (see
    /// [`Runtime::try_write`] for the checked variant).
    #[track_caller]
    #[inline]
    pub fn write<T: Scalar>(&self, buf: &Buffer<T>, idx: usize, value: T) {
        if let Err(e) = self.try_write(buf, idx, value) {
            self.inner.note_error(e);
        }
    }

    /// Checked host write: `Err` for an out-of-range index.
    #[track_caller]
    #[inline]
    pub fn try_write<T: Scalar>(&self, buf: &Buffer<T>, idx: usize, value: T) -> Result<(), RuntimeError> {
        if idx >= buf.len() {
            return Err(RuntimeError::OutOfRange {
                buffer: buf.id(),
                index: idx,
                len: buf.len(),
                is_write: true,
            });
        }
        self.inner.coherence_host_write(buf.id());
        let addr = self.inner.ov_base(buf.id()) + (idx * T::SIZE) as u64;
        self.inner.emit_access(AccessEvent {
            device: DeviceId::HOST,
            addr,
            size: T::SIZE,
            is_write: true,
            task: TaskId::HOST,
            buffer: Some(buf.id()),
            mapped: true,
            atomic: false,
            loc: SrcLoc::caller(),
        });
        self.inner.spaces[0].store(addr, T::SIZE, value.to_bits());
        Ok(())
    }

    /// Read the whole buffer into a `Vec` (each element tracked).
    #[track_caller]
    pub fn read_all<T: Scalar>(&self, buf: &Buffer<T>) -> Vec<T> {
        (0..buf.len()).map(|i| self.read(buf, i)).collect()
    }

    // ------------------------------------------------------------------
    // Constructs
    // ------------------------------------------------------------------

    /// Begin building a `target` construct on the default accelerator.
    pub fn target(&self) -> TargetBuilder {
        TargetBuilder {
            rt: self.clone(),
            device: DeviceId::ACCEL0,
            maps: Vec::new(),
            depends: Vec::new(),
            nowait: false,
        }
    }

    /// Begin building a structured `target data` region.
    pub fn target_data(&self) -> TargetDataBuilder {
        TargetDataBuilder { rt: self.clone(), device: DeviceId::ACCEL0, maps: Vec::new() }
    }

    /// `target enter data` with the given maps. A permanent device OOM
    /// rolls the mappings back and is recorded in [`Runtime::errors`].
    pub fn target_enter_data(&self, device: DeviceId, maps: &[Map]) {
        let _ = self.inner.perform_entry_maps(device, maps, TaskId::HOST);
    }

    /// `target exit data` with the given maps.
    pub fn target_exit_data(&self, device: DeviceId, maps: &[Map]) {
        self.inner.perform_exit_maps(device, maps, TaskId::HOST);
    }

    /// `target update to(buf)` — OV → CV, ignoring reference counts.
    pub fn update_to<T: Scalar>(&self, buf: &Buffer<T>) {
        self.update_to_on(DeviceId::ACCEL0, buf);
    }

    /// `target update from(buf)` — CV → OV.
    pub fn update_from<T: Scalar>(&self, buf: &Buffer<T>) {
        self.update_from_on(DeviceId::ACCEL0, buf);
    }

    /// `target update to` on a specific device.
    pub fn update_to_on<T: Scalar>(&self, device: DeviceId, buf: &Buffer<T>) {
        self.inner.perform_update(device, buf.id(), TransferKind::ToDevice, TaskId::HOST);
    }

    /// `target update from` on a specific device.
    pub fn update_from_on<T: Scalar>(&self, device: DeviceId, buf: &Buffer<T>) {
        self.inner.perform_update(device, buf.id(), TransferKind::FromDevice, TaskId::HOST);
    }

    /// `declare target`-style global: the buffer is *implicitly* mapped
    /// (tofrom semantics, permanent CV) on each device the first time a
    /// target construct runs there — during "initialization of the
    /// device", as §V-A describes. Whether tools observe the implicit
    /// mapping is governed by [`Config::implicit_map_events`].
    pub fn declare_target<T: Scalar>(&self, buf: &Buffer<T>) {
        self.inner.declared.lock().push(buf.id());
    }

    /// `omp_target_memcpy` between two accelerators: copy `buf`'s CV on
    /// `src` directly to its CV on `dst`. Both must be present; the copy
    /// covers the overlap of the two mapped sections.
    pub fn device_memcpy<T: Scalar>(&self, src: DeviceId, dst: DeviceId, buf: &Buffer<T>) {
        let (Some(src_table), Some(dst_table)) =
            (self.inner.present_table(src), self.inner.present_table(dst))
        else {
            // Host endpoints (use update_to/update_from) or unknown
            // devices: recorded, not fatal.
            let bad = if self.inner.present_table(src).is_none() { src } else { dst };
            self.inner.note_error(RuntimeError::InvalidDevice { device: bad });
            return;
        };
        let src_entry = src_table.lock().get(buf.id());
        let dst_entry = dst_table.lock().get(buf.id());
        let (Some(se), Some(de)) = (src_entry, dst_entry) else { return };
        // Overlap of the two sections, in OV byte offsets.
        let lo = se.offset_bytes.max(de.offset_bytes);
        let hi = (se.offset_bytes + se.len_bytes).min(de.offset_bytes + de.len_bytes);
        if lo >= hi {
            return;
        }
        let len = hi - lo;
        let (src_addr, dst_addr) = (se.cv_addr(lo), de.cv_addr(lo));
        if !self.inner.cfg.unified_memory {
            mem::copy(
                &self.inner.spaces[src.0 as usize],
                src_addr,
                &self.inner.spaces[dst.0 as usize],
                dst_addr,
                len,
            );
        }
        let ev = TransferEvent {
            buffer: buf.id(),
            kind: TransferKind::DeviceToDevice,
            src_device: src,
            src_addr,
            dst_device: dst,
            dst_addr,
            len,
            task: TaskId::HOST,
            staged: false,
            unified: self.inner.cfg.unified_memory,
        };
        for t in self.inner.tools.read().iter() {
            t.on_transfer(&ev);
        }
    }

    /// `target update to(buf[start:len])` — sectioned update.
    pub fn update_to_section<T: Scalar>(&self, device: DeviceId, buf: &Buffer<T>, start: usize, len: usize) {
        self.inner.perform_update_section(
            device,
            buf.id(),
            TransferKind::ToDevice,
            (start * T::SIZE) as u64,
            (len * T::SIZE) as u64,
            TaskId::HOST,
        );
    }

    /// `target update from(buf[start:len])` — sectioned update.
    pub fn update_from_section<T: Scalar>(&self, device: DeviceId, buf: &Buffer<T>, start: usize, len: usize) {
        self.inner.perform_update_section(
            device,
            buf.id(),
            TransferKind::FromDevice,
            (start * T::SIZE) as u64,
            (len * T::SIZE) as u64,
            TaskId::HOST,
        );
    }

    /// `taskwait`: block until every outstanding `nowait` task finishes,
    /// establishing the host-after-task happens-before edges.
    pub fn taskwait(&self) {
        let pending: Vec<_> = std::mem::take(&mut *self.inner.pending.lock());
        for (task, record) in pending {
            record.wait();
            self.inner.emit_sync(SyncEvent::TaskJoin { waiter: TaskId::HOST, joined: task });
        }
    }

    /// Whether a buffer currently has a CV on a device. The host (which
    /// has no present table) and unknown devices answer `false`.
    pub fn is_present<T: Scalar>(&self, device: DeviceId, buf: &Buffer<T>) -> bool {
        match self.inner.present_table(device) {
            Some(table) => table.lock().exists(buf.id()),
            None => false,
        }
    }
}

impl Rt {
    fn new_task(&self) -> TaskId {
        TaskId(self.next_task.fetch_add(1, Ordering::Relaxed))
    }

    #[inline]
    fn emit_access(&self, ev: AccessEvent) {
        for t in self.tools.read().iter() {
            t.on_access(&ev);
        }
    }

    fn emit_sync(&self, ev: SyncEvent) {
        for t in self.tools.read().iter() {
            t.on_sync(&ev);
        }
    }

    fn emit_construct(&self, ev: ConstructEvent) {
        for t in self.tools.read().iter() {
            t.on_construct(&ev);
        }
    }

    fn space(&self, dev: DeviceId) -> &AddressSpace {
        &self.spaces[dev.0 as usize]
    }

    fn note_error(&self, e: RuntimeError) {
        self.errors.lock().push(e);
    }

    /// The present table of an accelerator; `None` for the host or a
    /// device id this runtime was not configured with.
    fn present_table(&self, device: DeviceId) -> Option<&Mutex<PresentTable>> {
        if device.is_host() {
            return None;
        }
        self.present.get((device.0 - 1) as usize)
    }

    /// True when `device` names the host or a configured accelerator.
    fn device_known(&self, device: DeviceId) -> bool {
        device.is_host() || (device.0 as usize) <= self.present.len()
    }

    /// OV base address of a buffer, read in place (no `BufferInfo`
    /// clone); an unknown id is handled as in [`Rt::buffer_info`].
    fn ov_base(&self, id: BufferId) -> u64 {
        let base = self.buffers.read().get(id.0 as usize).map(|info| info.ov_base);
        base.unwrap_or_else(|| self.buffer_info(id).ov_base)
    }

    fn buffer_info(&self, id: BufferId) -> BufferInfo {
        match self.buffers.read().get(id.0 as usize) {
            Some(info) => info.clone(),
            None => {
                // A handle this runtime never issued; survive with a
                // zero-length placeholder so no access can land anywhere.
                self.note_error(RuntimeError::UnknownBuffer { buffer: id });
                BufferInfo {
                    id,
                    name: "<unknown>".to_string(),
                    elem_size: 8,
                    len: 0,
                    ov_base: 0,
                }
            }
        }
    }

    fn announce_pool(&self, device: DeviceId) {
        if !self.cfg.pooled_device_alloc || self.cfg.unified_memory {
            return;
        }
        let flag = &self.pool_announced[(device.0 - 1) as usize];
        if !flag.swap(true, Ordering::Relaxed) {
            for t in self.tools.read().iter() {
                t.on_pool_alloc(device, device_base(device), UNMAPPED_REGION_OFFSET);
            }
        }
    }

    /// Allocate a CV in device memory, riding out injected allocation
    /// faults: transient failures retry with exponential backoff; a
    /// permanent failure (or retry exhaustion — the OOM persists) is the
    /// caller's cue to roll back and degrade.
    fn fault_alloc(&self, device: DeviceId, buffer: BufferId, len: u64) -> Result<u64, RuntimeError> {
        if !self.faults.active() {
            return Ok(self.space(device).alloc(len));
        }
        let mut attempts = 0u32;
        loop {
            let outcome = self.faults.decide(FaultSite::DeviceAlloc);
            self.metrics.note_fault(FaultSite::DeviceAlloc, &outcome);
            match outcome {
                FaultOutcome::Transient if attempts < MAX_RETRIES => {
                    FaultPlan::backoff(attempts);
                    attempts += 1;
                }
                FaultOutcome::None => return Ok(self.space(device).alloc(len)),
                // Permanent, or transient retries exhausted.
                _ => {
                    let e = RuntimeError::DeviceAllocFailed {
                        device,
                        buffer,
                        len,
                        attempts: attempts + 1,
                    };
                    self.note_error(e.clone());
                    return Err(e);
                }
            }
        }
    }

    /// Decide whether a kernel launch on `device` succeeds, retrying
    /// transient failures. `false` means the caller must fall back to
    /// host execution.
    fn fault_kernel_launch(&self, device: DeviceId, task: TaskId) -> bool {
        if device.is_host() || !self.faults.active() {
            return true;
        }
        let mut attempts = 0u32;
        loop {
            let outcome = self.faults.decide(FaultSite::KernelLaunch);
            self.metrics.note_fault(FaultSite::KernelLaunch, &outcome);
            match outcome {
                FaultOutcome::Transient if attempts < MAX_RETRIES => {
                    FaultPlan::backoff(attempts);
                    attempts += 1;
                }
                FaultOutcome::None => return true,
                _ => {
                    self.note_error(RuntimeError::KernelLaunchFailed {
                        device,
                        task,
                        attempts: attempts + 1,
                    });
                    return false;
                }
            }
        }
    }

    /// Perform the implicit mappings of `declare target` globals on first
    /// use of a device. Real runtimes do this while initialising the
    /// device; tools only see it if the runtime implements the implicit-
    /// mapping callbacks the paper's authors proposed (§V-A).
    fn ensure_globals(&self, device: DeviceId, task: TaskId) {
        if device.is_host() {
            return;
        }
        let flag = &self.globals_mapped[(device.0 - 1) as usize];
        if flag.swap(true, Ordering::Relaxed) {
            return;
        }
        let declared: Vec<BufferId> = self.declared.lock().clone();
        if declared.is_empty() {
            return;
        }
        let notify = self.cfg.implicit_map_events;
        let Some(table) = self.present_table(device) else {
            self.note_error(RuntimeError::InvalidDevice { device });
            return;
        };
        let mut table = table.lock();
        for id in declared {
            let info = self.buffer_info(id);
            let m = Map {
                buffer: id,
                map_type: crate::mapping::MapType::ToFrom,
                offset_bytes: 0,
                len_bytes: info.byte_len().max(8),
            };
            let plan = table.plan_entry(&m);
            if !plan.alloc {
                if let Err(e) = table.commit_entry(&m, plan, 0) {
                    self.note_error(e);
                }
                continue;
            }
            self.announce_pool(device);
            let cv_base = if self.cfg.unified_memory {
                info.ov_base
            } else {
                match self.fault_alloc(device, id, m.len_bytes) {
                    Ok(base) => base,
                    // Permanent OOM: leave this global unmapped; kernel
                    // accesses to it will resolve to the unmapped region,
                    // which is exactly what tools should observe.
                    Err(_) => continue,
                }
            };
            if notify {
                let op = DataOpEvent {
                    device,
                    buffer: id,
                    kind: DataOpKind::CvAlloc,
                    cv_base,
                    ov_addr: info.ov_base,
                    len: m.len_bytes,
                    plugin_visible: self.cfg.unified_memory || !self.cfg.pooled_device_alloc,
                    task,
                };
                for t in self.tools.read().iter() {
                    t.on_data_op(&op);
                }
            }
            if !self.cfg.unified_memory {
                mem::copy(&self.spaces[0], info.ov_base, self.space(device), cv_base, m.len_bytes);
            }
            if notify {
                let ev = TransferEvent {
                    buffer: id,
                    kind: TransferKind::ToDevice,
                    src_device: DeviceId::HOST,
                    src_addr: info.ov_base,
                    dst_device: device,
                    dst_addr: cv_base,
                    len: m.len_bytes,
                    task,
                    staged: false,
                    unified: self.cfg.unified_memory,
                };
                for t in self.tools.read().iter() {
                    t.on_transfer(&ev);
                }
            }
            if let Err(e) = table.commit_entry(&m, plan, cv_base) {
                self.note_error(e);
            }
        }
    }

    /// Execute entry mappings (Table I upper half) for a construct.
    ///
    /// On a permanent device-allocation failure the construct's
    /// already-committed mappings are rolled back inside the same table
    /// critical section — created CVs are deleted (with `CvDelete` events,
    /// so detectors release the shadow intervals and VSM device bits) and
    /// refcount bumps are undone — and the error is returned so the caller
    /// can degrade to host execution. The present table and every tool's
    /// view are exactly as if the construct never started mapping.
    fn perform_entry_maps(&self, device: DeviceId, maps: &[Map], task: TaskId) -> Result<(), RuntimeError> {
        if device.is_host() {
            return Ok(());
        }
        let _span = self.metrics.reg.span_with(self.metrics.sp_entry, &self.metrics.entry_maps);
        let Some(table) = self.present_table(device) else {
            let e = RuntimeError::InvalidDevice { device };
            self.note_error(e.clone());
            return Err(e);
        };
        let mut table = table.lock();
        // What this construct committed so far: Some(cv_base) for a CV it
        // created, None for a refcount it bumped.
        let mut committed: Vec<(Map, Option<u64>)> = Vec::new();
        for m in maps {
            let plan = table.plan_entry(m);
            if plan.alloc {
                self.announce_pool(device);
                let info = self.buffer_info(m.buffer);
                let ov_addr = info.ov_base + m.offset_bytes;
                let cv_base = if self.cfg.unified_memory {
                    ov_addr
                } else {
                    match self.fault_alloc(device, m.buffer, m.len_bytes) {
                        Ok(base) => base,
                        Err(e) => {
                            self.rollback_entry_maps(device, &mut table, &committed, task);
                            return Err(e);
                        }
                    }
                };
                let op = DataOpEvent {
                    device,
                    buffer: m.buffer,
                    kind: DataOpKind::CvAlloc,
                    cv_base,
                    ov_addr,
                    len: m.len_bytes,
                    plugin_visible: self.cfg.unified_memory || !self.cfg.pooled_device_alloc,
                    task,
                };
                for t in self.tools.read().iter() {
                    t.on_data_op(&op);
                }
                if plan.copy_to_device {
                    self.do_transfer(
                        device,
                        m.buffer,
                        TransferKind::ToDevice,
                        ov_addr,
                        cv_base,
                        m.len_bytes,
                        task,
                        false,
                    );
                }
                if let Err(e) = table.commit_entry(m, plan, cv_base) {
                    self.note_error(e);
                } else {
                    committed.push((*m, Some(cv_base)));
                }
            } else {
                match table.commit_entry(m, plan, 0) {
                    Ok(()) => {
                        if !matches!(m.map_type, crate::mapping::MapType::Release | crate::mapping::MapType::Delete) {
                            committed.push((*m, None));
                        }
                    }
                    Err(e) => self.note_error(e),
                }
            }
        }
        Ok(())
    }

    /// Undo the committed prefix of a construct's entry maps, newest
    /// first. Created CVs are deleted with truthful `CvDelete` events
    /// (driving the detectors' interval removal and VSM `Release`);
    /// refcount bumps are decremented silently, exactly mirroring what
    /// `commit_entry` did.
    fn rollback_entry_maps(
        &self,
        device: DeviceId,
        table: &mut PresentTable,
        committed: &[(Map, Option<u64>)],
        task: TaskId,
    ) {
        for (m, created) in committed.iter().rev() {
            match created {
                Some(cv_base) => {
                    let plan = ExitPlan { copy_from_device: false, delete: true };
                    if let Some(entry) = table.commit_exit(m, plan) {
                        if !self.cfg.unified_memory {
                            if let Err(e) = self.space(device).free(entry.cv_base) {
                                self.note_error(e);
                            }
                        }
                        let info = self.buffer_info(m.buffer);
                        let op = DataOpEvent {
                            device,
                            buffer: m.buffer,
                            kind: DataOpKind::CvDelete,
                            cv_base: *cv_base,
                            ov_addr: info.ov_base + entry.offset_bytes,
                            len: entry.len_bytes,
                            plugin_visible: self.cfg.unified_memory || !self.cfg.pooled_device_alloc,
                            task,
                        };
                        for t in self.tools.read().iter() {
                            t.on_data_op(&op);
                        }
                    }
                }
                None => {
                    table.commit_exit(m, ExitPlan { copy_from_device: false, delete: false });
                }
            }
        }
    }

    /// Execute exit mappings (Table I lower half) for a construct.
    fn perform_exit_maps(&self, device: DeviceId, maps: &[Map], task: TaskId) {
        if device.is_host() {
            return;
        }
        let _span = self.metrics.reg.span_with(self.metrics.sp_exit, &self.metrics.exit_maps);
        let Some(table) = self.present_table(device) else {
            self.note_error(RuntimeError::InvalidDevice { device });
            return;
        };
        let mut table = table.lock();
        for m in maps {
            let mut plan = table.plan_exit(m);
            // Automatic coherence (§III-C): if the CV about to be deleted
            // holds the only fresh copy, insert the copy-back the
            // programmer forgot.
            if self.cfg.auto_coherence
                && !self.cfg.unified_memory
                && plan.delete
                && !plan.copy_from_device
                && device.0 <= 7
            {
                let fresh =
                    self.coherence.lock().get(&m.buffer).copied().unwrap_or(0b1);
                if fresh & 0b1 == 0 && fresh & (1 << device.0) != 0 {
                    plan.copy_from_device = true;
                    self.coherence.lock().entry(m.buffer).and_modify(|e| *e |= 0b1);
                }
            }
            if plan.copy_from_device {
                if let Some(entry) = table.get(m.buffer) {
                    let info = self.buffer_info(m.buffer);
                    let ov_addr = info.ov_base + entry.offset_bytes;
                    self.do_transfer(
                        device,
                        m.buffer,
                        TransferKind::FromDevice,
                        ov_addr,
                        entry.cv_base,
                        entry.len_bytes,
                        task,
                        false,
                    );
                }
            }
            if let Some(entry) = table.commit_exit(m, plan) {
                if !self.cfg.unified_memory {
                    if let Err(e) = self.space(device).free(entry.cv_base) {
                        self.note_error(e);
                    }
                }
                let info = self.buffer_info(m.buffer);
                let op = DataOpEvent {
                    device,
                    buffer: m.buffer,
                    kind: DataOpKind::CvDelete,
                    cv_base: entry.cv_base,
                    ov_addr: info.ov_base + entry.offset_bytes,
                    len: entry.len_bytes,
                    plugin_visible: self.cfg.unified_memory || !self.cfg.pooled_device_alloc,
                    task,
                };
                for t in self.tools.read().iter() {
                    t.on_data_op(&op);
                }
            }
        }
    }

    /// `target update` transfer: ignores reference counts; no-op when not
    /// present (OpenMP 5.x semantics).
    fn perform_update(&self, device: DeviceId, buffer: BufferId, kind: TransferKind, task: TaskId) -> bool {
        if device.is_host() {
            return false;
        }
        let _span = self.metrics.reg.span_with(self.metrics.sp_update, &self.metrics.update);
        let Some(table) = self.present_table(device) else {
            self.note_error(RuntimeError::InvalidDevice { device });
            return false;
        };
        let entry = table.lock().get(buffer);
        let Some(entry) = entry else { return false };
        let info = self.buffer_info(buffer);
        let ov_addr = info.ov_base + entry.offset_bytes;
        let staged = self.cfg.staged_update_transfers;
        self.do_transfer(device, buffer, kind, ov_addr, entry.cv_base, entry.len_bytes, task, staged);
        true
    }

    /// Sectioned `target update`: transfer an arbitrary contiguous piece
    /// of the mapped variable. The section is expressed in OV byte
    /// offsets; a section outside the mapped part still produces the
    /// transfer the program asked for — and the tools' attention.
    fn perform_update_section(
        &self,
        device: DeviceId,
        buffer: BufferId,
        kind: TransferKind,
        start_bytes: u64,
        len_bytes: u64,
        task: TaskId,
    ) {
        if device.is_host() || len_bytes == 0 {
            return;
        }
        let Some(table) = self.present_table(device) else {
            self.note_error(RuntimeError::InvalidDevice { device });
            return;
        };
        let entry = table.lock().get(buffer);
        let Some(entry) = entry else { return };
        let info = self.buffer_info(buffer);
        let ov_addr = info.ov_base + start_bytes;
        let cv_addr = entry.cv_addr(start_bytes);
        let staged = self.cfg.staged_update_transfers;
        self.do_transfer(device, buffer, kind, ov_addr, cv_addr, len_bytes, task, staged);
    }

    /// Perform a data transfer: actual word copy plus the tool event.
    #[allow(clippy::too_many_arguments)]
    fn do_transfer(
        &self,
        device: DeviceId,
        buffer: BufferId,
        kind: TransferKind,
        ov_addr: u64,
        cv_base: u64,
        len: u64,
        task: TaskId,
        staged: bool,
    ) {
        let unified = self.cfg.unified_memory;
        let (src_device, src_addr, dst_device, dst_addr) = match kind {
            TransferKind::ToDevice => (DeviceId::HOST, ov_addr, device, cv_base),
            TransferKind::FromDevice => (device, cv_base, DeviceId::HOST, ov_addr),
            TransferKind::DeviceToDevice => {
                // Internal invariant: device-to-device copies go through
                // Runtime::device_memcpy, never this path.
                debug_assert!(false, "device-to-device copies go through Runtime::device_memcpy");
                return;
            }
        };
        if !unified {
            // Transfer faults are always transient: retry with backoff,
            // and after MAX_RETRIES complete via the degraded word-wise
            // path. A transfer never fails permanently, so mapped data is
            // never silently stale and detectors see no phantom copies.
            let site = if kind == TransferKind::ToDevice {
                FaultSite::TransferToDevice
            } else {
                FaultSite::TransferFromDevice
            };
            let mut attempt = 0u32;
            loop {
                let outcome = if self.faults.active() && attempt < MAX_RETRIES {
                    let o = self.faults.decide(site);
                    self.metrics.note_fault(site, &o);
                    o
                } else {
                    FaultOutcome::None
                };
                match outcome {
                    FaultOutcome::Transient => {
                        self.note_error(RuntimeError::TransferIncomplete {
                            buffer,
                            kind,
                            requested: len,
                            copied: 0,
                            attempt: attempt + 1,
                        });
                        FaultPlan::backoff(attempt);
                        attempt += 1;
                    }
                    FaultOutcome::Partial { frac256 } => {
                        // The DMA moved a prefix before faulting: perform
                        // that prefix for real and tell the tools the
                        // truth about it, so per-word VSM states track
                        // exactly the bytes that arrived.
                        let k = (len.div_ceil(8) * frac256 as u64) / 256 * 8;
                        if k > 0 {
                            self.transfer_copy(false, src_device, src_addr, dst_device, dst_addr, k);
                            let ev = TransferEvent {
                                buffer,
                                kind,
                                src_device,
                                src_addr,
                                dst_device,
                                dst_addr,
                                len: k,
                                task,
                                staged: false,
                                unified,
                            };
                            for t in self.tools.read().iter() {
                                t.on_transfer(&ev);
                            }
                        }
                        self.note_error(RuntimeError::TransferIncomplete {
                            buffer,
                            kind,
                            requested: len,
                            copied: k,
                            attempt: attempt + 1,
                        });
                        FaultPlan::backoff(attempt);
                        attempt += 1;
                    }
                    _ => {
                        self.transfer_copy(staged, src_device, src_addr, dst_device, dst_addr, len);
                        break;
                    }
                }
            }
        }
        self.metrics.transfers.inc();
        self.metrics.transfer_bytes.add(len);
        let ev = TransferEvent {
            buffer,
            kind,
            src_device,
            src_addr,
            dst_device,
            dst_addr,
            len,
            task,
            staged,
            unified,
        };
        for t in self.tools.read().iter() {
            t.on_transfer(&ev);
        }
        if self.cfg.auto_coherence && !unified {
            // Map-clause and update transfers refresh the destination copy.
            let mut coh = self.coherence.lock();
            let e = coh.entry(buffer).or_insert(0b1);
            match kind {
                TransferKind::ToDevice if dst_device.0 <= 7 => *e |= 1 << dst_device.0,
                TransferKind::FromDevice => *e |= 0b1,
                _ => {}
            }
        }
    }

    /// The physical word copy of a transfer, optionally staged through a
    /// runtime-internal bounce buffer (as real runtimes stage
    /// non-contiguous updates; one extra copy, and shadow provenance is
    /// lost for allocator-interception based tools).
    fn transfer_copy(
        &self,
        staged: bool,
        src_device: DeviceId,
        src_addr: u64,
        dst_device: DeviceId,
        dst_addr: u64,
        len: u64,
    ) {
        if staged {
            let _guard = self.staging_lock.lock();
            let staging = self.ensure_staging(len);
            mem::copy(self.space(src_device), src_addr, &self.spaces[0], staging, len);
            mem::copy(&self.spaces[0], staging, self.space(dst_device), dst_addr, len);
        } else {
            mem::copy(self.space(src_device), src_addr, self.space(dst_device), dst_addr, len);
        }
    }

    /// `auto_coherence`: make the host copy fresh before a host read by
    /// pulling from a device holding the last write.
    fn coherence_before_host_read(&self, buffer: BufferId) {
        if !self.cfg.auto_coherence || self.cfg.unified_memory {
            return;
        }
        let fresh = *self.coherence.lock().entry(buffer).or_insert(0b1);
        if fresh & 0b1 != 0 {
            return;
        }
        // Pull from the lowest fresh device.
        let d = fresh.trailing_zeros() as u16;
        if self.perform_update(DeviceId(d), buffer, TransferKind::FromDevice, TaskId::HOST) {
            *self.coherence.lock().entry(buffer).or_insert(0b1) |= 0b1;
        }
    }

    /// `auto_coherence`: record a host write (every device copy is stale).
    fn coherence_host_write(&self, buffer: BufferId) {
        if !self.cfg.auto_coherence || self.cfg.unified_memory {
            return;
        }
        self.coherence.lock().insert(buffer, 0b1);
    }

    /// `auto_coherence`: X10CUDA-style launch-time repair — before a
    /// kernel body runs, make every mapped variable's CV fresh on the
    /// executing device. Running on the kernel task (before the team
    /// forks) keeps the inserted transfers happens-before every kernel
    /// access.
    fn coherence_before_kernel(
        &self,
        env: &HashMap<BufferId, PresentEntry>,
        device: DeviceId,
        task: TaskId,
    ) {
        if !self.cfg.auto_coherence || self.cfg.unified_memory || device.is_host() || device.0 > 7 {
            return;
        }
        let bit = 1u8 << device.0;
        for buffer in env.keys() {
            let fresh = *self.coherence.lock().entry(*buffer).or_insert(0b1);
            if fresh & bit != 0 {
                continue;
            }
            let mut gained = 0u8;
            if fresh & 0b1 == 0 {
                // Host stale too: hop through the host from a fresh device.
                let d = fresh.trailing_zeros() as u16;
                if self.perform_update(DeviceId(d), *buffer, TransferKind::FromDevice, task) {
                    gained |= 0b1;
                }
            } else {
                gained |= 0b1;
            }
            if gained & 0b1 != 0 && self.perform_update(device, *buffer, TransferKind::ToDevice, task) {
                gained |= bit;
            }
            *self.coherence.lock().entry(*buffer).or_insert(0b1) |= gained;
        }
    }

    /// `auto_coherence`: record a kernel write.
    fn coherence_device_write(&self, buffer: BufferId, device: DeviceId) {
        if !self.cfg.auto_coherence || self.cfg.unified_memory || device.is_host() || device.0 > 7 {
            return;
        }
        self.coherence.lock().insert(buffer, 1u8 << device.0);
    }

    /// In unified-memory mode, OpenMP's implicit cross-device flushes at
    /// target-region boundaries (§III-B of the paper) synchronise the
    /// host's and device's temporary views of every mapped variable. We
    /// surface them as zero-copy `unified` transfer events so tools can
    /// model the coherence point.
    fn emit_unified_flushes(
        &self,
        device: DeviceId,
        env: &HashMap<BufferId, PresentEntry>,
        task: TaskId,
        kind: TransferKind,
    ) {
        if !self.cfg.unified_memory || device.is_host() {
            return;
        }
        for (buffer, entry) in env.iter() {
            let info = self.buffer_info(*buffer);
            let addr = info.ov_base + entry.offset_bytes;
            let ev = TransferEvent {
                buffer: *buffer,
                kind,
                src_device: if kind == TransferKind::ToDevice { DeviceId::HOST } else { device },
                src_addr: addr,
                dst_device: if kind == TransferKind::ToDevice { device } else { DeviceId::HOST },
                dst_addr: addr,
                len: entry.len_bytes,
                task,
                staged: false,
                unified: true,
            };
            for t in self.tools.read().iter() {
                t.on_transfer(&ev);
            }
        }
    }

    /// Lazily grown staging area in host memory (never registered as a
    /// buffer — it is runtime-internal).
    fn ensure_staging(&self, len: u64) -> u64 {
        let mut slot = self.staging_base.lock();
        match *slot {
            Some((base, cap)) if cap >= len => base,
            _ => {
                let base = self.spaces[0].alloc(len.max(4096));
                *slot = Some((base, len.max(4096)));
                base
            }
        }
    }

    /// Snapshot the device's data environment for a kernel.
    fn kernel_env(&self, device: DeviceId) -> HashMap<BufferId, PresentEntry> {
        let Some(table) = self.present_table(device) else {
            return HashMap::new();
        };
        let table = table.lock();
        let mut env = HashMap::new();
        for info in self.buffers.read().iter() {
            if let Some(e) = table.get(info.id) {
                env.insert(info.id, e);
            }
        }
        env
    }

    fn resolve_depends(&self, task: TaskId, record: &Arc<TaskRecord>, depends: &[Depend]) -> Vec<(TaskId, Arc<TaskRecord>)> {
        let mut waits = Vec::new();
        if depends.is_empty() {
            return waits;
        }
        let mut chains = self.deps.lock();
        for d in depends {
            let chain = chains.entry(d.buffer).or_default();
            match d.kind {
                DependKind::In => {
                    if let Some((t, r)) = &chain.last_out {
                        waits.push((*t, r.clone()));
                    }
                    chain.last_ins.push((task, record.clone()));
                }
                DependKind::Out => {
                    if let Some((t, r)) = &chain.last_out {
                        waits.push((*t, r.clone()));
                    }
                    for (t, r) in chain.last_ins.drain(..) {
                        waits.push((t, r));
                    }
                    chain.last_out = Some((task, record.clone()));
                }
            }
        }
        waits
    }
}

// ----------------------------------------------------------------------
// Builders
// ----------------------------------------------------------------------

/// Builder for a `target` construct.
pub struct TargetBuilder {
    rt: Runtime,
    device: DeviceId,
    maps: Vec<Map>,
    depends: Vec<Depend>,
    nowait: bool,
}

impl TargetBuilder {
    /// Offload to a specific device (`DeviceId::HOST` runs on the host,
    /// like `omp_get_initial_device()`).
    pub fn on_device(mut self, device: DeviceId) -> Self {
        self.device = device;
        self
    }

    /// Add a `map` clause.
    pub fn map(mut self, m: Map) -> Self {
        self.maps.push(m);
        self
    }

    /// Add a `depend` clause.
    pub fn depend(mut self, d: Depend) -> Self {
        self.depends.push(d);
        self
    }

    /// Make the region asynchronous (`nowait`).
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// Launch the region. Synchronous regions return after completion;
    /// `nowait` regions return immediately with a waitable handle.
    pub fn run<F>(self, body: F) -> TaskHandle
    where
        F: FnOnce(&KernelCtx) + Send + 'static,
    {
        let rt = self.rt.inner.clone();
        let task = rt.new_task();
        rt.emit_sync(SyncEvent::TaskCreate { parent: TaskId::HOST, child: task });
        let record = Arc::new(TaskRecord::new());
        let waits = rt.resolve_depends(task, &record, &self.depends);
        for (t, _) in &waits {
            rt.emit_sync(SyncEvent::TaskJoin { waiter: task, joined: *t });
        }
        let device = self.device;
        let nowait = self.nowait;
        let maps = self.maps;
        let rt2 = rt.clone();
        let record2 = record.clone();
        let team_size = rt.cfg.team_size;
        let work = move || {
            for (_, r) in &waits {
                r.wait();
            }
            // Unknown device ids degrade to host execution up front.
            let requested = if rt2.device_known(device) {
                device
            } else {
                rt2.note_error(RuntimeError::InvalidDevice { device });
                DeviceId::HOST
            };
            // The launch decision precedes everything tools can observe
            // about the region, so a permanent launch failure moves the
            // whole construct — begin event, mappings, accesses — to the
            // host and the event stream stays truthful.
            let mut exec =
                if rt2.fault_kernel_launch(requested, task) { requested } else { DeviceId::HOST };
            let target_span =
                rt2.metrics.reg.span_with(rt2.metrics.sp_target, &rt2.metrics.target);
            rt2.emit_construct(ConstructEvent::TargetBegin { task, device: exec, nowait });
            let mut mapped = false;
            if !exec.is_host() {
                rt2.ensure_globals(exec, task);
                match rt2.perform_entry_maps(exec, &maps, task) {
                    Ok(()) => mapped = true,
                    // Permanent device OOM: the entry maps were rolled
                    // back (present table and detector state restored);
                    // run the body on the host instead.
                    Err(_) => exec = DeviceId::HOST,
                }
            }
            let fallback = exec.is_host() && !requested.is_host();
            if fallback {
                // Pull current device values of any still-present mapped
                // buffers (e.g. from an enclosing data region) so the
                // host body observes what the kernel would have. The
                // transfers are real and emitted, keeping VSM truthful;
                // no-ops when nothing is present.
                for m in &maps {
                    rt2.perform_update(requested, m.buffer, TransferKind::FromDevice, task);
                }
            }
            let env = Arc::new(rt2.kernel_env(exec));
            rt2.coherence_before_kernel(&env, exec, task);
            rt2.emit_unified_flushes(exec, &env, task, TransferKind::ToDevice);
            let tools = rt2.tools.read().clone();
            let ctx =
                KernelCtx { rt: rt2.clone(), tools, device: exec, task, env: env.clone(), team_size };
            body(&ctx);
            rt2.emit_unified_flushes(exec, &env, task, TransferKind::FromDevice);
            if fallback {
                // Push host results back into still-present CVs so later
                // device consumers observe them.
                for m in &maps {
                    rt2.perform_update(requested, m.buffer, TransferKind::ToDevice, task);
                }
            }
            if mapped {
                rt2.perform_exit_maps(exec, &maps, task);
            }
            rt2.emit_construct(ConstructEvent::TargetEnd { task });
            drop(target_span);
            rt2.emit_sync(SyncEvent::TaskEnd { task });
            if nowait {
                let outcome = rt2.faults.decide(FaultSite::NowaitComplete);
                if rt2.faults.active() {
                    rt2.metrics.note_fault(FaultSite::NowaitComplete, &outcome);
                }
                if let FaultOutcome::Delay { micros } = outcome {
                    // Injected late completion: the work is done but the
                    // latch fires late, widening nowait's race window.
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                }
            }
            record2.complete();
        };
        if nowait && !rt.cfg.serialize_nowait {
            rt.pending.lock().push((task, record.clone()));
            std::thread::spawn(work);
        } else if nowait {
            // Theorem-1 mode: serialized execution, asynchronous HB shape.
            rt.pending.lock().push((task, record.clone()));
            work();
        } else {
            work();
            rt.emit_sync(SyncEvent::TaskJoin { waiter: TaskId::HOST, joined: task });
        }
        TaskHandle { rt: Arc::downgrade(&rt), task, record }
    }
}

/// Builder for a structured `target data` region.
pub struct TargetDataBuilder {
    rt: Runtime,
    device: DeviceId,
    maps: Vec<Map>,
}

impl TargetDataBuilder {
    /// Target a specific device.
    pub fn on_device(mut self, device: DeviceId) -> Self {
        self.device = device;
        self
    }

    /// Add a `map` clause.
    pub fn map(mut self, m: Map) -> Self {
        self.maps.push(m);
        self
    }

    /// Run the enclosed region. Entry maps execute before the closure,
    /// exit maps after — on the host task, so exit transfers can race
    /// with still-running `nowait` kernels (Fig. 2's hazard).
    pub fn scope<R>(self, f: impl FnOnce(&Runtime) -> R) -> R {
        // A failed (rolled-back) entry leaves nothing present, so the
        // exit maps below degrade to Table I no-ops on their own.
        let _ = self.rt.inner.perform_entry_maps(self.device, &self.maps, TaskId::HOST);
        let out = f(&self.rt);
        self.rt.inner.perform_exit_maps(self.device, &self.maps, TaskId::HOST);
        out
    }
}

/// Handle to a launched target region.
pub struct TaskHandle {
    rt: Weak<Rt>,
    task: TaskId,
    record: Arc<TaskRecord>,
}

impl TaskHandle {
    /// The region's task id.
    pub fn id(&self) -> TaskId {
        self.task
    }

    /// Wait for the region (like a `taskwait` scoped to this task);
    /// establishes the host-after-task happens-before edge.
    pub fn wait(&self) {
        self.record.wait();
        if let Some(rt) = self.rt.upgrade() {
            rt.emit_sync(SyncEvent::TaskJoin { waiter: TaskId::HOST, joined: self.task });
            rt.pending.lock().retain(|(t, _)| *t != self.task);
        }
    }
}

// ----------------------------------------------------------------------
// Kernel context
// ----------------------------------------------------------------------

/// Execution context handed to a target-region body.
pub struct KernelCtx {
    rt: Arc<Rt>,
    /// The tools attached when the construct began, shared by its team.
    tools: Tools,
    device: DeviceId,
    task: TaskId,
    env: Arc<HashMap<BufferId, PresentEntry>>,
    team_size: usize,
}

impl KernelCtx {
    /// The executing device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// This kernel's (or team thread's) task id.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Configured team size.
    pub fn team_size(&self) -> usize {
        self.team_size
    }

    #[inline]
    fn resolve<T: Scalar>(&self, buf: &Buffer<T>, idx: usize) -> (u64, bool) {
        let byte_off = (idx * T::SIZE) as u64;
        if self.device.is_host() {
            return (self.rt.ov_base(buf.id()) + byte_off, true);
        }
        match self.env.get(&buf.id()) {
            Some(e) => (e.cv_addr(byte_off), true),
            None => {
                // Missing map clause: synthesize an address in the
                // never-allocated region of this device's window.
                let low = self.rt.ov_base(buf.id()) & 0xFFFF_FFFF;
                (device_base(self.device) + UNMAPPED_REGION_OFFSET + low + byte_off, false)
            }
        }
    }

    #[inline]
    fn space_for(&self, addr: u64) -> &AddressSpace {
        &self.rt.spaces[device_of(addr).0 as usize]
    }

    #[inline]
    fn emit_access(&self, ev: AccessEvent) {
        for t in self.tools.iter() {
            t.on_access(&ev);
        }
    }

    /// Tracked kernel read of element `idx` of a mapped buffer. Reads
    /// outside the mapped section (or of unmapped buffers) are executed —
    /// they return whatever neighbouring device memory holds, like real
    /// hardware — and are observable by tools.
    #[track_caller]
    #[inline]
    pub fn read<T: Scalar>(&self, buf: &Buffer<T>, idx: usize) -> T {
        self.read_on(self.task, buf, idx, SrcLoc::caller())
    }

    /// Tracked kernel write.
    #[track_caller]
    #[inline]
    pub fn write<T: Scalar>(&self, buf: &Buffer<T>, idx: usize, value: T) {
        self.write_on(self.task, buf, idx, value, SrcLoc::caller())
    }

    fn read_on<T: Scalar>(
        &self,
        task: TaskId,
        buf: &Buffer<T>,
        idx: usize,
        loc: SrcLoc,
    ) -> T {
        let (addr, mapped) = self.resolve(buf, idx);
        self.emit_access(AccessEvent {
            device: self.device,
            addr,
            size: T::SIZE,
            is_write: false,
            task,
            buffer: Some(buf.id()),
            mapped,
            atomic: false,
            loc,
        });
        T::from_bits(self.space_for(addr).load(addr, T::SIZE))
    }

    fn write_on<T: Scalar>(
        &self,
        task: TaskId,
        buf: &Buffer<T>,
        idx: usize,
        value: T,
        loc: SrcLoc,
    ) {
        self.rt.coherence_device_write(buf.id(), self.device);
        let (addr, mapped) = self.resolve(buf, idx);
        self.emit_access(AccessEvent {
            device: self.device,
            addr,
            size: T::SIZE,
            is_write: true,
            task,
            buffer: Some(buf.id()),
            mapped,
            atomic: false,
            loc,
        });
        self.space_for(addr).store(addr, T::SIZE, value.to_bits());
    }

    /// `omp critical`-style named critical section: mutual exclusion plus
    /// the acquire/release happens-before edges race detectors need.
    /// Sections with the same name exclude each other program-wide.
    pub fn critical<R>(&self, name: &str, f: impl FnOnce(&KernelCtx) -> R) -> R {
        let lock_id = {
            // FNV-1a over the name: stable lock identity.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.as_bytes() {
                h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
            }
            h
        };
        let mutex = {
            let mut c = self.rt.criticals.lock();
            c.entry(lock_id).or_insert_with(|| Arc::new(Mutex::new(()))).clone()
        };
        let guard = mutex.lock();
        self.rt.emit_sync(SyncEvent::Acquire { task: self.task, lock: lock_id });
        let out = f(self);
        self.rt.emit_sync(SyncEvent::Release { task: self.task, lock: lock_id });
        drop(guard);
        out
    }

    /// `omp atomic`-style read-modify-write of element `idx`: the update
    /// is applied atomically on the backing storage, the VSM sees a read
    /// plus a write, and race detection treats it as synchronised.
    /// Returns the value *after* the update.
    #[track_caller]
    pub fn atomic_update<T: Scalar>(&self, buf: &Buffer<T>, idx: usize, f: impl Fn(T) -> T) -> T {
        let loc = SrcLoc::caller();
        let (addr, mapped) = self.resolve(buf, idx);
        for is_write in [false, true] {
            self.emit_access(AccessEvent {
                device: self.device,
                addr,
                size: T::SIZE,
                is_write,
                task: self.task,
                buffer: Some(buf.id()),
                mapped,
                atomic: true,
                loc,
            });
        }
        let space = self.space_for(addr);
        if T::SIZE == 8 {
            let prev = space.fetch_update_word(addr, |bits| f(T::from_bits(bits)).to_bits());
            f(T::from_bits(prev))
        } else {
            // Narrow scalars have no atomic RMW in this memory model;
            // record the misuse and apply the update non-atomically (the
            // access events above already declared it atomic, so race
            // detectors stay quiet — mirroring a relaxed hardware CAS
            // emulation).
            self.rt.note_error(RuntimeError::UnsupportedAtomicSize { size: T::SIZE });
            let prev = T::from_bits(space.load(addr, T::SIZE));
            let next = f(prev);
            space.store(addr, T::SIZE, next.to_bits());
            next
        }
    }

    /// `omp atomic` add.
    #[track_caller]
    pub fn atomic_add(&self, buf: &Buffer<i64>, idx: usize, delta: i64) -> i64 {
        self.atomic_fetch_add_i64(buf, idx, delta)
    }

    fn atomic_fetch_add_i64(&self, buf: &Buffer<i64>, idx: usize, delta: i64) -> i64 {
        let loc = SrcLoc::caller();
        let (addr, mapped) = self.resolve(buf, idx);
        for is_write in [false, true] {
            self.emit_access(AccessEvent {
                device: self.device,
                addr,
                size: 8,
                is_write,
                task: self.task,
                buffer: Some(buf.id()),
                mapped,
                atomic: true,
                loc,
            });
        }
        self.space_for(addr).fetch_add_word(addr, delta as u64) as i64 + delta
    }

    /// Sequential loop on the kernel task (a `teams distribute` with one
    /// thread).
    pub fn for_each(&self, range: std::ops::Range<usize>, f: impl Fn(&KernelCtx, usize)) {
        for i in range {
            f(self, i);
        }
    }

    /// Parallel loop over the team (`teams distribute parallel for`).
    /// Iterations are divided into contiguous chunks, one per team thread;
    /// each team thread is its own task (forked/joined around the loop),
    /// so intra-kernel races are visible to happens-before analysis.
    pub fn par_for<F>(&self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(&KernelCtx, usize) + Send + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let team = self.team_size.min(n).max(1);
        let chunk = n.div_ceil(team);
        self.fork_team(team, |k, t| {
            let lo = range.start + t * chunk;
            for i in lo..(lo + chunk).min(range.end) {
                f(k, i);
            }
        });
    }

    /// A league of teams (`teams distribute`): spawn `num_teams` team
    /// tasks, each receiving its own context and team number. Inside a
    /// team, `par_for` gives the `parallel for` level — the full
    /// `target teams distribute parallel for` nesting of Fig. 1.
    pub fn teams<F>(&self, num_teams: usize, f: F)
    where
        F: Fn(&KernelCtx, usize) + Send + Sync,
    {
        self.fork_team(num_teams, f);
    }

    /// Parallel reduction over the team: `map` each index, `fold` within a
    /// thread, combine partials on the kernel task in member order, so the
    /// result does not depend on which member finished first.
    pub fn par_reduce<A, M, R>(&self, range: std::ops::Range<usize>, init: A, map: M, reduce: R) -> A
    where
        A: Send + Clone,
        M: Fn(&KernelCtx, usize) -> A + Send + Sync,
        R: Fn(A, A) -> A + Send + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return init;
        }
        let team = self.team_size.min(n).max(1);
        let chunk = n.div_ceil(team);
        // One partial per member, each starting from its own clone of
        // `init`: `&A` is not `Sync`, so members cannot share `init`.
        let partials: Vec<Mutex<Option<A>>> =
            (0..team).map(|_| Mutex::new(Some(init.clone()))).collect();
        self.fork_team(team, |k, t| {
            let mut acc = partials[t].lock().take().expect("a member takes only its own partial");
            let lo = range.start + t * chunk;
            for i in lo..(lo + chunk).min(range.end) {
                acc = reduce(acc, map(k, i));
            }
            *partials[t].lock() = Some(acc);
        });
        let mut acc = init;
        for partial in partials {
            acc = reduce(acc, partial.into_inner().expect("every member stored its partial"));
        }
        acc
    }

    /// Fork `n` member tasks of this task on the hot team, run member `t`
    /// as `body(ctx, t)` on its own context, and join them. The events are
    /// every `TaskCreate`, then each member's accesses and its `TaskEnd`,
    /// then every `TaskJoin`, in member order.
    fn fork_team(&self, n: usize, body: impl Fn(&KernelCtx, usize) + Sync) {
        let children: Vec<TaskId> = (0..n)
            .map(|_| {
                let child = self.rt.new_task();
                self.rt.emit_sync(SyncEvent::TaskCreate { parent: self.task, child });
                child
            })
            .collect();
        team::fork(n, &|t| {
            let ctx = KernelCtx {
                rt: self.rt.clone(),
                tools: self.tools.clone(),
                device: self.device,
                task: children[t],
                env: self.env.clone(),
                team_size: self.team_size,
            };
            body(&ctx, t);
            ctx.rt.emit_sync(SyncEvent::TaskEnd { task: children[t] });
        });
        for child in children {
            self.rt.emit_sync(SyncEvent::TaskJoin { waiter: self.task, joined: child });
        }
    }
}
