//! A forwarding `Tool` that times every callback into the detector.
//!
//! Only the traced run attaches it. Each callback is passed unchanged to
//! the wrapped tool; the wrapper adds two clock reads and two relaxed
//! atomic adds around it. `on_access` is also counted per round, so the
//! first and the last round of a run can be compared.

use arbalest_offload::buffer::BufferInfo;
use arbalest_offload::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls and busy nanoseconds of one callback family, on its own cache
/// line so the two kernel threads do not share one for unrelated counts.
#[derive(Default)]
#[repr(align(64))]
pub struct CallStats {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CallStats {
    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    /// Read and reset: `(calls, ns)` since the last take.
    pub fn take(&self) -> (u64, u64) {
        (self.calls.swap(0, Relaxed), self.ns.swap(0, Relaxed))
    }
}

/// Totals shared by every wrapper of one traced run.
#[derive(Default)]
pub struct Timings {
    pub access: CallStats,
    pub transfer: CallStats,
    pub data_op: CallStats,
    pub sync: CallStats,
    pub construct: CallStats,
    /// Buffer registration, host free and pool announcements.
    pub other: CallStats,
    /// `on_access` since the last [`CallStats::take`] (one round).
    pub round_access: CallStats,
    /// `TargetBegin` events seen.
    pub targets: AtomicU64,
}

impl Timings {
    /// Forget everything counted so far.
    pub fn reset(&self) {
        for s in [
            &self.access,
            &self.transfer,
            &self.data_op,
            &self.sync,
            &self.construct,
            &self.other,
            &self.round_access,
        ] {
            s.take();
        }
        self.targets.store(0, Relaxed);
    }

    /// Busy nanoseconds summed over every callback family.
    pub fn busy_ns(&self) -> u64 {
        [
            &self.access,
            &self.transfer,
            &self.data_op,
            &self.sync,
            &self.construct,
            &self.other,
        ]
        .iter()
        .map(|s| s.ns())
        .sum()
    }
}

pub struct TimingTool {
    inner: Arc<dyn Tool>,
    t: Arc<Timings>,
}

impl TimingTool {
    pub fn new(inner: Arc<dyn Tool>, t: Arc<Timings>) -> TimingTool {
        TimingTool { inner, t }
    }

    #[inline]
    fn timed(&self, stats: &CallStats, f: impl FnOnce()) {
        let start = Instant::now();
        f();
        stats.add(start.elapsed().as_nanos() as u64);
    }
}

impl Tool for TimingTool {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_buffer_registered(&self, info: &BufferInfo) {
        self.timed(&self.t.other, || self.inner.on_buffer_registered(info));
    }

    fn on_host_free(&self, info: &BufferInfo) {
        self.timed(&self.t.other, || self.inner.on_host_free(info));
    }

    fn on_pool_alloc(&self, device: DeviceId, base: u64, len: u64) {
        self.timed(&self.t.other, || {
            self.inner.on_pool_alloc(device, base, len)
        });
    }

    fn on_data_op(&self, ev: &DataOpEvent) {
        self.timed(&self.t.data_op, || self.inner.on_data_op(ev));
    }

    fn on_transfer(&self, ev: &TransferEvent) {
        self.timed(&self.t.transfer, || self.inner.on_transfer(ev));
    }

    fn on_access(&self, ev: &AccessEvent) {
        let start = Instant::now();
        self.inner.on_access(ev);
        let ns = start.elapsed().as_nanos() as u64;
        self.t.access.add(ns);
        self.t.round_access.add(ns);
    }

    fn on_sync(&self, ev: &SyncEvent) {
        self.timed(&self.t.sync, || self.inner.on_sync(ev));
    }

    fn on_construct(&self, ev: &ConstructEvent) {
        if matches!(ev, ConstructEvent::TargetBegin { .. }) {
            self.t.targets.fetch_add(1, Relaxed);
        }
        self.timed(&self.t.construct, || self.inner.on_construct(ev));
    }

    fn reports(&self) -> Vec<Report> {
        self.inner.reports()
    }

    fn side_table_bytes(&self) -> u64 {
        self.inner.side_table_bytes()
    }
}
