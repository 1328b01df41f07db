//! The Archer model: FastTrack happens-before race detection with OpenMP
//! synchronization semantics (via the OMPT-analogue sync events), but no
//! model of OV/CV consistency. This is the real Archer's position in the
//! evaluation: excellent at races, blind to every data mapping issue that
//! does not manifest as one (0/16 in Table III).

use crate::sink::ReportSink;
use arbalest_offload::buffer::BufferInfo;
use arbalest_offload::events::{AccessEvent, SyncEvent, Tool, TransferEvent};
use arbalest_offload::report::{Report, ReportKind};
use arbalest_race::RaceEngine;
use arbalest_sync::RwLock;
use std::collections::HashMap;

/// The Archer data race detector model.
pub struct Archer {
    engine: RaceEngine,
    sink: ReportSink,
    buffers: RwLock<HashMap<u32, BufferInfo>>,
}

impl Default for Archer {
    fn default() -> Self {
        Archer::new()
    }
}

impl Archer {
    /// Create the detector.
    pub fn new() -> Archer {
        Archer {
            engine: RaceEngine::new(),
            sink: ReportSink::new("archer", 1024),
            buffers: RwLock::new(HashMap::new()),
        }
    }

    fn name_of(&self, buffer: Option<arbalest_offload::buffer::BufferId>) -> Option<String> {
        buffer.and_then(|b| self.buffers.read().get(&b.0).map(|i| i.name.clone()))
    }
}

impl Tool for Archer {
    fn name(&self) -> &'static str {
        "archer"
    }

    fn on_buffer_registered(&self, info: &BufferInfo) {
        self.buffers.write().insert(info.id.0, info.clone());
    }

    fn on_access(&self, ev: &AccessEvent) {
        if ev.atomic {
            return; // TSan treats atomics as synchronisation, not data accesses
        }
        let checked = if ev.is_write {
            self.engine.check_write(ev.task.0, ev.addr, ev.size as u8)
        } else {
            self.engine.check_read(ev.task.0, ev.addr, ev.size as u8)
        };
        if let Some(r) = checked.race {
            self.sink.push(
                ReportKind::DataRace,
                format!(
                    "{} races with previous {} by T{}",
                    if ev.is_write { "write" } else { "read" },
                    if r.prev_was_write { "write" } else { "read" },
                    r.prev_tid
                ),
                self.name_of(ev.buffer),
                ev.device,
                ev.addr,
                ev.size,
                Some(ev.loc),
            );
        }
    }

    fn on_transfer(&self, ev: &TransferEvent) {
        if ev.unified {
            return;
        }
        // The runtime's memcpy is an ordinary read/write pair on the
        // transferring thread from TSan's perspective.
        let read = self.engine.check_read_range(ev.task.0, ev.src_addr, ev.len);
        let write = self.engine.check_write_range(ev.task.0, ev.dst_addr, ev.len);
        if let Some(r) = read.or(write) {
            self.sink.push(
                ReportKind::DataRace,
                format!(
                    "runtime memcpy races with previous {} by T{}",
                    if r.prev_was_write { "write" } else { "read" },
                    r.prev_tid
                ),
                self.name_of(Some(ev.buffer)),
                ev.dst_device,
                ev.dst_addr,
                ev.len as usize,
                None,
            );
        }
    }

    fn on_sync(&self, ev: &SyncEvent) {
        match ev {
            SyncEvent::TaskCreate { parent, child } => self.engine.fork(parent.0, child.0),
            SyncEvent::TaskEnd { task } => self.engine.end(task.0),
            SyncEvent::TaskJoin { waiter, joined } => self.engine.join(waiter.0, joined.0),
            SyncEvent::Acquire { task, lock } => self.engine.acquire(task.0, *lock),
            SyncEvent::Release { task, lock } => self.engine.release(task.0, *lock),
        }
    }

    fn reports(&self) -> Vec<Report> {
        self.sink.all()
    }

    fn side_table_bytes(&self) -> u64 {
        self.engine.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbalest_offload::prelude::*;
    use std::sync::Arc;

    #[test]
    fn detects_intra_kernel_race() {
        let tool = Arc::new(Archer::new());
        let rt = Runtime::with_tool(Config::default().team_size(4), tool.clone());
        let a = rt.alloc_with::<i64>("a", 1, |_| 0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            // Every team thread increments a[0]: classic racy reduction.
            k.par_for(0..64, |k, _| {
                let v = k.read(&a, 0);
                k.write(&a, 0, v + 1);
            });
        });
        assert!(tool.reports().iter().any(|r| r.kind == ReportKind::DataRace));
    }

    #[test]
    fn silent_on_clean_parallel_kernel() {
        let tool = Arc::new(Archer::new());
        let rt = Runtime::with_tool(Config::default().team_size(4), tool.clone());
        let a = rt.alloc_with::<i64>("a", 64, |_| 1);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.par_for(0..64, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v * 2);
            });
        });
        assert!(tool.reports().is_empty(), "{:?}", tool.reports());
    }

    #[test]
    fn blind_to_mapping_issues() {
        // The Fig. 1 UUM: Archer sees no race, reports nothing.
        let tool = Arc::new(Archer::new());
        let rt = Runtime::with_tool(Config::default(), tool.clone());
        let b = rt.alloc_with::<f64>("b", 16, |_| 1.0);
        let c = rt.alloc_with::<f64>("c", 16, |_| 0.0);
        rt.target().map(Map::alloc(&b)).map(Map::tofrom(&c)).run(move |k| {
            k.for_each(0..16, |k, i| {
                let v = k.read(&b, i);
                k.write(&c, i, v);
            });
        });
        let _ = rt.read(&c, 0);
        assert!(tool.reports().is_empty());
    }

    #[test]
    fn detects_nowait_exit_transfer_race() {
        let tool = Arc::new(Archer::new());
        let rt = Runtime::with_tool(Config::default().serialize(true), tool.clone());
        let a = rt.alloc_init::<i64>("a", &[1]);
        rt.target_data().map(Map::tofrom(&a)).scope(|rt| {
            rt.target().nowait().run(move |k| {
                k.for_each(0..1, |k, _| k.write(&a, 0, 3));
            });
            rt.write(&a, 0, 9);
        });
        rt.taskwait();
        assert!(tool.reports().iter().any(|r| r.kind == ReportKind::DataRace));
    }
}
