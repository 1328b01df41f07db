//! Integration tests for the offloading runtime's observable semantics:
//! data movement per Table I, async tasks, dependences, sections, and
//! unified memory. These tests use a recording tool to also validate the
//! event stream detectors rely on.

use arbalest_offload::prelude::*;
use arbalest_sync::Mutex;
use std::sync::Arc;

/// Records every event category for assertions.
#[derive(Default)]
struct Recorder {
    accesses: Mutex<Vec<(DeviceId, u64, bool, TaskId)>>,
    transfers: Mutex<Vec<(TransferKind, u64, bool)>>,
    data_ops: Mutex<Vec<(DataOpKind, u64, bool)>>,
    syncs: Mutex<Vec<String>>,
    pools: Mutex<Vec<(DeviceId, u64)>>,
}

impl Tool for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_access(&self, ev: &AccessEvent) {
        self.accesses.lock().push((ev.device, ev.addr, ev.is_write, ev.task));
    }
    fn on_transfer(&self, ev: &TransferEvent) {
        self.transfers.lock().push((ev.kind, ev.len, ev.staged));
    }
    fn on_data_op(&self, ev: &DataOpEvent) {
        self.data_ops.lock().push((ev.kind, ev.len, ev.plugin_visible));
    }
    fn on_sync(&self, ev: &SyncEvent) {
        let s = match ev {
            SyncEvent::TaskCreate { parent, child } => format!("create {}->{}", parent.0, child.0),
            SyncEvent::TaskEnd { task } => format!("end {}", task.0),
            SyncEvent::TaskJoin { waiter, joined } => format!("join {}<-{}", waiter.0, joined.0),
            SyncEvent::Acquire { task, lock } => format!("acquire {} {}", task.0, lock),
            SyncEvent::Release { task, lock } => format!("release {} {}", task.0, lock),
        };
        self.syncs.lock().push(s);
    }
    fn on_pool_alloc(&self, device: DeviceId, base: u64, _len: u64) {
        self.pools.lock().push((device, base));
    }
}

fn rt_with_recorder(cfg: Config) -> (Runtime, Arc<Recorder>) {
    let rec = Arc::new(Recorder::default());
    let rt = Runtime::with_tool(cfg, rec.clone());
    (rt, rec)
}

#[test]
fn tofrom_roundtrips_computation() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<f64>("a", 100, |i| i as f64);
    let b = rt.alloc::<f64>("b", 100);
    rt.target().map(Map::to(&a)).map(Map::from(&b)).run(move |k| {
        k.for_each(0..100, |k, i| {
            let v = k.read(&a, i);
            k.write(&b, i, v * v);
        });
    });
    for i in 0..100 {
        assert_eq!(rt.read(&b, i), (i * i) as f64);
    }
}

#[test]
fn map_to_does_not_copy_back() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 4, |_| 7);
    rt.target().map(Map::to(&a)).run(move |k| {
        k.for_each(0..4, |k, i| k.write(&a, i, 42));
    });
    // Host copy unchanged: the device wrote only the CV.
    for i in 0..4 {
        assert_eq!(rt.read(&a, i), 7);
    }
}

#[test]
fn alloc_map_provides_zeroed_uninitialized_cv() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 4, |_| 9);
    let out = rt.alloc::<i64>("out", 4);
    rt.target().map(Map::alloc(&a)).map(Map::from(&out)).run(move |k| {
        k.for_each(0..4, |k, i| {
            // Simulated fresh device memory reads zero, not host data.
            let v = k.read(&a, i);
            k.write(&out, i, v);
        });
    });
    for i in 0..4 {
        assert_eq!(rt.read(&out, i), 0);
    }
}

#[test]
fn refcount_suppresses_inner_transfers() {
    let (rt, rec) = rt_with_recorder(Config::default());
    let a = rt.alloc_with::<f64>("a", 8, |i| i as f64);
    rt.target_data().map(Map::tofrom(&a)).scope(|rt| {
        // Host update between kernels is NOT visible on the device:
        // the inner map(to) finds the CV present and skips the copy.
        for i in 0..8 {
            rt.write(&a, i, -1.0);
        }
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 100.0);
            });
        });
    });
    // Device saw the ORIGINAL values (i), not -1.0.
    for i in 0..8 {
        assert_eq!(rt.read(&a, i), i as f64 + 100.0);
    }
    // Exactly one ToDevice and one FromDevice transfer happened.
    let transfers = rec.transfers.lock();
    let to = transfers.iter().filter(|(k, _, _)| *k == TransferKind::ToDevice).count();
    let from = transfers.iter().filter(|(k, _, _)| *k == TransferKind::FromDevice).count();
    assert_eq!((to, from), (1, 1));
}

#[test]
fn update_transfers_ignore_refcount_and_are_staged() {
    let (rt, rec) = rt_with_recorder(Config::default());
    let a = rt.alloc_with::<f64>("a", 8, |i| i as f64);
    rt.target_data().map(Map::tofrom(&a)).scope(|rt| {
        for i in 0..8 {
            rt.write(&a, i, 50.0 + i as f64);
        }
        rt.update_to(&a); // forces OV -> CV
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v * 2.0);
            });
        });
    });
    for i in 0..8 {
        assert_eq!(rt.read(&a, i), 2.0 * (50.0 + i as f64));
    }
    assert!(
        rec.transfers.lock().iter().any(|(k, _, staged)| *k == TransferKind::ToDevice && *staged),
        "update transfer should be staged by default"
    );
}

#[test]
fn sections_map_partially() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 10, |i| i as i64);
    rt.target().map(Map::tofrom_section(&a, 2, 4)).run(move |k| {
        k.for_each(2..6, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 1000);
        });
    });
    let host = rt.read_all(&a);
    assert_eq!(host[0..2], [0, 1]);
    assert_eq!(host[2..6], [1002, 1003, 1004, 1005]);
    assert_eq!(host[6..10], [6, 7, 8, 9]);
}

#[test]
fn nowait_plus_taskwait_synchronizes() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 64, |_| 1);
    let h = rt.target().map(Map::tofrom(&a)).nowait().run(move |k| {
        k.par_for(0..64, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v * 3);
        });
    });
    h.wait();
    for i in 0..64 {
        assert_eq!(rt.read(&a, i), 3);
    }
}

#[test]
fn serialize_nowait_keeps_results_and_async_hb_shape() {
    let (rt, rec) = rt_with_recorder(Config::default().serialize(true));
    let a = rt.alloc_with::<i64>("a", 8, |_| 2);
    rt.target().map(Map::tofrom(&a)).nowait().run(move |k| {
        k.for_each(0..8, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 5);
        });
    });
    // Body already ran inline; but no host<-task join edge exists yet.
    let joined_to_host =
        rec.syncs.lock().iter().any(|s| s.starts_with("join 0<-"));
    assert!(!joined_to_host, "serialize mode must not add host join edges before taskwait");
    rt.taskwait();
    assert!(rec.syncs.lock().iter().any(|s| s.starts_with("join 0<-")));
    for i in 0..8 {
        assert_eq!(rt.read(&a, i), 7);
    }
}

#[test]
fn depend_chains_order_async_kernels() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 256, |_| 0);
    // Chain of dependent nowait kernels: each adds 1 to every element.
    for _ in 0..4 {
        rt.target()
            .map(Map::tofrom(&a))
            .depend(Depend::write(&a))
            .nowait()
            .run(move |k| {
                k.for_each(0..256, |k, i| {
                    let v = k.read(&a, i);
                    k.write(&a, i, v + 1);
                });
            });
    }
    rt.taskwait();
    for i in 0..256 {
        assert_eq!(rt.read(&a, i), 4, "dependence chain must serialize increments");
    }
}

#[test]
fn unified_memory_shares_storage() {
    let (rt, rec) = rt_with_recorder(Config::default().unified(true));
    let a = rt.alloc_with::<f64>("a", 16, |i| i as f64);
    // Even map(to): with unified memory the host observes device writes.
    rt.target().map(Map::to(&a)).run(move |k| {
        k.for_each(0..16, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 0.5);
        });
    });
    for i in 0..16 {
        assert_eq!(rt.read(&a, i), i as f64 + 0.5);
    }
    // Transfer events are flagged unified and move no bytes.
    assert!(rec.transfers.lock().iter().all(|_| true));
    let ops = rec.data_ops.lock();
    assert!(ops.iter().all(|(_, _, visible)| *visible), "unified CVs are plugin visible");
}

#[test]
fn pooled_plugin_hides_cv_ops_and_announces_pool() {
    let (rt, rec) = rt_with_recorder(Config::default());
    let a = rt.alloc_with::<f64>("a", 8, |i| i as f64);
    rt.target().map(Map::to(&a)).run(move |k| {
        k.for_each(0..8, |k, i| {
            let _ = k.read(&a, i);
        });
    });
    assert_eq!(rec.pools.lock().len(), 1, "one pool announcement");
    assert!(rec.data_ops.lock().iter().all(|(_, _, visible)| !visible));

    // Non-pooled plugin: CV ops become visible, no pool.
    let (rt, rec) = rt_with_recorder(Config::default().pooled(false));
    let a = rt.alloc_with::<f64>("a", 8, |i| i as f64);
    rt.target().map(Map::to(&a)).run(move |k| {
        k.for_each(0..8, |k, i| {
            let _ = k.read(&a, i);
        });
    });
    assert!(rec.pools.lock().is_empty());
    assert!(rec.data_ops.lock().iter().all(|(_, _, visible)| *visible));
}

#[test]
fn kernel_accesses_attributed_to_device_and_tasks() {
    let (rt, rec) = rt_with_recorder(Config::default().team_size(4));
    let a = rt.alloc_with::<i64>("a", 32, |_| 1);
    rt.target().map(Map::tofrom(&a)).run(move |k| {
        k.par_for(0..32, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 1);
        });
    });
    let accesses = rec.accesses.lock();
    let device_accesses: Vec<_> =
        accesses.iter().filter(|(d, _, _, _)| *d == DeviceId::ACCEL0).collect();
    assert_eq!(device_accesses.len(), 64, "32 reads + 32 writes on device");
    let tasks: std::collections::HashSet<u32> =
        device_accesses.iter().map(|(_, _, _, t)| t.0).collect();
    assert_eq!(tasks.len(), 4, "four team-thread tasks");
}

#[test]
fn multiple_devices_have_independent_present_tables() {
    let rt = Runtime::new(Config::default().accelerators(2));
    let a = rt.alloc_with::<i64>("a", 8, |_| 5);
    let d0 = DeviceId(1);
    let d1 = DeviceId(2);
    rt.target_enter_data(d0, &[Map::to(&a)]);
    assert!(rt.is_present(d0, &a));
    assert!(!rt.is_present(d1, &a));
    rt.target().on_device(d1).map(Map::tofrom(&a)).run(move |k| {
        k.for_each(0..8, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v * 10);
        });
    });
    assert!(!rt.is_present(d1, &a), "structured map released dev1 CV");
    assert!(rt.is_present(d0, &a));
    rt.target_exit_data(d0, &[Map::release(&a)]);
    assert!(!rt.is_present(d0, &a));
    assert_eq!(rt.read(&a, 0), 50);
}

#[test]
fn host_device_target_reads_ov_directly() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 4, |i| i as i64);
    let out = rt.alloc::<i64>("out", 4);
    // Offloading to the host: no mapping needed, kernel sees host data.
    rt.target().on_device(DeviceId::HOST).run(move |k| {
        k.for_each(0..4, |k, i| {
            let v = k.read(&a, i);
            k.write(&out, i, v * 2);
        });
    });
    for i in 0..4 {
        assert_eq!(rt.read(&out, i), 2 * i as i64);
    }
}

#[test]
fn enter_exit_data_persist_cv_across_kernels() {
    let rt = Runtime::new(Config::default());
    let a = rt.alloc_with::<i64>("a", 8, |_| 1);
    rt.target_enter_data(DeviceId::ACCEL0, &[Map::to(&a)]);
    for _ in 0..3 {
        rt.target().map(Map::to(&a)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1);
            });
        });
    }
    rt.target_exit_data(DeviceId::ACCEL0, &[Map::from_section(&a, 0, 8)]);
    for i in 0..8 {
        assert_eq!(rt.read(&a, i), 4, "CV persisted across the three kernels");
    }
}

#[test]
fn par_reduce_computes_dot_product() {
    let rt = Runtime::new(Config::default().team_size(3));
    let x = rt.alloc_with::<f64>("x", 100, |i| i as f64);
    let y = rt.alloc_with::<f64>("y", 100, |_| 2.0);
    let out = rt.alloc::<f64>("out", 1);
    rt.target().map(Map::to(&x)).map(Map::to(&y)).map(Map::from(&out)).run(move |k| {
        let dot = k.par_reduce(0..100, 0.0, |k, i| k.read(&x, i) * k.read(&y, i), |a, b| a + b);
        k.write(&out, 0, dot);
    });
    assert_eq!(rt.read(&out, 0), 2.0 * (99.0 * 100.0 / 2.0));
}

#[test]
fn par_reduce_folds_partials_in_member_order() {
    let rt = Runtime::new(Config::default().team_size(4));
    let out = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    rt.target().run(move |k| {
        let concat = |mut a: Vec<usize>, b: Vec<usize>| {
            a.extend(b);
            a
        };
        *o.lock() = k.par_reduce(0..8, Vec::new(), |_, i| vec![i], concat);
    });
    assert_eq!(*out.lock(), (0..8).collect::<Vec<_>>());
}

#[test]
fn free_buffer_notifies_tools() {
    let (rt, _rec) = rt_with_recorder(Config::default());
    let a = rt.alloc_with::<i64>("a", 4, |_| 0);
    rt.free(&a);
}
