//! Detector-level tests for the §IV-C multi-accelerator extension and
//! the device-to-device transfer path.

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::prelude::*;
use std::sync::Arc;

fn harness(accels: u16) -> (Runtime, Arc<Arbalest>) {
    let tool = Arc::new(Arbalest::new(ArbalestConfig { accelerators: accels, ..Default::default() }));
    let rt = Runtime::with_tool(Config::default().accelerators(accels), tool.clone());
    (rt, tool)
}

#[test]
fn clean_d2d_pipeline_has_no_reports() {
    let (rt, tool) = harness(2);
    let d0 = DeviceId(1);
    let d1 = DeviceId(2);
    let a = rt.alloc_with::<f64>("a", 16, |i| i as f64);
    rt.target_enter_data(d0, &[Map::to(&a)]);
    rt.target_enter_data(d1, &[Map::alloc(&a)]);
    rt.target().on_device(d0).map(Map::to(&a)).run(move |k| {
        k.for_each(0..16, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 1.0);
        });
    });
    rt.device_memcpy(d0, d1, &a);
    rt.target().on_device(d1).map(Map::to(&a)).run(move |k| {
        k.for_each(0..16, |k, i| {
            let _ = k.read(&a, i); // valid: D2D copy delivered it
        });
    });
    rt.update_from_on(d1, &a);
    let _ = rt.read(&a, 3);
    assert!(tool.reports().is_empty(), "{:?}", tool.reports());
}

#[test]
fn d2d_copy_of_stale_source_propagates_staleness() {
    let (rt, tool) = harness(2);
    let d0 = DeviceId(1);
    let d1 = DeviceId(2);
    let a = rt.alloc_with::<f64>("a", 16, |i| i as f64);
    rt.target_enter_data(d0, &[Map::to(&a)]);
    rt.target_enter_data(d1, &[Map::alloc(&a)]);
    // Host updates after the to-map: device 0's CV is now stale.
    for i in 0..16 {
        rt.write(&a, i, -1.0);
    }
    // Copy the STALE device-0 CV to device 1, then read it there.
    rt.device_memcpy(d0, d1, &a);
    rt.target().on_device(d1).map(Map::to(&a)).run(move |k| {
        k.for_each(0..16, |k, i| {
            let _ = k.read(&a, i);
        });
    });
    assert!(
        tool.reports().iter().any(|r| r.kind == ReportKind::MappingUsd),
        "the D2D copy carries stale data: {:?}",
        tool.reports()
    );
}

#[test]
fn d2d_copy_of_uninitialised_source_is_uum_at_the_sink() {
    let (rt, tool) = harness(2);
    let d0 = DeviceId(1);
    let d1 = DeviceId(2);
    let a = rt.alloc::<f64>("a", 16); // never initialised anywhere
    rt.target_enter_data(d0, &[Map::alloc(&a)]);
    rt.target_enter_data(d1, &[Map::alloc(&a)]);
    rt.device_memcpy(d0, d1, &a);
    rt.target().on_device(d1).map(Map::alloc(&a)).run(move |k| {
        k.for_each(0..16, |k, i| {
            let _ = k.read(&a, i);
        });
    });
    assert!(
        tool.reports().iter().any(|r| r.kind == ReportKind::MappingUum),
        "{:?}",
        tool.reports()
    );
}

#[test]
fn seven_accelerators_round_robin() {
    // The widest configuration the multi-device shadow word supports.
    let (rt, tool) = harness(7);
    let a = rt.alloc_with::<f64>("a", 8, |_| 0.0);
    for d in 1..=7u16 {
        let dev = DeviceId(d);
        rt.target().on_device(dev).map(Map::tofrom(&a)).run(move |k| {
            k.for_each(0..8, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
    }
    assert_eq!(rt.read(&a, 0), 7.0);
    assert!(tool.reports().is_empty(), "{:?}", tool.reports());
}

#[test]
fn stats_expose_cache_amortisation() {
    let (rt, tool) = harness(1);
    let a = rt.alloc_with::<f64>("a", 4096, |_| 1.0);
    rt.target().map(Map::tofrom(&a)).run(move |k| {
        k.for_each(0..4096, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v + 1.0);
        });
    });
    let stats = tool.stats();
    assert!(stats.accesses.get() >= 8192, "host init + kernel accesses");
    assert!(stats.vsm_transitions() >= stats.accesses.get());
    assert!(
        stats.cache_hit_rate() > 0.99,
        "sequential kernel accesses must hit the one-entry cache: {}",
        stats.cache_hit_rate()
    );
}

#[test]
fn the_lookup_cache_holds_a_kernels_working_set() {
    // A `parallel for` that cycles through more CVs than a thread's cache
    // holds walks the interval tree on every access. Each team thread is
    // fresh, so it may miss once per buffer and no more.
    const TEAM: usize = 4;
    let tool = Arc::new(Arbalest::default());
    let rt = Runtime::with_tool(Config::default().team_size(TEAM), tool.clone());
    let bufs: Vec<Buffer<f64>> =
        (0..10).map(|b| rt.alloc_with::<f64>(&format!("in{b}"), 256, |i| i as f64)).collect();
    for width in [5, 10] {
        let before = tool.stats().cache_misses.get();
        let ins = bufs[..width].to_vec();
        let region = ins.iter().fold(rt.target(), |r, b| r.map(Map::to(b)));
        region.run(move |k| {
            k.par_for(0..256, |k, i| {
                for b in &ins {
                    let _ = k.read(b, i);
                }
            });
        });
        let misses = tool.stats().cache_misses.get() - before;
        assert!(misses <= (TEAM * width) as u64, "{width} buffers: {misses} misses");
    }
    assert!(tool.reports().is_empty(), "{:?}", tool.reports());
}

#[test]
fn cache_disabled_still_correct_just_not_amortised() {
    let tool = Arc::new(Arbalest::new(ArbalestConfig { lookup_cache: false, ..Default::default() }));
    let rt = Runtime::with_tool(Config::default(), tool.clone());
    let a = rt.alloc_with::<f64>("a", 256, |_| 1.0);
    rt.target().map(Map::tofrom(&a)).run(move |k| {
        k.for_each(0..256, |k, i| {
            let v = k.read(&a, i);
            k.write(&a, i, v * 2.0);
        });
    });
    assert!(tool.reports().is_empty());
    assert_eq!(tool.stats().cache_hit_rate(), 0.0);
    assert!(tool.stats().cache_misses.get() >= 512);
}
