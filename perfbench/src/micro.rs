//! Isolated per-layer rows: one public function timed in a tight loop,
//! median ns per call over batches.

use crate::serve::Trace;
use crate::stats::{median, Metrics};
use arbalest_core::vsm::{self, StorageLoc, VsmOp};
use arbalest_obs::Registry;
use arbalest_offload::fault::FaultConfig;
use arbalest_offload::wire::{decode_events, encode_events, Cursor};
use arbalest_race::RaceEngine;
use arbalest_shadow::{GranuleState, IntervalTree, ShadowMemory};
use arbalest_store::{FsyncPolicy, StoreMetrics, WalWriter};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 15;

/// Median ns per call of `f` over `BATCHES` batches of about 2 ms each.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    let mut n = 1u64;
    loop {
        let t0 = Instant::now();
        (0..n).for_each(&mut f);
        if t0.elapsed().as_micros() >= 2000 || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            (b as u64 * n..(b as u64 + 1) * n).for_each(&mut f);
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// Median over `reps` passes of `f`'s wall time, in ns.
fn ns_per_pass(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

pub fn rows(traces: &[Trace], dir: &Path, m: &mut Metrics) {
    let states = [
        GranuleState::default(),
        GranuleState {
            valid_mask: 1,
            init_mask: 1,
            ..Default::default()
        },
        GranuleState {
            valid_mask: 2,
            init_mask: 2,
            ..Default::default()
        },
        GranuleState {
            valid_mask: 3,
            init_mask: 3,
            ..Default::default()
        },
    ];
    let ops = [
        VsmOp::Write(StorageLoc::Host),
        VsmOp::Read(StorageLoc::Device(1)),
    ];
    m.put(
        "core.vsm_apply_ns",
        "ns",
        ns_per_call(|i| {
            black_box(vsm::apply(
                states[(i & 3) as usize],
                ops[((i >> 2) & 1) as usize],
            ));
        }),
    );

    let shadow = ShadowMemory::new(1);
    m.put(
        "shadow.update_ns",
        "ns",
        ns_per_call(|i| {
            black_box(shadow.update(0x10000 + ((i * 8) & 0xFFFF), 0, |w| w.wrapping_add(1)));
        }),
    );

    for mapped in [1u64, 4096] {
        let mut tree = IntervalTree::new();
        for i in 0..mapped {
            tree.insert(i * 1024, i * 1024 + 512, i);
        }
        let ns = ns_per_call(|i| {
            black_box(tree.stab((i * 7919 % mapped) * 1024 + 256));
        });
        m.put(&format!("shadow.stab_ns_m{mapped}"), "ns", ns);
    }

    for tasks in [1u32, 100, 5000] {
        let engine = RaceEngine::new();
        for child in 1..=tasks {
            engine.fork(0, child);
        }
        let ns = ns_per_call(|i| {
            black_box(engine.check_write(tasks, 0x40000 + ((i * 8) & 0xFFFF), 8));
        });
        m.put(&format!("race.check_write_ns_t{tasks}"), "ns", ns);
    }

    let events: usize = traces.iter().map(|t| t.events.len()).sum::<usize>().max(1);
    let encoded: Vec<Vec<u8>> = traces.iter().map(|t| encode_events(&t.events)).collect();
    let enc = ns_per_pass(5, || {
        for t in traces {
            black_box(encode_events(&t.events));
        }
    });
    m.put("wire.encode_ns_per_event", "ns", enc / events as f64);
    let dec = ns_per_pass(5, || {
        for bytes in &encoded {
            black_box(decode_events(&mut Cursor::new(bytes)).expect("round trip"));
        }
    });
    m.put("wire.decode_ns_per_event", "ns", dec / events as f64);

    let mut wal_bytes = 0;
    let mut pass = 0;
    let append = ns_per_pass(5, || {
        let log_dir = dir.join(format!("wal-{pass}"));
        pass += 1;
        let metrics = Arc::new(StoreMetrics::new(&Registry::disabled()));
        let mut wal = WalWriter::open(
            &log_dir,
            0,
            8 << 20,
            FsyncPolicy::Never,
            FaultConfig::disabled(),
            metrics,
        )
        .expect("open WAL");
        wal_bytes = 0;
        for t in traces {
            for batch in t.events.chunks(arbalest_server::client::DEFAULT_CHUNK) {
                wal_bytes += wal.append(batch).expect("append");
            }
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&log_dir);
    });
    m.put("store.append_ns_per_event", "ns", append / events as f64);
    m.put(
        "store.wal_bytes_per_event",
        "bytes",
        wal_bytes as f64 / events as f64,
    );
}

/// Share of the measured per-access detector time that the isolated
/// per-access rows add up to.
pub fn explained_share(m: &mut Metrics) {
    let parts = [
        "core.vsm_apply_ns",
        "shadow.update_ns",
        "shadow.stab_ns_m1",
        "race.check_write_ns_t1",
    ];
    let sum: f64 = parts.iter().filter_map(|p| m.get(p)).sum();
    let measured = m.get("core.on_access_ns").unwrap_or(0.0);
    m.put(
        "core.explained_share",
        "ratio",
        sum / measured.max(f64::MIN_POSITIVE),
    );
}
