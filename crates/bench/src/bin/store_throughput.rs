//! Throughput of the durability layer: WAL append bandwidth, snapshot
//! sizes, and cold-recovery latency over the full 56-case DRACC corpus.
//!
//! Three phases, all against a throwaway data directory:
//!
//! 1. **Append** — every case's trace is WAL-appended in server-sized
//!    batches and synced; the phase is repeated and the best wall time
//!    kept (append bandwidth is what `serve --data-dir` pays before
//!    each ack, so MB/s and events/s here bound ingest throughput).
//! 2. **Snapshot** — each case's full analysis state is captured with
//!    `to_snapshot` and encoded; sizes show what a snapshot trigger
//!    writes.
//! 3. **Cold recovery** — each session is rebuilt from disk twice:
//!    once replaying the whole WAL (worst case: crash with no
//!    snapshot), once from a full-coverage snapshot after compaction
//!    (best case). The p50/p99 spread across the 56 cases is the
//!    restart-latency budget a deployment should plan for.
//!
//! Appends one JSON entry to `BENCH_store.json` (see `--out`).
//!
//! ```text
//! store_throughput [--quick] [--out <file>] [--fsync <always|group[=n]|never>]
//! ```

use arbalest_bench::append_to_ledger;
use arbalest_core::{AnalysisSession, ArbalestConfig};
use arbalest_obs::Registry;
use arbalest_offload::json::Json;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_store::{Store, StoreConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Server-sized event batches: one WAL record per `Events` frame.
const BATCH: usize = 1024;

fn record(bench: &arbalest_dracc::Benchmark) -> Vec<TraceEvent> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    recorder.take()
}

/// Sum of `wal-*.log` sizes under every session of `root`, in bytes.
fn wal_bytes_on_disk(root: &Path) -> u64 {
    let mut total = 0;
    let Ok(sessions) = std::fs::read_dir(root.join("sessions")) else { return 0 };
    for session in sessions.flatten() {
        let Ok(files) = std::fs::read_dir(session.path()) else { continue };
        for f in files.flatten() {
            if f.file_name().to_string_lossy().starts_with("wal-") {
                total += f.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    total
}

/// `q`-quantile of an unsorted sample (nearest-rank on the sorted copy).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_store.json".to_string();
    let mut fsync = arbalest_store::FsyncPolicy::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = it.next().expect("--out needs a file path").clone(),
            "--fsync" => {
                fsync = it
                    .next()
                    .expect("--fsync needs a policy")
                    .parse()
                    .expect("bad fsync policy");
            }
            other => {
                eprintln!("unknown option '{other}'");
                std::process::exit(2);
            }
        }
    }
    let append_reps = if quick { 1 } else { 3 };

    let traces: Vec<(u64, Vec<TraceEvent>)> = arbalest_dracc::all()
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u64, record(b)))
        .collect();
    let cases = traces.len();
    let total_events: usize = traces.iter().map(|(_, ev)| ev.len()).sum();
    println!("STORE THROUGHPUT: {cases} DRACC case(s), {total_events} event(s), fsync {fsync}");

    let root = std::env::temp_dir().join(format!("arbalest-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = StoreConfig { fsync, ..StoreConfig::default() };
    let registry = Registry::disabled();

    // Phase 1: WAL append. Fresh subdirectory per rep so every rep pays
    // the same creates; the last rep's directory feeds phase 3.
    let mut best_append = f64::MAX;
    let mut data_dir = root.join("rep-0");
    for rep in 0..append_reps {
        data_dir = root.join(format!("rep-{rep}"));
        let store = Store::open(&data_dir, cfg.clone(), &registry).expect("open store");
        let t = Instant::now();
        for (id, events) in &traces {
            let mut log = store.open_log(*id, 0).expect("open log");
            for batch in events.chunks(BATCH) {
                log.append(batch).expect("append");
            }
            log.sync().expect("sync");
        }
        best_append = best_append.min(t.elapsed().as_secs_f64());
    }
    let wal_bytes = wal_bytes_on_disk(&data_dir);
    let append_mb_s = wal_bytes as f64 / 1e6 / best_append;
    let append_ev_s = total_events as f64 / best_append;
    println!(
        "  append    {:>9.3} ms  {:>8.1} MB/s  {:>11.0} events/s  ({} byte(s) on disk)",
        best_append * 1e3,
        append_mb_s,
        append_ev_s,
        wal_bytes
    );

    // Phase 2: snapshot sizes — full analysis state per case, encoded
    // exactly as the snapshot trigger would.
    let store = Store::open(&data_dir, cfg.clone(), &registry).expect("reopen store");
    let mut snap_bytes: Vec<f64> = Vec::with_capacity(cases);
    let mut snap_total = 0u64;
    for (id, events) in &traces {
        let session = AnalysisSession::new(ArbalestConfig::default());
        session.feed_batch(events);
        let snap = session.to_snapshot();
        let encoded = arbalest_store::encode_session_snapshot(&snap).len() as u64;
        snap_total += encoded;
        snap_bytes.push(encoded as f64);
        store.write_snapshot(*id, &snap).expect("write snapshot");
    }
    println!(
        "  snapshot  {:>9} byte(s) total   p50 {:>7.0}   max {:>7.0}",
        snap_total,
        quantile(&snap_bytes, 0.5),
        quantile(&snap_bytes, 1.0)
    );

    // Phase 3a: cold recovery replaying the full WAL (the snapshots
    // written above are deleted first — worst-case restart).
    for (id, _) in &traces {
        let dir = store.session_dir(*id);
        for f in std::fs::read_dir(&dir).expect("session dir").flatten() {
            if f.file_name().to_string_lossy().starts_with("snapshot-") {
                std::fs::remove_file(f.path()).expect("drop snapshot");
            }
        }
    }
    let mut wal_lat_ms: Vec<f64> = Vec::with_capacity(cases);
    for (id, events) in &traces {
        let t = Instant::now();
        let rec = store
            .recover_session(*id, &ArbalestConfig::default(), &registry)
            .expect("recover from WAL");
        wal_lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(rec.events, events.len() as u64, "session {id}: WAL replay lost events");
        assert!(!rec.torn && !rec.corrupt, "session {id}: clean WAL reported damage");
    }
    let (wal_p50, wal_p99) = (quantile(&wal_lat_ms, 0.5), quantile(&wal_lat_ms, 0.99));
    println!("  recover   WAL replay        p50 {wal_p50:>7.3} ms   p99 {wal_p99:>7.3} ms");

    // Phase 3b: recovery from a full-coverage snapshot after compaction
    // (best-case restart; the WAL tail holds nothing past the snapshot).
    let mut snap_lat_ms: Vec<f64> = Vec::with_capacity(cases);
    for (id, events) in &traces {
        let session = AnalysisSession::new(ArbalestConfig::default());
        session.feed_batch(events);
        store.write_snapshot(*id, &session.to_snapshot()).expect("rewrite snapshot");
        store.compact(*id, events.len() as u64).expect("compact");
        let t = Instant::now();
        let rec = store
            .recover_session(*id, &ArbalestConfig::default(), &registry)
            .expect("recover from snapshot");
        snap_lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(rec.events, events.len() as u64, "session {id}: snapshot recovery lost events");
    }
    let (snap_p50, snap_p99) = (quantile(&snap_lat_ms, 0.5), quantile(&snap_lat_ms, 0.99));
    println!("  recover   snapshot+compact  p50 {snap_p50:>7.3} ms   p99 {snap_p99:>7.3} ms");

    let _ = std::fs::remove_dir_all(&root);

    let entry = Json::obj(vec![
        ("bench", Json::Str("store_throughput".into())),
        ("cases", Json::int(cases as u64)),
        ("events", Json::int(total_events as u64)),
        ("fsync_policy", Json::Str(fsync.to_string())),
        ("wal_bytes", Json::int(wal_bytes)),
        ("append_s", Json::Num(best_append)),
        ("append_mb_per_s", Json::Num(append_mb_s)),
        ("append_events_per_s", Json::Num(append_ev_s)),
        ("snapshot_total_bytes", Json::int(snap_total)),
        ("snapshot_p50_bytes", Json::Num(quantile(&snap_bytes, 0.5))),
        ("snapshot_max_bytes", Json::Num(quantile(&snap_bytes, 1.0))),
        ("recover_wal_p50_ms", Json::Num(wal_p50)),
        ("recover_wal_p99_ms", Json::Num(wal_p99)),
        ("recover_snapshot_p50_ms", Json::Num(snap_p50)),
        ("recover_snapshot_p99_ms", Json::Num(snap_p99)),
    ]);
    if let Err(e) = append_to_ledger(&out, &entry) {
        eprintln!("append to {out}: {e}");
        std::process::exit(1);
    }
    println!("  appended to {out}");
}
