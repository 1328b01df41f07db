//! The `serve-replay` workload: recorded traces submitted to an
//! in-process analysis server, plus the server, wire and store rows.

use crate::known;
use crate::live::Prog;
use crate::stats::{hist_quantile, median, Metrics, Rng, Tally};
use crate::TEAM;
use arbalest_core::{AnalysisSession, ArbalestConfig};
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_offload::wire::encode_reports;
use arbalest_server::{Client, ListenAddr, Server, ServerConfig};
use arbalest_store::{FsyncPolicy, StoreConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients, one fresh connection per session, each with its
/// own share of the traces (`pool`).
const CLIENTS: u64 = 2;

pub struct Trace {
    pub events: Vec<TraceEvent>,
    /// Reports of an in-process `AnalysisSession` on the same events,
    /// in wire encoding: the served reports must match byte for byte.
    pub expected: Vec<u8>,
    /// Table III effect for DRACC traces.
    pub table3: Option<(Option<Effect>, Option<Effect>)>,
    pub accesses: u64,
}

/// Record one trace per program on a team-`TEAM` runtime and compute its
/// in-process answer.
pub fn record(progs: &[Prog]) -> Vec<Trace> {
    progs
        .iter()
        .map(|p| {
            let recorder = Arc::new(TraceRecorder::new());
            let rt = Runtime::with_tool(Config::default().team_size(TEAM), recorder.clone());
            p.run(&rt);
            let events = recorder.take();
            let table3 = match p {
                Prog::Dracc(b) => Some((known::table3(b.id), b.expected)),
                _ => None,
            };
            Trace {
                expected: encode_reports(&feed(&events)),
                accesses: events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Access(_)))
                    .count() as u64,
                events,
                table3,
            }
        })
        .collect()
}

/// In-process `AnalysisSession::feed_batch` + `finish`.
pub fn feed(events: &[TraceEvent]) -> Vec<Report> {
    let session = AnalysisSession::new(ArbalestConfig::default());
    session.feed_batch(events);
    session.finish()
}

/// Events after which the server snapshots a session: the value of the
/// durable-serving example in the repository README (`arbalest serve
/// --snapshot-every-events 4096`). The server checks it after each
/// `DEFAULT_CHUNK` (1024-event) batch, so a session snapshots once per
/// 4096 events it sends, and a trace shorter than that never does.
/// `store.snapshot_session_share` and `store.snapshot_event_share` give
/// the share of the served load this puts on the snapshot path.
pub const SNAPSHOT_EVERY_EVENTS: u64 = 4096;

/// A server on loopback TCP: 2 shards, WAL in `dir` without fsync,
/// snapshots every `SNAPSHOT_EVERY_EVENTS` events of a session.
pub fn start(dir: &Path, reg: Registry) -> Server {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        shards: 2,
        metrics: reg,
        data_dir: Some(dir.to_path_buf()),
        store: StoreConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every_events: SNAPSHOT_EVERY_EVENTS,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind loopback")
}

fn session_ok(t: &Trace, reports: &[Report]) -> bool {
    encode_reports(reports) == t.expected
        && t.table3
            .is_none_or(|(truth, label)| known::dracc_ok(truth, label, reports))
}

#[derive(Default)]
pub struct ServeOut {
    pub op_ms: Vec<f64>,
    /// Trace index of each session, aligned with `op_ms`.
    pub picked: Vec<usize>,
    pub wall_s: f64,
    pub events: u64,
    pub accesses: u64,
    pub tally: Tally,
    pub queue_depth_max: u64,
}

/// The traces client `c` submits: client 0 the SPEC-like ones, client 1
/// the DRACC ones. The slowest SPEC-like trace takes about 8x as long as
/// a DRACC session. Split this way, it is several percent of the
/// sessions, so `op_ms_p99` falls among its samples, not on the border
/// between them and the DRACC sessions queued behind it (which it does
/// when it is about 1%); and no two long sessions overlap, so whether
/// they share the 2 shards and 2 CPUs is not left to timing.
fn pool(traces: &[Trace], c: u64) -> Vec<usize> {
    (0..traces.len())
        .filter(|&i| traces[i].table3.is_some() == (c == 1))
        .collect()
}

/// `CLIENTS` closed-loop clients for `secs`. Each submits each trace of
/// its `pool` once per pass, in an order the seed picks, so the mix is
/// the same each run. With `depths`, a sampler reads the shard queue
/// gauges every 0.5 ms.
pub fn run(
    addr: &ListenAddr,
    traces: &[Trace],
    seed: u64,
    secs: f64,
    depths: Option<&Registry>,
) -> ServeOut {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut out = ServeOut::default();
    std::thread::scope(|s| {
        let sampler = depths.map(|reg| {
            let gauges: Vec<_> = ["0", "1"]
                .iter()
                .map(|i| reg.gauge("arbalest_server_queue_depth", &[("shard", i)]))
                .collect();
            s.spawn(move || {
                let mut max = 0;
                while Instant::now() < deadline {
                    max = gauges.iter().map(|g| g.get()).fold(max, u64::max);
                    std::thread::sleep(Duration::from_micros(500));
                }
                max
            })
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let pool = pool(traces, c);
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c));
                    let mut mine = Vec::new();
                    let mut pass = Vec::new();
                    while Instant::now() < deadline {
                        if pass.is_empty() {
                            pass = rng.permutation(pool.len());
                        }
                        let i = pool[pass.pop().expect("refilled above")];
                        let t0 = Instant::now();
                        let reports =
                            Client::connect(addr)
                                .map_err(|e| e.to_string())
                                .and_then(|mut cl| {
                                    cl.submit(&traces[i].events).map_err(|e| e.to_string())
                                });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        mine.push((i, ms, reports.is_ok_and(|r| session_ok(&traces[i], &r))));
                    }
                    mine
                })
            })
            .collect();
        for c in clients {
            for (i, ms, ok) in c.join().expect("client thread") {
                out.picked.push(i);
                out.op_ms.push(ms);
                out.events += traces[i].events.len() as u64;
                out.accesses += traces[i].accesses;
                out.tally.record(ok);
            }
        }
        out.queue_depth_max = sampler.map_or(0, |h| h.join().expect("sampler thread"));
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Server, store and session rows from a traced serve run of `secs`.
pub fn layer_rows(traces: &[Trace], dir: &Path, seed: u64, secs: f64, m: &mut Metrics) -> ServeOut {
    let reg = Registry::new();
    let server = start(dir, reg.clone());
    let addr = server.local_addr().clone();
    let out = run(&addr, traces, seed, secs, Some(&reg));

    let accept: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let ok = Client::connect(&addr)
                .ok()
                .and_then(|mut c| c.stats().ok())
                .is_some();
            assert!(ok, "stats round trip failed");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("server.accept_ms_p50", "ms", median(&accept));
    server.stop();
    let _ = std::fs::remove_dir_all(dir);

    let snap = reg.snapshot();
    let waits: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(id, _)| id.name == "arbalest_server_job_wait_nanos")
        .map(|(_, h)| h)
        .collect();
    m.put(
        "server.job_wait_us_p50",
        "us",
        hist_quantile(&waits, 0.5) / 1e3,
    );
    m.put(
        "server.job_wait_us_p99",
        "us",
        hist_quantile(&waits, 0.99) / 1e3,
    );
    m.put("server.queue_depth_max", "jobs", out.queue_depth_max as f64);
    m.put(
        "server.busy_rejections",
        "count",
        snap.counter("arbalest_server_busy_rejections_total", &[])
            .unwrap_or(0) as f64,
    );
    let snaps: Vec<_> = snap
        .histogram("arbalest_store_snapshot_nanos", &[])
        .into_iter()
        .collect();
    m.put(
        "store.snapshot_ms_p50",
        "ms",
        hist_quantile(&snaps, 0.5) / 1e6,
    );
    // How much of the served load reaches the snapshot path: sessions
    // (and their events) long enough to trigger one, and snapshots the
    // server actually wrote per session.
    let snapshots = |t: &Trace| t.events.len() as u64 >= SNAPSHOT_EVERY_EVENTS;
    let long = |&&i: &&usize| snapshots(&traces[i]);
    eprintln!(
        "serve corpus: {} of {} traces have at least {SNAPSHOT_EVERY_EVENTS} events",
        traces.iter().filter(|t| snapshots(t)).count(),
        traces.len()
    );
    let sessions = out.picked.len().max(1) as f64;
    m.put(
        "store.snapshot_session_share",
        "ratio",
        out.picked.iter().filter(long).count() as f64 / sessions,
    );
    let long_events: usize = out
        .picked
        .iter()
        .filter(long)
        .map(|&i| traces[i].events.len())
        .sum();
    m.put(
        "store.snapshot_event_share",
        "ratio",
        long_events as f64 / out.events.max(1) as f64,
    );
    m.put(
        "store.snapshots_per_session",
        "count",
        snaps.iter().map(|h| h.count).sum::<u64>() as f64 / sessions,
    );

    // In-process feed + finish per trace (median of 3), against the
    // served sessions of the same traces.
    let feed_ms: Vec<f64> = traces
        .iter()
        .map(|t| {
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(feed(&t.events));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&runs)
        })
        .collect();
    let events: usize = traces.iter().map(|t| t.events.len()).sum();
    m.put(
        "core.session_feed_ns_per_event",
        "ns",
        feed_ms.iter().sum::<f64>() * 1e6 / events.max(1) as f64,
    );
    let fed: f64 = out.picked.iter().map(|&i| feed_ms[i]).sum();
    let served: f64 = out.op_ms.iter().sum();
    m.put(
        "server.overhead_share",
        "ratio",
        1.0 - fed / served.max(f64::MIN_POSITIVE),
    );
    out
}
