//! End-to-end parity: analysing a trace through a live `arbalest-serve`
//! instance must produce *byte-identical* rendered reports to the
//! in-process analysis path, for every DRACC Table III case — plus
//! concurrency and shutdown behaviour under several simultaneous
//! sessions.

use arbalest_core::{AnalysisSession, ArbalestConfig};
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_server::{Client, ListenAddr, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// Record one DRACC benchmark's event trace.
fn record(bench: &arbalest_dracc::Benchmark) -> Vec<TraceEvent> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    recorder.take()
}

/// The in-process reference: replay the trace through a fresh detector.
fn in_process(events: &[TraceEvent]) -> Vec<Report> {
    let session = AnalysisSession::new(ArbalestConfig::default());
    session.feed_batch(events);
    session.finish()
}

fn render_all(reports: &[Report]) -> String {
    reports.iter().map(|r| r.render()).collect()
}

fn start_server(shards: usize) -> Server {
    Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig { shards, ..ServerConfig::default() },
    )
    .expect("bind")
}

#[test]
fn every_dracc_case_matches_in_process_byte_for_byte() {
    let server = start_server(4);
    let addr = server.local_addr().clone();

    for bench in arbalest_dracc::all() {
        let events = record(&bench);
        let expected = in_process(&events);

        let mut client = Client::connect(&addr).expect("connect");
        // A small chunk size exercises multi-frame streaming even for
        // short traces.
        let got = client.submit_chunked(&events, 64).expect("submit");

        assert_eq!(
            got.len(),
            expected.len(),
            "{}: report count diverged (server {} vs in-process {})",
            bench.dracc_id(),
            got.len(),
            expected.len()
        );
        assert_eq!(
            render_all(&got),
            render_all(&expected),
            "{}: rendered reports diverged",
            bench.dracc_id()
        );
        // Structural equality too, not just rendering.
        assert_eq!(got, expected, "{}: report values diverged", bench.dracc_id());
    }

    server.stop();
}

#[test]
fn concurrent_sessions_are_isolated_and_drain_cleanly() {
    let server = start_server(2);
    let addr = server.local_addr().clone();

    // Four distinct benchmarks submitted concurrently, several times
    // each; every session must get exactly its own benchmark's reports.
    let ids: Vec<u32> = arbalest_dracc::all().into_iter().take(4).map(|b| b.id).collect();
    assert_eq!(ids.len(), 4);

    let handles: Vec<_> = ids
        .into_iter()
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let bench = arbalest_dracc::by_id(id).expect("benchmark");
                let events = record(&bench);
                let expected = render_all(&in_process(&events));
                for _ in 0..3 {
                    let mut client = Client::connect(&addr).expect("connect");
                    let got = client.submit_chunked(&events, 32).expect("submit");
                    assert_eq!(render_all(&got), expected, "{}", bench.dracc_id());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }

    // Counters reflect all twelve finished sessions.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions_started, 12);
    assert_eq!(stats.sessions_finished, 12);
    assert_eq!(stats.sessions_active(), 0);

    // Shutdown via the protocol: acknowledged, then the server drains.
    client.shutdown_server().expect("shutdown");
    server.wait_for_shutdown();
    server.stop();
}

/// `shards` bounds how many batches are analysed at once, not how many
/// sessions are open: with one slot, a session that sent a batch and
/// went quiet keeps no other session waiting.
#[test]
fn one_shard_bounds_batches_not_sessions() {
    let server = start_server(1);
    let addr = server.local_addr().clone();
    let a_events = record(&arbalest_dracc::by_id(22).expect("DRACC 22"));
    let b_events = record(&arbalest_dracc::by_id(23).expect("DRACC 23"));
    let half = a_events.len() / 2;

    let mut a = Client::connect(&addr).expect("connect A");
    a.hello().expect("hello A");
    a.send_events(&a_events[..half]).expect("A's batch");

    // A stays open while B runs a whole session; the deadline turns a
    // wait for A into a failure instead of a hang.
    let mut b = Client::connect(&addr).expect("connect B").with_deadline(Duration::from_secs(10));
    let got = b.submit_chunked(&b_events, 64).expect("B runs while A is open");
    let expected = in_process(&b_events);
    assert_eq!(render_all(&got), render_all(&expected));
    assert_eq!(got, expected);

    a.send_events(&a_events[half..]).expect("A's tail");
    assert_eq!(a.finish().expect("finish A"), in_process(&a_events));
    server.stop();
}

#[test]
fn unix_socket_transport_matches_tcp() {
    let path = std::env::temp_dir().join(format!("arbalest-e2e-{}.sock", std::process::id()));
    let server = Server::start(
        &ListenAddr::Unix(path.clone()),
        ServerConfig { shards: 1, ..ServerConfig::default() },
    )
    .expect("bind unix");

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let expected = render_all(&in_process(&events));

    let mut client = Client::connect(server.local_addr()).expect("connect unix");
    let got = client.submit(&events).expect("submit");
    assert_eq!(render_all(&got), expected);

    server.stop();
    assert!(!path.exists(), "socket file not cleaned up");
}

/// Parse one unlabelled sample's value out of Prometheus text.
fn prom_value(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("sample {name} missing from export:\n{prom}"))
}

/// Sum every sample of a (possibly labelled) family.
fn prom_sum(prom: &str, name: &str) -> u64 {
    prom.lines()
        .filter(|l| l.starts_with(&format!("{name}{{")) || l.starts_with(&format!("{name} ")))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn stats_frame_and_prometheus_export_agree() {
    let server = start_server(2);
    let addr = server.local_addr().clone();

    // Drive real work through the server so the counters are non-trivial.
    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let mut client = Client::connect(&addr).expect("connect");
    let reports = client.submit_chunked(&events, 64).expect("submit");
    assert!(!reports.is_empty(), "DRACC 22 is a buggy case");

    // Both views must read the same cells: the binary STATS snapshot and
    // the Prometheus text cannot disagree on any shared counter.
    let stats = client.stats().expect("stats");
    let prom = client.metrics().expect("metrics");

    assert_eq!(prom_value(&prom, "arbalest_server_sessions_started_total"), stats.sessions_started);
    assert_eq!(
        prom_value(&prom, "arbalest_server_sessions_finished_total"),
        stats.sessions_finished
    );
    assert_eq!(prom_value(&prom, "arbalest_server_events_received_total"), stats.events_received);
    assert_eq!(
        prom_sum(&prom, "arbalest_server_reports_total"),
        stats.reports_by_kind.iter().sum::<u64>()
    );

    // The wire layer records into the same registry.
    assert!(prom_sum(&prom, "arbalest_server_frames_total") > 0, "frame counters missing");
    assert!(prom_sum(&prom, "arbalest_server_rx_bytes_total") > 0, "rx byte counter missing");
    // Per-session detectors share the registry too: VSM work shows up.
    assert!(
        prom_sum(&prom, "arbalest_detector_vsm_transition_pairs_total") > 0,
        "detector metrics missing from server export"
    );

    server.stop();
}

/// Every `arbalest_server_*` series a started server registers up front,
/// written out so that no series is dropped or renamed unnoticed. The
/// decode-error family (`{error}` label) is registered on its first use,
/// so a clean session leaves it out.
#[test]
fn a_session_leaves_exactly_the_server_series() {
    let reg = arbalest_obs::Registry::new();
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig { shards: 1, metrics: reg.clone(), ..ServerConfig::default() },
    )
    .expect("bind");
    let events = record(&arbalest_dracc::by_id(22).expect("DRACC 22"));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.submit(&events).expect("submit");
    server.stop();

    let snap = reg.snapshot();
    let mut got: Vec<String> = (snap.counters.iter().map(|(id, _)| id))
        .chain(snap.gauges.iter().map(|(id, _)| id))
        .chain(snap.histograms.iter().map(|(id, _)| id))
        .filter(|id| id.name.starts_with("arbalest_server_"))
        .map(|id| id.render())
        .collect();
    got.sort();
    let want = [
        "arbalest_server_accept_errors_total",
        "arbalest_server_budget_evictions_total",
        r#"arbalest_server_connections_reaped_total{reason="deadline"}"#,
        r#"arbalest_server_connections_reaped_total{reason="idle"}"#,
        "arbalest_server_events_received_total",
        "arbalest_server_forced_aborts_total",
        r#"arbalest_server_frames_total{type="events"}"#,
        r#"arbalest_server_frames_total{type="finish"}"#,
        r#"arbalest_server_frames_total{type="hello"}"#,
        r#"arbalest_server_frames_total{type="metrics"}"#,
        r#"arbalest_server_frames_total{type="shutdown"}"#,
        r#"arbalest_server_frames_total{type="stats"}"#,
        "arbalest_server_quarantined_events_dropped_total",
        r#"arbalest_server_reports_total{kind="data-race"}"#,
        r#"arbalest_server_reports_total{kind="heap-overflow"}"#,
        r#"arbalest_server_reports_total{kind="mapping-issue(BO)"}"#,
        r#"arbalest_server_reports_total{kind="mapping-issue(USD)"}"#,
        r#"arbalest_server_reports_total{kind="mapping-issue(UUM)"}"#,
        r#"arbalest_server_reports_total{kind="uninit-read"}"#,
        r#"arbalest_server_reports_total{kind="use-after-free"}"#,
        "arbalest_server_rx_bytes_total",
        "arbalest_server_sessions_finished_total",
        r#"arbalest_server_sessions_quarantined_total{reason="budget"}"#,
        r#"arbalest_server_sessions_quarantined_total{reason="panic"}"#,
        "arbalest_server_sessions_started_total",
        "arbalest_server_trace_spans_dropped_total",
    ];
    assert_eq!(got, want);
}

#[test]
fn protocol_misuse_yields_remote_errors_not_hangs() {
    let server = start_server(1);
    let addr = server.local_addr().clone();

    // Events before Hello.
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .send_events(&[TraceEvent::PoolAlloc {
            device: arbalest_offload::addr::DeviceId(1),
            base: 0,
            len: 4096,
        }])
        .expect_err("events before hello must fail");
    assert!(matches!(err, arbalest_server::ProtoError::Remote(_)), "{err:?}");

    // Finish before Hello, on a fresh connection.
    let mut client = Client::connect(&addr).expect("connect");
    let err = client.finish().expect_err("finish before hello must fail");
    assert!(matches!(err, arbalest_server::ProtoError::Remote(_)), "{err:?}");

    // Double Hello on one connection.
    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("first hello");
    let err = client.hello().expect_err("second hello must fail");
    assert!(matches!(err, arbalest_server::ProtoError::Remote(_)), "{err:?}");

    server.stop();
}
