//! End-to-end causal tracing: a traced client submitting a DRACC trace
//! through a live `arbalest serve --trace-dir` instance must leave a
//! Perfetto-loadable trace file in which one batch's `client_submit`,
//! `wal_append`, `shard_job`, and `detector_feed` spans share a single
//! trace id with correct parent links — and the `TraceSnapshot` admin
//! frame must surface the same spans over the wire.

use arbalest_obs::Registry;
use arbalest_offload::json::Json;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_server::{Client, ListenAddr, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn record(bench: &arbalest_dracc::Benchmark) -> Vec<TraceEvent> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    recorder.take()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arbalest-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// One parsed span slice out of a Chrome trace file.
#[derive(Debug, Clone)]
struct Slice {
    name: String,
    trace: String,
    span: String,
    parent: String,
}

/// Parse every `ph:"X"` slice out of a Chrome trace-event document.
fn slices(doc: &Json) -> Vec<Slice> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let args = e.get("args").expect("args");
            Slice {
                name: e.get("name").and_then(Json::as_str).expect("name").to_string(),
                trace: args.get("trace").and_then(Json::as_str).expect("trace").to_string(),
                span: args.get("span").and_then(Json::as_str).expect("span").to_string(),
                parent: args.get("parent").and_then(Json::as_str).expect("parent").to_string(),
            }
        })
        .collect()
}

#[test]
fn traced_session_writes_a_linked_perfetto_tree() {
    let trace_dir = temp_dir("out");
    let data_dir = temp_dir("wal");
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: 2,
            trace_dir: Some(trace_dir.clone()),
            data_dir: Some(data_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);

    let client_reg = Registry::new();
    let mut client =
        Client::connect(server.local_addr()).expect("connect").with_tracing(client_reg.clone());
    let session = client.hello().expect("hello");
    for batch in events.chunks(64) {
        client.send_events(batch).expect("send");
    }
    let reports = client.finish().expect("finish");
    assert!(!reports.is_empty(), "DRACC 22 is a buggy case");

    // The client recorded its own half of every trace.
    let client_spans = client_reg.drain_spans();
    assert!(!client_spans.is_empty());
    assert!(client_spans.iter().all(|e| e.name == "client_submit" && e.trace != 0));

    // The per-session trace file exists and is well-formed JSON.
    let path = trace_dir.join(format!("session-{session}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("trace file {} missing: {e}", path.display()));
    let doc = Json::parse(&text).expect("trace file parses as JSON");
    let all = slices(&doc);

    // Pick one client-minted trace id and check its whole causal tree.
    let client_trace = format!("{:032x}", client_spans[0].trace);
    let tree: Vec<&Slice> = all.iter().filter(|s| s.trace == client_trace).collect();
    let find = |name: &str| {
        tree.iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span in trace {client_trace}:\n{tree:#?}"))
    };
    let submit = find("client_submit");
    let wal = find("wal_append");
    let shard = find("shard_job");
    let feed = find("detector_feed");

    // The server re-recorded the client's exact context as the tree root.
    assert_eq!(submit.span, format!("{:016x}", client_spans[0].span));
    assert_eq!(submit.parent, format!("{:016x}", 0u64), "client_submit is the root");
    // WAL append and shard job are children of the submit; the detector
    // feed is a grandchild through the shard job.
    assert_eq!(wal.parent, submit.span);
    assert_eq!(shard.parent, submit.span);
    assert_eq!(feed.parent, shard.span);

    // Every submitted batch produced a full set of legs in the file.
    let batches = events.chunks(64).count();
    for name in ["client_submit", "wal_append", "shard_job", "detector_feed"] {
        let n = all.iter().filter(|s| s.name == name).count();
        assert_eq!(n, batches, "{name}: {n} spans for {batches} batches");
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn trace_snapshot_frame_surfaces_recent_spans() {
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig { shards: 1, ..ServerConfig::default() },
    )
    .expect("bind");

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let mut client =
        Client::connect(server.local_addr()).expect("connect").with_tracing(Registry::new());
    client.hello().expect("hello");
    client.send_events(&events).expect("send");

    // The admin frame needs no session of its own.
    let mut admin = Client::connect(server.local_addr()).expect("connect admin");
    // The shard job runs asynchronously; poll briefly for it to land.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let spans = loop {
        let spans = admin.trace_snapshot().expect("trace snapshot");
        if spans.iter().any(|e| e.name == "shard_job") || std::time::Instant::now() > deadline {
            break spans;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    for name in ["client_submit", "shard_job", "detector_feed"] {
        assert!(spans.iter().any(|e| e.name == name), "{name} missing from snapshot");
    }
    // Names survived the wire re-intern and the ids stayed causal.
    let submit = spans.iter().find(|e| e.name == "client_submit").unwrap();
    let shard = spans.iter().find(|e| e.name == "shard_job").unwrap();
    assert_eq!(submit.trace, shard.trace);
    assert_eq!(shard.parent, submit.span);

    client.finish().expect("finish");
    server.stop();
}

#[test]
fn untraced_clients_leave_no_trace_files() {
    let trace_dir = temp_dir("silent");
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: 1,
            trace_dir: Some(trace_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reports = client.submit(&events).expect("submit");
    assert!(!reports.is_empty());

    // No span contexts on the wire → nothing recorded → no file.
    let entries: Vec<_> = std::fs::read_dir(&trace_dir).expect("read dir").collect();
    assert!(entries.is_empty(), "untraced session wrote {entries:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&trace_dir);
}
