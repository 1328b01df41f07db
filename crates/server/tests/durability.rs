//! Durable-session end-to-end tests: kill a server mid-stream, restart it
//! on the same data directory, resume every session, and demand reports
//! **byte-identical** to an uninterrupted in-process run — for all 56
//! DRACC cases at seeded pseudo-random cut offsets. Plus live-reconnect
//! resume, refusal of resume on a server without a data directory,
//! restart accounting (a session is rebuilt once, when resumed),
//! snapshot/compaction triggering, and clean-finish garbage collection.

use arbalest_core::{AnalysisSession, ArbalestConfig};
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_server::{Client, ListenAddr, ProtoError, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn record(bench: &arbalest_dracc::Benchmark) -> Vec<TraceEvent> {
    record_on(Config::default(), |rt| bench.run(rt))
}

/// The trace of `run` on a runtime built from `cfg`.
fn record_on(cfg: Config, run: impl FnOnce(&Runtime)) -> Vec<TraceEvent> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(cfg, recorder.clone());
    run(&rt);
    recorder.take()
}

fn in_process(events: &[TraceEvent]) -> Vec<Report> {
    let session = AnalysisSession::new(ArbalestConfig::default());
    session.feed_batch(events);
    session.finish()
}

fn render_all(reports: &[Report]) -> String {
    reports.iter().map(|r| r.render()).collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arbalest-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_server(data_dir: &Path, shards: usize) -> Server {
    Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards,
            data_dir: Some(data_dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .expect("bind durable server")
}

/// Deterministic splitmix64 step (the tests must not depend on wall
/// clock or OS entropy).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The acceptance criterion: every DRACC case, cut at a seeded offset,
/// killed, recovered on a fresh server instance over the same data dir,
/// resumed, and finished — reports must match an uninterrupted run
/// byte-for-byte.
#[test]
fn kill_and_recover_every_dracc_case_at_seeded_offsets() {
    let data_dir = tmp_dir("parity");
    let mut rng = 0x5EED_u64;

    // Phase 1: submit a seeded prefix of every benchmark, then abandon
    // the connection (no Finish) and stop the server. Acked batches are
    // in each session's WAL.
    let mut pending: Vec<(u64, Vec<TraceEvent>, usize)> = Vec::new();
    {
        let server = durable_server(&data_dir, 4);
        let addr = server.local_addr().clone();
        for bench in arbalest_dracc::all() {
            let events = record(&bench);
            let cut = (splitmix(&mut rng) % (events.len() as u64 + 1)) as usize;
            let mut client = Client::connect(&addr).expect("connect");
            let id = client.hello().expect("hello");
            for batch in events[..cut].chunks(32) {
                client.send_events(batch).expect("send prefix");
            }
            pending.push((id, events, cut));
            // Dropping the client without Finish is the "kill": the
            // session's only live copy is now the data directory.
        }
        server.stop();
    }

    // Phase 2: on a fresh server over the same directory, resuming each
    // session rebuilds it from disk; finishing each must converge to the
    // uninterrupted report.
    let server = durable_server(&data_dir, 4);
    let addr = server.local_addr().clone();
    for (id, events, cut) in pending {
        let expected = in_process(&events);
        let mut client = Client::connect(&addr).expect("connect");
        let recovered = client.resume(id).expect("resume");
        assert_eq!(
            recovered, cut as u64,
            "session {id}: recovered event count must equal the acked prefix"
        );
        for batch in events[cut..].chunks(32) {
            client.send_events(batch).expect("send tail");
        }
        let got = client.finish().expect("finish");
        assert_eq!(got, expected, "session {id}: reports diverged after recovery");
        assert_eq!(render_all(&got), render_all(&expected), "session {id}: rendering diverged");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Resume against the *same* server instance (disconnect, reconnect):
/// disk stays the authority and the stream continues seamlessly.
#[test]
fn live_reconnect_resumes_from_the_wal() {
    let data_dir = tmp_dir("reconnect");
    let server = durable_server(&data_dir, 2);
    let addr = server.local_addr().clone();

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let expected = in_process(&events);
    let cut = events.len() / 2;

    let id = {
        let mut client = Client::connect(&addr).expect("connect");
        let id = client.hello().expect("hello");
        for batch in events[..cut].chunks(16) {
            client.send_events(batch).expect("send prefix");
        }
        id
    }; // dropped without Finish

    // The old handler unregisters the session as it tears down; an
    // immediate reconnect can race that cleanup and see the single-writer
    // guard still held. Retry briefly, as a real client would.
    let mut client = Client::connect(&addr).expect("reconnect");
    let mut attempts = 0;
    let recovered = loop {
        match client.resume(id) {
            Ok(events) => break events,
            Err(e) if attempts < 50 => {
                assert!(matches!(e, arbalest_server::ProtoError::Remote(_)), "{e:?}");
                attempts += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
                client = Client::connect(&addr).expect("reconnect retry");
            }
            Err(e) => panic!("resume never succeeded: {e:?}"),
        }
    };
    assert_eq!(recovered, cut as u64, "recovered event count must equal the acked prefix");
    for batch in events[cut..].chunks(16) {
        client.send_events(batch).expect("send tail");
    }
    assert_eq!(client.finish().expect("finish"), expected);
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Snapshot files are written after the batch is acked, on the
/// session's writer thread. A session that snapshotted and compacted
/// several times, then hung up, resumes from its newest snapshot: one
/// finished snapshot and no temp file are on disk, the acked prefix is
/// recovered, and the finish matches an uninterrupted run.
#[test]
fn a_resumed_session_rebuilds_from_its_last_snapshot() {
    let data_dir = tmp_dir("snapwrite");
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: 1,
            data_dir: Some(data_dir.to_path_buf()),
            store: arbalest_store::StoreConfig {
                segment_bytes: 2048,
                snapshot_every_events: 64,
                ..arbalest_store::StoreConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().clone();
    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let expected = in_process(&events);
    // A multiple of the trigger: the last batch before the hang-up starts
    // a snapshot, so the detach has a writer to wait for.
    let cut = events.len() * 3 / 4 / 64 * 64;
    assert!(cut >= 128, "need at least two snapshots before the cut");

    let id = {
        let mut client = Client::connect(&addr).expect("connect");
        let id = client.hello().expect("hello");
        for batch in events[..cut].chunks(16) {
            client.send_events(batch).expect("send prefix");
        }
        id
    }; // dropped without Finish

    let mut client = Client::connect(&addr).expect("reconnect");
    let mut attempts = 0;
    let recovered = loop {
        match client.resume(id) {
            Ok(events) => break events,
            Err(e) => assert!(attempts < 50 && matches!(e, ProtoError::Remote(_)), "{e:?}"),
        }
        attempts += 1;
        std::thread::sleep(Duration::from_millis(20));
        client = Client::connect(&addr).expect("reconnect retry");
    };
    let names: Vec<String> = std::fs::read_dir(data_dir.join("sessions").join(id.to_string()))
        .expect("session dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.iter().filter(|n| n.ends_with(".snap")).count(), 1, "{names:?}");
    assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
    let prom = client.metrics().expect("metrics");
    assert!(prom_value(&prom, "arbalest_store_snapshots_total") >= 2, "{prom}");
    assert_eq!(recovered, cut as u64, "recovered event count must equal the acked prefix");
    for batch in events[cut..].chunks(16) {
        client.send_events(batch).expect("send tail");
    }
    assert_eq!(client.finish().expect("finish"), expected);
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A session resumed while still attached elsewhere is refused: two
/// writers interleaving one WAL would corrupt the resume point.
#[test]
fn double_attach_is_refused() {
    let data_dir = tmp_dir("doubleattach");
    let server = durable_server(&data_dir, 1);
    let addr = server.local_addr().clone();

    let mut first = Client::connect(&addr).expect("connect");
    let id = first.hello().expect("hello");

    let mut second = Client::connect(&addr).expect("connect");
    let err = second.resume(id).expect_err("attached session must refuse resume");
    assert!(matches!(err, arbalest_server::ProtoError::Remote(_)), "{err:?}");
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Without a data directory a session dies with its connection: its
/// detector lived on the connection's thread, and no log holds its
/// events, so there is nothing to rebuild it from. Drop a half-streamed
/// session, retry the resume at once, and repeat for a couple of
/// seconds: every attempt must be refused with a typed error naming
/// `serve --data-dir`.
#[test]
fn storeless_resume_never_attaches() {
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig { shards: 1, ..ServerConfig::default() },
    )
    .expect("bind storeless server");
    let addr = server.local_addr().clone();
    // A long trace in large batches, so each session takes a while.
    let events = {
        let recorder = Arc::new(TraceRecorder::new());
        let rt = Runtime::with_tool(Config::default(), recorder.clone());
        let pcg = arbalest_spec::by_name("pcg").expect("pcg workload");
        (pcg.run)(&rt, arbalest_spec::Preset::Test);
        recorder.take()
    };
    let half = &events[..events.len() / 2];

    let until = Instant::now() + Duration::from_secs(2);
    let mut attempts = 0u32;
    while Instant::now() < until {
        let id = {
            let mut client = Client::connect(&addr).expect("connect");
            let id = client.hello().expect("hello");
            for batch in half.chunks(256) {
                client.send_events(batch).expect("send prefix");
            }
            id
        }; // dropped without Finish: the server drops the session
        let mut retry = Client::connect(&addr).expect("reconnect");
        let retry_until = Instant::now() + Duration::from_millis(100);
        while Instant::now() < retry_until {
            let err = retry.resume(id).expect_err("storeless resume attached");
            assert!(
                matches!(&err, ProtoError::Remote(m) if m.contains("serve --data-dir")),
                "{err:?}"
            );
            attempts += 1;
        }
    }
    assert!(attempts > 0);
    server.stop();
}

/// A session left open across a restart is rebuilt once, when its client
/// resumes it — not also at boot — and counts as one session started
/// and one finished.
#[test]
fn a_resumed_session_is_rebuilt_once_and_counted_once() {
    let data_dir = tmp_dir("restart");
    let events = record(&arbalest_dracc::by_id(22).expect("DRACC 22"));
    let cut = events.len() / 2;
    let id = {
        let server = durable_server(&data_dir, 2);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let id = client.hello().expect("hello");
        for batch in events[..cut].chunks(16) {
            client.send_events(batch).expect("send prefix");
        }
        drop(client); // no Finish
        server.stop();
        id
    };

    let server = durable_server(&data_dir, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let recovered = |c: &mut Client| {
        prom_value(&c.metrics().expect("metrics"), "arbalest_store_recovered_sessions_total")
    };
    assert_eq!(recovered(&mut client), 0, "boot rebuilt a session nobody resumed");
    assert_eq!(client.resume(id).expect("resume"), cut as u64);
    assert_eq!(recovered(&mut client), 1);
    for batch in events[cut..].chunks(16) {
        client.send_events(batch).expect("send tail");
    }
    assert_eq!(client.finish().expect("finish"), in_process(&events));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.sessions_started, stats.sessions_finished), (1, 1), "{stats:?}");
    assert_eq!(stats.sessions_active(), 0, "{stats:?}");
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A resume that cannot be rebuilt is refused and counted by its error,
/// and fresh sessions never take an id that is on disk.
#[test]
fn failed_recovery_is_counted_and_fresh_ids_skip_the_disk() {
    let data_dir = tmp_dir("badrecovery");
    let events = record(&arbalest_dracc::by_id(22).expect("DRACC 22"));
    {
        // A log that starts at event 10 with no snapshot under it.
        let store = arbalest_store::Store::open(
            &data_dir,
            arbalest_store::StoreConfig::default(),
            &arbalest_obs::Registry::new(),
        )
        .expect("open store");
        let mut log = store.open_log(5, 10).expect("open log");
        log.append(&events[10..20]).expect("append");
    }
    let server = durable_server(&data_dir, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client.resume(5).expect_err("a gapped log must not resume");
    assert!(matches!(&err, ProtoError::Remote(m) if m.contains("gap")), "{err:?}");
    let prom = client.metrics().expect("metrics");
    assert!(
        prom.lines().any(|l| l == "arbalest_store_recovery_failures_total{error=\"gap\"} 1"),
        "{prom}"
    );
    assert_eq!(prom_value(&prom, "arbalest_store_recovered_sessions_total"), 0);
    assert_eq!(client.hello().expect("fresh session"), 6);
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Parse one unlabelled sample's value out of Prometheus text.
fn prom_value(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Snapshot triggers fire mid-stream, compaction prunes covered
/// segments, the store's instruments land in the server's Prometheus
/// export, and a clean Finish removes the session's durable state.
#[test]
fn snapshot_triggers_compaction_and_clean_finish_removes_state() {
    let data_dir = tmp_dir("snaptrig");
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: 1,
            data_dir: Some(data_dir.to_path_buf()),
            store: arbalest_store::StoreConfig {
                // Tiny segments and an aggressive event trigger so even a
                // short trace snapshots and compacts several times.
                segment_bytes: 2048,
                snapshot_every_events: 64,
                ..arbalest_store::StoreConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().clone();

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    assert!(events.len() > 128, "need enough events to trip the trigger twice");
    let expected = in_process(&events);

    let mut client = Client::connect(&addr).expect("connect");
    let got = client.submit_chunked(&events, 32).expect("submit");
    assert_eq!(got, expected, "durable path must not perturb analysis");

    let prom = client.metrics().expect("metrics");
    assert!(
        prom_value(&prom, "arbalest_store_snapshots_total") >= 1,
        "snapshot trigger never fired:\n{prom}"
    );
    assert!(prom_value(&prom, "arbalest_store_wal_records_total") >= 1);
    assert!(prom_value(&prom, "arbalest_store_wal_appended_bytes_total") > 0);

    // Clean Finish: the session's durable record is gone, so a restart
    // recovers nothing.
    let sessions = data_dir.join("sessions");
    let leftovers: Vec<_> = std::fs::read_dir(&sessions)
        .map(|it| it.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "finished session left durable state: {leftovers:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A segment's 14-byte header: magic, WAL version, start index.
fn segment_header(start: u64) -> Vec<u8> {
    let mut out = arbalest_store::wal::WAL_MAGIC.to_vec();
    out.extend_from_slice(&arbalest_store::WAL_VERSION.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    out
}

/// One WAL record: `len | crc32 | payload`.
fn wal_record(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&arbalest_store::crc::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Every segment of a session's log, in start order, as `(start, bytes)`.
fn segments(data_dir: &Path, id: u64) -> Vec<(u64, Vec<u8>)> {
    let dir = data_dir.join("sessions").join(id.to_string());
    arbalest_store::wal::list_segments(&dir)
        .expect("list segments")
        .into_iter()
        .map(|(start, path)| (start, std::fs::read(path).expect("read segment")))
        .collect()
}

/// What a served session logs is what its client encoded: for each batch,
/// one record whose payload is `wire::encode_events(batch)`, and never
/// the span context a traced client stamps on the frame. The four
/// SPEC-like traces and a few DRACC ones, in batches of 37 and of 1024,
/// half of the sessions traced; each session is left open.
#[test]
fn a_served_session_logs_each_batch_as_its_client_encoded_it() {
    let data_dir = tmp_dir("servedbytes");
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: 2,
            data_dir: Some(data_dir.to_path_buf()),
            // One segment per session, whatever its length.
            store: arbalest_store::StoreConfig {
                segment_bytes: 1 << 30,
                ..arbalest_store::StoreConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind durable server");
    let addr = server.local_addr().clone();
    // Recorded at team 2, as perfbench records the traces it serves.
    let team2 = || Config::default().team_size(2);
    let mut traces: Vec<Vec<TraceEvent>> = ["postencil", "polbm", "pomriq", "pcg"]
        .iter()
        .map(|name| {
            let w = arbalest_spec::by_name(name).expect("SPEC-like workload");
            record_on(team2(), |rt| {
                (w.run)(rt, arbalest_spec::Preset::Test);
            })
        })
        .collect();
    for id in [1, 22, 23, 49] {
        let bench = arbalest_dracc::by_id(id).expect("DRACC case");
        traces.push(record_on(team2(), |rt| bench.run(rt)));
    }
    let mut sessions = 0;
    for events in &traces {
        for chunk in [37, 1024] {
            let client = Client::connect(&addr).expect("connect");
            let mut client = match sessions % 2 {
                0 => client,
                _ => client.with_tracing(arbalest_obs::Registry::new()),
            };
            sessions += 1;
            let id = client.hello().expect("hello");
            let mut want = segment_header(0);
            for batch in events.chunks(chunk) {
                client.send_events(batch).expect("send batch");
                want.extend_from_slice(&wal_record(&arbalest_offload::wire::encode_events(batch)));
            }
            drop(client); // left open: the log stays on disk
            let got = segments(&data_dir, id);
            assert_eq!(got.len(), 1, "session {id}: one segment");
            assert!(got[0].1 == want, "session {id} (chunk {chunk}): logged bytes differ");
        }
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// An `Events` frame whose batch fails to decode gets a typed error, and
/// nothing of it reaches the log: after one good batch, neither a batch
/// whose second event has a bad tag nor one whose count prefix promises
/// more events than it carries is logged, and a resume starts right after
/// the good batch.
#[test]
fn a_batch_that_fails_to_decode_is_never_logged() {
    use arbalest_offload::wire;
    use arbalest_server::{Frame, WIRE_VERSION};
    let data_dir = tmp_dir("badbatch");
    let server = durable_server(&data_dir, 1);
    let addr = match server.local_addr() {
        ListenAddr::Tcp(a) => a.clone(),
        other => panic!("wanted tcp, got {other}"),
    };
    let events = record(&arbalest_dracc::by_id(22).expect("DRACC 22"));
    let good = &events[..10];

    // A frame whose batch is `batch` and whose span-context tag is 0.
    let events_frame = |batch: &[u8]| {
        let mut out = (batch.len() as u32 + 2).to_le_bytes().to_vec();
        out.push(0x02);
        out.extend_from_slice(batch);
        out.push(0);
        out
    };
    let mut bad_tag = wire::encode_events(&events[10..12]);
    let mut first = Vec::new();
    wire::encode_event(&events[10], &mut first);
    bad_tag[4 + first.len()] = 0xEE;
    let mut overcounted = wire::encode_events(&events[10..12]);
    overcounted[..4].copy_from_slice(&3u32.to_le_bytes());

    // Open (or resume) the session on a raw connection, send the bad
    // frame, and read the typed answer.
    let send_bad = |resume: Option<u64>, bad: &[u8]| -> (u64, String) {
        let mut attempts = 0;
        let (mut raw, id) = loop {
            let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
            Frame::Hello { version: WIRE_VERSION, resume }.write_to(&mut raw).expect("hello");
            match Frame::read_from(&mut raw, &mut || true).expect("hello reply") {
                Frame::HelloAck { session, .. } => break (raw, session),
                // The last connection may still hold the session.
                Frame::Error { .. } if attempts < 50 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("{other:?}"),
            }
        };
        if resume.is_none() {
            let frame = Frame::Events { events: good.to_vec(), ctx: None };
            frame.write_to(&mut raw).expect("good batch");
            let ack = Frame::read_from(&mut raw, &mut || true).expect("ack");
            assert_eq!(ack, Frame::EventsAck { accepted: good.len() as u32 });
        }
        std::io::Write::write_all(&mut raw, &events_frame(bad)).expect("bad batch");
        match Frame::read_from(&mut raw, &mut || true).expect("typed reply") {
            Frame::Error { message } => (id, message),
            other => panic!("wanted Error, got {other:?}"),
        }
    };
    let (id, message) = send_bad(None, &bad_tag);
    assert!(message.contains("bad TraceEvent tag 0xee"), "{message}");
    let (_, message) = send_bad(Some(id), &overcounted);
    assert!(message.contains("truncated"), "{message}");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut attempts = 0;
    let resumed = loop {
        match client.resume(id) {
            Ok(events) => break events,
            Err(e) => assert!(attempts < 50 && matches!(e, ProtoError::Remote(_)), "{e:?}"),
        }
        attempts += 1;
        std::thread::sleep(Duration::from_millis(20));
        client = Client::connect(server.local_addr()).expect("reconnect");
    };
    assert_eq!(resumed, good.len() as u64);
    let prom = client.metrics().expect("metrics");
    for label in ["bad_tag", "truncated"] {
        let line = format!("arbalest_server_decode_errors_total{{error=\"{label}\"}} 1");
        assert!(prom.lines().any(|l| l == line), "{line}\n{prom}");
    }
    // The first segment holds exactly the good record; each resume
    // started an empty segment after it.
    let mut want = segment_header(0);
    want.extend_from_slice(&wal_record(&wire::encode_events(good)));
    let got = segments(&data_dir, id);
    assert!(got[0] == (0, want), "the first segment holds more than the good batch");
    for (start, bytes) in &got[1..] {
        assert_eq!((*start, bytes), (good.len() as u64, &segment_header(good.len() as u64)));
    }
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// An injected `WalCorruptRecord` flips a byte of the record written to
/// disk, never of the batch the session analyses: the log scans as
/// corrupt while the session's reports match an uninterrupted run.
#[test]
fn injected_wal_corruption_reaches_the_disk_not_the_analysis() {
    use arbalest_offload::fault::{FaultConfig, FaultOutcome, FaultPlan, FaultSite};
    // A seed whose first append corrupts its record without tearing it
    // (the writer decides the corruption, then the tear).
    let faults = (0..)
        .map(|seed| FaultConfig::new(seed, 0.5))
        .find(|&cfg| {
            let plan = FaultPlan::new(cfg);
            plan.decide(FaultSite::WalCorruptRecord) == FaultOutcome::Permanent
                && plan.decide(FaultSite::WalTornTail) == FaultOutcome::None
        })
        .expect("some seed corrupts without tearing");
    let data_dir = tmp_dir("corruptwal");
    let server = Server::start(
        &ListenAddr::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            shards: 1,
            data_dir: Some(data_dir.to_path_buf()),
            store: arbalest_store::StoreConfig {
                fsync: arbalest_store::FsyncPolicy::Never,
                faults,
                ..arbalest_store::StoreConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let events = record(&arbalest_dracc::by_id(22).expect("DRACC 22"));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let id = client.hello().expect("hello");
    client.send_events(&events).expect("one batch");
    let replay = arbalest_store::read_wal(&data_dir.join("sessions").join(id.to_string()), false)
        .expect("scan");
    assert!(replay.corrupt && replay.events.is_empty(), "{replay:?}");
    assert_eq!(client.finish().expect("finish"), in_process(&events));
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}
