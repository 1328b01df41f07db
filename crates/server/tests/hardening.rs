//! Connection-hardening and supervision behaviour over live sockets: a
//! peer that dies mid-frame, announces an oversized frame, idles
//! forever, or stalls mid-frame must always produce a typed error (or a
//! clean reap) — never a hang, a crash, or a partially-mutated session —
//! and the server must keep serving afterwards. Shard panics and budget
//! breaches must surface as typed `SessionFailed` replies. A fresh
//! connection is answered without waiting on an accept poll, and a stop
//! wakes every handler at once without counting any of them as a decode
//! error, a reap or a forced abort.

use arbalest_obs::Registry;
use arbalest_offload::fault::FaultConfig;
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_server::{
    Client, Frame, ListenAddr, ProtoError, Server, ServerConfig, SessionFailure, WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Suppress the default panic hook's backtrace spam for panics this test
/// binary injects on purpose; real panics still print.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected shard panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn record(bench: &arbalest_dracc::Benchmark) -> Vec<TraceEvent> {
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    recorder.take()
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind")
}

fn tcp_addr(server: &Server) -> String {
    match server.local_addr() {
        ListenAddr::Tcp(a) => a.clone(),
        other => panic!("wanted tcp, got {other}"),
    }
}

fn prom_sum(prom: &str, name: &str) -> u64 {
    prom.lines()
        .filter(|l| l.starts_with(&format!("{name}{{")) || l.starts_with(&format!("{name} ")))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn mid_frame_disconnect_is_counted_and_the_server_keeps_serving() {
    let server = start(ServerConfig { shards: 1, ..ServerConfig::default() });
    let addr = tcp_addr(&server);

    // Announce a 100-byte frame, deliver 10 bytes, vanish.
    {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        raw.write_all(&100u32.to_le_bytes()).expect("len prefix");
        raw.write_all(&[0x02; 10]).expect("partial body");
        // Dropping the stream closes it mid-frame.
    }
    // The handler must notice the truncation promptly and move on; give it
    // a moment, then prove the server is still healthy.
    std::thread::sleep(Duration::from_millis(100));

    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);
    let mut client = Client::connect(server.local_addr()).expect("connect after disconnect");
    let reports = client.submit_chunked(&events, 64).expect("submit after disconnect");
    assert!(!reports.is_empty(), "DRACC 22 is a buggy case");

    let prom = client.metrics().expect("metrics");
    assert!(
        prom_sum(&prom, "arbalest_server_decode_errors_total") >= 1,
        "mid-frame disconnect not counted as a typed decode error:\n{prom}"
    );
    // No session state was mutated by the dead connection: only the good
    // session ever opened.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions_started, 1);
    assert_eq!(stats.sessions_finished, 1);
    server.stop();
}

#[test]
fn oversized_frame_announcement_is_refused_with_a_typed_error() {
    let server = start(ServerConfig { shards: 1, max_frame: 1024, ..ServerConfig::default() });
    let addr = tcp_addr(&server);

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Announce a frame far over the per-instance limit (but under the
    // protocol cap, so only the configured limit can refuse it).
    raw.write_all(&(1_000_000u32).to_le_bytes()).expect("len prefix");
    raw.flush().expect("flush");
    let reply = Frame::read_from(&mut raw, &mut || true).expect("server must answer, not hang");
    match reply {
        Frame::Error { message } => {
            assert!(message.contains("frame"), "unexpected refusal text: {message}")
        }
        other => panic!("wanted Error, got {other:?}"),
    }

    // The refusal closed only that connection; the server still serves.
    let mut client = Client::connect(server.local_addr()).expect("connect after refusal");
    client.hello().expect("hello after refusal");
    server.stop();
}

#[test]
fn idle_connections_are_reaped_with_a_typed_timeout() {
    let server = start(ServerConfig {
        shards: 1,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = tcp_addr(&server);

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Send nothing. The reaper must close us with the typed reason rather
    // than holding the handler thread forever.
    let reply = Frame::read_from(&mut raw, &mut || true).expect("reap notice");
    assert!(
        matches!(reply, Frame::SessionFailed(SessionFailure::IdleTimeout { limit_ms: 300 })),
        "{reply:?}"
    );
    server.stop();
}

#[test]
fn stalled_mid_frame_sender_hits_the_request_deadline() {
    let server = start(ServerConfig {
        shards: 1,
        idle_timeout: Duration::from_secs(60),
        request_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = tcp_addr(&server);

    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Start a frame (length prefix + first body byte), then stall.
    raw.write_all(&8u32.to_le_bytes()).expect("len prefix");
    raw.write_all(&[0x01]).expect("first byte");
    raw.flush().expect("flush");
    let reply = Frame::read_from(&mut raw, &mut || true).expect("deadline notice");
    assert!(
        matches!(reply, Frame::SessionFailed(SessionFailure::DeadlineExceeded { limit_ms: 300 })),
        "{reply:?}"
    );
    server.stop();
}

#[test]
fn shard_panic_surfaces_as_a_typed_failure_and_spares_other_sessions() {
    quiet_injected_panics();
    // Rate 1.0: every Events batch trips the injected panic.
    let server = start(ServerConfig {
        shards: 1,
        faults: FaultConfig::new(11, 1.0),
        ..ServerConfig::default()
    });
    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);

    // An innocent session is open while the victim's batch panics its
    // analysis.
    let mut innocent = Client::connect(server.local_addr()).expect("connect innocent");
    innocent.hello().expect("hello innocent");

    let mut victim = Client::connect(server.local_addr()).expect("connect victim");
    let err = victim.submit_chunked(&events, 64).expect_err("victim must fail typed");
    match err {
        ProtoError::Failed(SessionFailure::ShardPanic { message }) => {
            assert!(message.contains("injected shard panic"), "{message}")
        }
        other => panic!("wanted ShardPanic, got {other:?}"),
    }
    // The submit had a second batch in flight when the first one failed;
    // it read that batch's answer too, so the stream stays in step: the
    // finish gets the session's own answer and a later request its reply.
    assert!(events.len() > 64, "need two batches in flight");
    let again = victim.finish().expect_err("a quarantined session stays failed");
    assert!(matches!(again, ProtoError::Failed(SessionFailure::ShardPanic { .. })), "{again:?}");
    victim.stats().expect("stats after the failed session");

    // The innocent session (which never fed events, so never tripped the
    // fault) still finishes cleanly.
    let reports = innocent.finish().expect("innocent finish");
    assert!(reports.is_empty());
    server.stop();
}

#[test]
fn budget_breach_ends_the_session_with_a_typed_failure() {
    let server = start(ServerConfig {
        shards: 1,
        max_session_bytes: 1,
        ..ServerConfig::default()
    });
    let bench = arbalest_dracc::by_id(22).expect("DRACC 22");
    let events = record(&bench);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client.submit_chunked(&events, 64).expect_err("1-byte budget must fail");
    assert!(
        matches!(err, ProtoError::Failed(SessionFailure::BudgetExceeded { budget_bytes: 1, .. })),
        "{err:?}"
    );

    // The budget is per session: an unconstrained follow-up session would
    // still fail here (budget applies to all), but the server itself is
    // healthy and answers stats.
    let mut admin = Client::connect(server.local_addr()).expect("connect admin");
    let stats = admin.stats().expect("stats");
    assert_eq!(stats.sessions_started, 1);
    server.stop();
}

#[test]
fn wire_version_mismatch_still_fails_fast() {
    // Hardening must not regress the version check's fail-fast behaviour.
    let server = start(ServerConfig { shards: 1, ..ServerConfig::default() });
    let addr = tcp_addr(&server);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    Frame::Hello { version: WIRE_VERSION + 1, resume: None }.write_to(&mut raw).expect("hello");
    let reply = Frame::read_from(&mut raw, &mut || true).expect("reply");
    assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
    server.stop();
}

#[test]
fn client_deadline_bounds_a_reply_that_never_comes() {
    // The kernel completes the connect; nothing ever accepts or answers.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = ListenAddr::Tcp(silent.local_addr().expect("bound address").to_string());
    let mut client =
        Client::connect(&addr).expect("connect").with_deadline(Duration::from_millis(200));
    let t0 = Instant::now();
    let err = client.hello().expect_err("no reply ever comes");
    assert!(matches!(err, ProtoError::DeadlineExceeded { .. }), "{err:?}");
    assert!(t0.elapsed() < Duration::from_secs(5), "deadline fired after {:?}", t0.elapsed());
}

fn unix_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("arbalest-hardening-{}-{tag}.sock", std::process::id()))
}

/// Where a client reaches `server`: a wildcard bind is reached over
/// loopback.
fn client_addr(server: &Server) -> ListenAddr {
    match server.local_addr() {
        ListenAddr::Tcp(a) => {
            let mut a: SocketAddr = a.parse().expect("bound socket address");
            if a.ip().is_unspecified() {
                a.set_ip([127, 0, 0, 1].into());
            }
            ListenAddr::Tcp(a.to_string())
        }
        unix => unix.clone(),
    }
}

trait RawStream: Read + Write {}
impl<T: Read + Write> RawStream for T {}

/// A raw connection whose reads give up after 5 s instead of hanging.
fn raw_connect(addr: &ListenAddr) -> Box<dyn RawStream> {
    let timeout = Some(Duration::from_secs(5));
    match addr {
        ListenAddr::Tcp(a) => {
            let s = TcpStream::connect(a).expect("connect");
            s.set_read_timeout(timeout).expect("read timeout");
            Box::new(s)
        }
        ListenAddr::Unix(p) => {
            let s = UnixStream::connect(p).expect("connect");
            s.set_read_timeout(timeout).expect("read timeout");
            Box::new(s)
        }
    }
}

/// With a blocking accept, a fresh connection waits on nothing between
/// its connect and its answer. An accept loop that polls pays its poll
/// interval on every connection.
fn fresh_connections_are_answered_at_once(bind: ListenAddr) {
    let server =
        Server::start(&bind, ServerConfig { shards: 1, ..ServerConfig::default() }).expect("bind");
    let t0 = Instant::now();
    for _ in 0..100 {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.stats().expect("stats");
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "100 connect + stats round trips took {took:?}");
    server.stop();
}

#[test]
fn fresh_tcp_connection_is_answered_without_an_accept_poll() {
    fresh_connections_are_answered_at_once(ListenAddr::Tcp("127.0.0.1:0".into()));
}

#[test]
fn fresh_unix_connection_is_answered_without_an_accept_poll() {
    fresh_connections_are_answered_at_once(ListenAddr::Unix(unix_path("fresh")));
}

/// Stop must wake an idle handler and one blocked mid-length-prefix at
/// once, with both clocks far away. A read that stop cut short is the
/// shutdown: not a truncated frame, not a reap, not a forced abort.
fn stop_wakes_every_handler(bind: ListenAddr) {
    let reg = Registry::new();
    let server = Server::start(
        &bind,
        ServerConfig {
            shards: 1,
            idle_timeout: Duration::from_secs(60),
            request_deadline: Duration::from_secs(60),
            metrics: reg.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = client_addr(&server);
    let mut idle = raw_connect(&addr);
    let mut half = raw_connect(&addr);
    half.write_all(&8u32.to_le_bytes()[..2]).expect("half a length prefix");
    // Connections are accepted in order, so once a later one is answered
    // both raw ones have handlers.
    let mut probe = Client::connect(&addr).expect("connect probe");
    probe.stats().expect("stats");

    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "stop took {took:?}");

    let prom = reg.snapshot().to_prometheus();
    for name in [
        "arbalest_server_decode_errors_total",
        "arbalest_server_connections_reaped_total",
        "arbalest_server_forced_aborts_total",
    ] {
        assert_eq!(prom_sum(&prom, name), 0, "{name} after a stop:\n{prom}");
    }
    let mut byte = [0u8; 1];
    assert_eq!(idle.read(&mut byte).expect("idle client reads EOF"), 0);
    assert_eq!(half.read(&mut byte).expect("half-frame client reads EOF"), 0);
}

#[test]
fn stop_wakes_every_handler_on_loopback() {
    stop_wakes_every_handler(ListenAddr::Tcp("127.0.0.1:0".into()));
}

#[test]
fn stop_wakes_every_handler_on_a_wildcard_bind() {
    stop_wakes_every_handler(ListenAddr::Tcp("0.0.0.0:0".into()));
}

#[test]
fn stop_wakes_every_handler_on_a_unix_socket() {
    stop_wakes_every_handler(ListenAddr::Unix(unix_path("stop")));
}

#[test]
fn stop_never_hangs_when_the_wake_up_connect_fails() {
    let path = unix_path("unreachable");
    let server = Server::start(
        &ListenAddr::Unix(path.clone()),
        ServerConfig { shards: 1, ..ServerConfig::default() },
    )
    .expect("bind");
    let mut idle = raw_connect(server.local_addr());
    let mut probe = Client::connect(server.local_addr()).expect("connect probe");
    probe.stats().expect("stats");
    // With its socket file gone, nothing can reach the listener again, so
    // stop's wake-up connect fails.
    std::fs::remove_file(&path).expect("remove socket file");

    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "stop took {took:?}");
    let mut byte = [0u8; 1];
    assert_eq!(idle.read(&mut byte).expect("idle client reads EOF"), 0);
}
