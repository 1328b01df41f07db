//! `arbalest` — command-line front end for the reproduction.
//!
//! ```text
//! arbalest list                          enumerate benchmarks & workloads
//! arbalest dracc <id|all> [options]      run DRACC benchmark(s)
//! arbalest spec <name|all> [options]     run a SPEC-like workload
//! arbalest fix <id|name|all>             synthesize verified mapping repairs
//! arbalest optimize <id|name|all>        minimize transfers, proving parity
//! arbalest certify <id|all>              Theorem-1 certification of DRACC
//! arbalest profile <id|all>              run DRACC under the detector and
//!                                        print a hot-path profile
//! arbalest explain <id> [--report N]     re-run with VSM provenance capture
//!                                        and print each report's causal chain
//! arbalest check-prom [file]             validate Prometheus text exposition
//! arbalest check-trace <file>            validate a Perfetto trace file
//! arbalest serve [options]               long-lived analysis service
//! arbalest submit <trace|id> [options]   analyse a trace on a server
//! arbalest record <id> -o <file>         capture a DRACC trace to a file
//! arbalest stats [options]               query server counters
//! arbalest stop [options]                drain and stop a server
//! arbalest store inspect <data-dir>      describe a durable data directory
//!
//! options:
//!   --tool arbalest|memcheck|archer|asan|msan   (repeatable; default arbalest)
//!   --preset test|small|medium                  (spec only; default test)
//!   --unified          unified-memory mode (§III-B)
//!   --serialize        Theorem-1 serialized nowait execution
//!   --team <n>         kernel team size (default 4)
//!   --quiet            suppress rendered reports
//!   --faults seed=N,rate=P   deterministic fault injection (rate in [0,1])
//! ```

use arbalest_baselines::by_name;
use arbalest_core::{certify, Arbalest, ArbalestConfig};
use arbalest_obs::{Registry, SpanEvent};
use arbalest_offload::json::{metrics_json, span_json, Json};
use arbalest_offload::prelude::*;
use arbalest_offload::trace::{TraceEvent, TraceRecorder};
use arbalest_offload::wire;
use arbalest_server::{Client, ListenAddr, Server, ServerConfig};
use arbalest_spec::Preset;
use arbalest_static::{analyze, Severity};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

// `print!` and `println!` that end the process quietly when stdout is
// closed (`arbalest dracc all | head -1`), where std's versions panic.
// They shadow the prelude macros for the rest of this file.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

/// Write to stdout. A reader that went away ends the process with the
/// status a shell gives a command that SIGPIPE killed (128 + 13).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
    Prom,
}

/// Every command's flags. A command reads the fields it needs and
/// ignores the rest.
struct Options {
    tools: Vec<String>,
    preset: Preset,
    unified: bool,
    serialize: bool,
    team: usize,
    quiet: bool,
    /// text|json for the report commands, text|prom for `stats`.
    format: OutputFormat,
    /// Fault injection: the runtime's for run-style commands, the
    /// workers' chaos plan for `serve`.
    faults: FaultConfig,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    no_metrics: bool,
    deny: Option<Severity>,
    seeds: u64,
    /// explain: which report of the case to explain (default: all).
    report: Option<usize>,
    /// fix/optimize: re-run both oracles on the patched program and
    /// include the differential verdict in the output.
    apply_check: bool,
    /// serve: bind address; submit/stats/stop: server address.
    addr: String,
    shards: usize,
    chunk: usize,
    /// record: output trace file.
    out: Option<String>,
    /// serve: per-session byte budget (`0` = unlimited).
    max_session_bytes: u64,
    /// serve: per-instance frame-size ceiling.
    max_frame: u32,
    /// serve: idle-connection reap timeout.
    idle_timeout: Duration,
    /// serve: per-request (frame-completion) deadline.
    request_deadline: Duration,
    /// serve: shutdown drain deadline.
    drain_deadline: Duration,
    /// submit: total client-side deadline per operation.
    deadline: Option<Duration>,
    /// serve: durable-session data directory (`None` = no durability).
    data_dir: Option<String>,
    /// serve: directory for per-session Perfetto trace files (`None` = no
    /// session keeps its spans, and nothing is written).
    trace_dir: Option<String>,
    /// submit: stamp batches with root span contexts (causal tracing).
    trace: bool,
    /// serve: snapshot a session after this many events (0 = off).
    snapshot_every_events: u64,
    /// serve: WAL fsync policy.
    fsync: arbalest_store::FsyncPolicy,
    /// submit: durable session id to resume instead of opening fresh.
    resume: Option<u64>,
    /// submit: stream only the first N events of the trace.
    take: Option<usize>,
    /// submit: leave the session open (no `Finish`) — crash-recovery
    /// drills resume it later.
    no_finish: bool,
}

/// Parse `seed=N,rate=P` (either key optional, any order) for `--faults`.
fn parse_faults(spec: &str) -> Result<FaultConfig, String> {
    let mut seed = 0u64;
    let mut rate = 0.0f64;
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some(("seed", v)) => {
                seed = v.parse().map_err(|_| format!("bad fault seed '{v}'"))?;
            }
            Some(("rate", v)) => {
                rate = v.parse().map_err(|_| format!("bad fault rate '{v}'"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("fault rate {rate} outside [0, 1]"));
                }
            }
            _ => return Err(format!("bad --faults component '{part}' (want seed=N,rate=P)")),
        }
    }
    Ok(FaultConfig::new(seed, rate))
}

fn usage() -> ExitCode {
    eprint!("{}", USAGE);
    ExitCode::from(2)
}

const USAGE: &str = "\
usage: arbalest <command> [options]
  list                       enumerate DRACC benchmarks and SPEC workloads
  dracc <id|all>             run DRACC benchmark(s) under the chosen tools
  spec <name|all>            run SPEC-like workload(s)
  lint <id|name|all>         static data-mapping analysis of a benchmark's
                             IR model (no execution)
  fuzz-lint                  differential soundness gate: generated
                             programs (--seeds) plus all DRACC IR models
                             run under both the static analyzer and the
                             dynamic detector; checks Must ⊆ dynamic and
                             dynamic ⊆ May, prints the precision ratio
  fix <id|name|all>          synthesize a verified mapping repair for each
                             statically convicted model: candidate patches
                             over the IR are ranked by size then modeled
                             transfer bytes and accepted only when both
                             the static re-check and the dynamic detector
                             come back clean (prints a unified IR diff)
  optimize <id|name|all>     delete or narrow provably redundant transfers
                             (tofrom -> to, dead updates, oversized
                             sections) while proving byte-identical
                             diagnostics before and after
  certify <id|all>           Theorem-1 certification of DRACC benchmark(s)
  profile <id|all>           run DRACC benchmark(s) under the arbalest
                             detector and print a hot-path profile
                             (--format json for a machine-readable one)
  explain <id>               re-run a DRACC benchmark with VSM provenance
                             capture and print, for each report, the causal
                             chain of validity-state edges that led to it
  check-prom [file]          validate Prometheus text exposition from a
                             file or stdin (conformance gate for scrapes)
  check-trace <file>         validate a Chrome/Perfetto trace file written
                             by serve --trace-dir (well-formedness gate)
  serve                      run the analysis service (see --listen, --shards)
  submit <trace-file|id>     stream a trace (or a DRACC benchmark's trace)
                             to a server and print its reports
  record <id> -o <file>      capture a DRACC benchmark's trace to a file
  stats                      print a server's counters
                             (--format prom for Prometheus text)
  stop                       drain and stop a server
  store inspect <data-dir>   describe a durable data directory: sessions,
                             WAL segments, snapshots, torn/corrupt tails
options:
  --listen <addr>            serve: bind address (host:port or unix:<path>;
                             default unix:/tmp/arbalest.sock)
  --connect <addr>           submit/stats/stop: server address
                             (default unix:/tmp/arbalest.sock)
  --shards <n>               serve: sessions analysed at once (default 4)
  --max-session-bytes <n>    serve: per-session memory budget, K/M/G suffix
                             ok (default 0 = unlimited); over budget a
                             session degrades, then fails typed
  --max-frame <n>            serve: frame-size ceiling, K/M/G suffix ok
                             (default 32M)
  --idle-timeout <secs>      serve: reap connections idle this long
                             (default 120)
  --request-deadline <secs>  serve: a started frame must complete within
                             this (default 30)
  --drain-deadline <secs>    serve: shutdown waits this long for in-flight
                             connections (default 10)
  --data-dir <dir>           serve: write-ahead log every accepted batch
                             under <dir>, so submit --resume can rebuild
                             an unfinished session (default: no durability)
  --trace-dir <dir>          serve: write each cleanly finished *traced*
                             session's span tree to <dir>/session-<id>.json
                             (Chrome/Perfetto JSON; untraced sessions write
                             nothing)
  --trace                    submit: stamp every batch with a fresh root
                             span context so the server records the causal
                             tree (client_submit -> wal_append/shard_job)
  --snapshot-every-events <n> serve: snapshot+compact after this many
                             events (default 0 = off)
  --fsync-policy <p>         serve: always | group[=bytes] | never
                             (default group=262144)
  --deadline <secs>          submit: total per-operation client deadline
                             (default none)
  --chunk <n>                submit: events per frame (default 1024)
  --resume <id>              submit: reattach to a durable session and
                             stream only the events past its recovered
                             count
  --take <n>                 submit: stream only the first n events
  --no-finish                submit: leave the session open (crash drills
                             resume it with --resume)
  -o <file>                  record: output trace file
  --tool <name>              arbalest|memcheck|archer|asan|msan (repeatable)
  --preset <p>               test|small|medium (spec only)
  --unified                  unified-memory mode
  --serialize                serialize nowait kernels (analysis schedule)
  --team <n>                 kernel team size
  --quiet                    summary only, no rendered reports
  --format text|json         report format for dracc/spec/lint/profile/
                             explain (default text); for stats: text|prom
  --report <n>               explain: explain only the n-th report
                             (0-based; default: all reports of the case)
  --faults seed=N,rate=P     deterministic fault injection (rate in [0,1])
  --deny may|must            lint: exit 3 when any diagnostic at or above
                             the given severity exists (may denies all)
  --seeds <n>                fuzz-lint: number of generated programs
                             (default 64)
  --apply-check              fix/optimize: independently re-run the
                             differential oracle (static + dynamic) on
                             each patched program and report its verdict
  --metrics-out <file>       dracc/spec/profile: write the metrics registry
                             as JSON after the run
  --trace-out <file>         dracc/spec/profile: write captured span events
                             as JSON lines after the run
  --no-metrics               dracc/spec: run with instrumentation disabled
";

/// Parse a byte count with an optional `K`/`M`/`G` suffix.
fn parse_bytes(v: &str) -> Option<u64> {
    let (num, mult) = match v.as_bytes().last()? {
        b'K' | b'k' => (&v[..v.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&v[..v.len() - 1], 1 << 20),
        b'G' | b'g' => (&v[..v.len() - 1], 1 << 30),
        _ => (v, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// Parse a duration given in (possibly fractional) seconds; negative,
/// NaN and unrepresentably large values are refused.
fn parse_secs(v: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(v.parse().ok()?).ok()
}

fn parse_num<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// The value after `flag`, run through `parse`; a missing or malformed
/// value is an error saying what the flag needs.
fn flag_value<T>(
    flag: &str,
    value: Option<&String>,
    needs: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    value.and_then(|v| parse(v)).ok_or_else(|| format!("{flag} needs {needs}"))
}

/// Parse `cmd`'s flags. Every command shares one flag set; a flag the
/// command does not read is accepted and ignored.
fn parse_options(cmd: &str, args: &[String]) -> Result<Options, String> {
    let server = ServerConfig::default();
    let mut o = Options {
        tools: Vec::new(),
        preset: Preset::Test,
        unified: false,
        serialize: false,
        team: 4,
        quiet: false,
        format: OutputFormat::Text,
        faults: FaultConfig::disabled(),
        metrics_out: None,
        trace_out: None,
        no_metrics: false,
        deny: None,
        seeds: 64,
        report: None,
        apply_check: false,
        addr: "unix:/tmp/arbalest.sock".into(),
        shards: 4,
        chunk: 1024,
        out: None,
        max_session_bytes: server.max_session_bytes,
        max_frame: server.max_frame,
        idle_timeout: server.idle_timeout,
        request_deadline: server.request_deadline,
        drain_deadline: server.drain_deadline,
        deadline: None,
        data_dir: None,
        trace_dir: None,
        trace: false,
        snapshot_every_events: 0,
        fsync: arbalest_store::FsyncPolicy::default(),
        resume: None,
        take: None,
        no_finish: false,
    };
    let path = |v: &str| Some(v.to_string());
    let bytes = "a byte count (K/M/G suffix ok)";
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--tool" => {
                let v = flag_value(flag, it.next(), "a tool name", path)?;
                if by_name(&v, &Registry::disabled()).is_none() {
                    return Err(format!("unknown tool '{v}'"));
                }
                o.tools.push(v);
            }
            "--preset" => {
                o.preset = flag_value(flag, it.next(), "test|small|medium", path)?.parse()?;
            }
            "--unified" => o.unified = true,
            "--serialize" => o.serialize = true,
            "--team" => o.team = flag_value(flag, it.next(), "a number", parse_num)?,
            "--quiet" => o.quiet = true,
            "--format" => {
                o.format = match it.next().map(String::as_str) {
                    Some("text") => OutputFormat::Text,
                    Some("json") => OutputFormat::Json,
                    Some("prom") => OutputFormat::Prom,
                    other => return Err(format!("bad --format {other:?} (want text|json|prom)")),
                };
            }
            "--faults" => {
                o.faults = parse_faults(&flag_value(flag, it.next(), "seed=N,rate=P", path)?)?;
            }
            "--metrics-out" => {
                o.metrics_out = Some(flag_value(flag, it.next(), "a file path", path)?);
            }
            "--trace-out" => o.trace_out = Some(flag_value(flag, it.next(), "a file path", path)?),
            "--no-metrics" => o.no_metrics = true,
            "--deny" => {
                o.deny = match it.next().map(String::as_str) {
                    Some("may") => Some(Severity::May),
                    Some("must") => Some(Severity::Must),
                    other => return Err(format!("bad --deny {other:?} (want may|must)")),
                };
            }
            "--seeds" => o.seeds = flag_value(flag, it.next(), "a number", parse_num)?,
            "--report" => o.report = Some(flag_value(flag, it.next(), "an index", parse_num)?),
            "--apply-check" => o.apply_check = true,
            "--listen" | "--connect" => o.addr = flag_value(flag, it.next(), "an address", path)?,
            "--shards" => o.shards = flag_value(flag, it.next(), "a number", parse_num)?,
            "--chunk" => o.chunk = flag_value(flag, it.next(), "a number", parse_num)?,
            "-o" => o.out = Some(flag_value(flag, it.next(), "a file path", path)?),
            "--max-session-bytes" => {
                o.max_session_bytes = flag_value(flag, it.next(), bytes, parse_bytes)?;
            }
            "--max-frame" => {
                let n = flag_value(flag, it.next(), bytes, parse_bytes)?;
                o.max_frame = u32::try_from(n).map_err(|_| "--max-frame too large")?;
            }
            "--idle-timeout" => {
                o.idle_timeout = flag_value(flag, it.next(), "seconds", parse_secs)?;
            }
            "--request-deadline" => {
                o.request_deadline = flag_value(flag, it.next(), "seconds", parse_secs)?;
            }
            "--drain-deadline" => {
                o.drain_deadline = flag_value(flag, it.next(), "seconds", parse_secs)?;
            }
            "--deadline" => o.deadline = Some(flag_value(flag, it.next(), "seconds", parse_secs)?),
            "--data-dir" => o.data_dir = Some(flag_value(flag, it.next(), "a directory", path)?),
            "--trace-dir" => o.trace_dir = Some(flag_value(flag, it.next(), "a directory", path)?),
            "--trace" => o.trace = true,
            "--snapshot-every-events" => {
                o.snapshot_every_events = flag_value(flag, it.next(), "a number", parse_num)?;
            }
            "--fsync-policy" => {
                o.fsync = flag_value(flag, it.next(), "always|group[=bytes]|never", path)?.parse()?;
            }
            "--resume" => o.resume = Some(flag_value(flag, it.next(), "a session id", parse_num)?),
            "--take" => o.take = Some(flag_value(flag, it.next(), "an event count", parse_num)?),
            "--no-finish" => o.no_finish = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    // `stats` takes text|prom, the other networked commands ignore
    // `--format`, and every other command takes text|json.
    let refused = match (cmd, o.format) {
        ("stats", OutputFormat::Json) => Some(("json", "text|prom")),
        ("stats" | "serve" | "submit" | "record" | "stop", _) => None,
        (_, OutputFormat::Prom) => Some(("prom", "text|json")),
        _ => None,
    };
    if let Some((format, want)) = refused {
        return Err(format!("{cmd} does not take --format {format} (want {want})"));
    }
    if o.tools.is_empty() {
        o.tools.push("arbalest".to_string());
    }
    if o.no_metrics && (o.metrics_out.is_some() || o.trace_out.is_some()) {
        return Err("--no-metrics conflicts with --metrics-out/--trace-out".into());
    }
    Ok(o)
}

fn runtime_for(opts: &Options, tool: &str, reg: &Registry) -> Runtime {
    let cfg = Config::default()
        .team_size(opts.team)
        .unified(opts.unified)
        .serialize(opts.serialize)
        .fault_config(opts.faults)
        .metrics(reg.clone());
    // The arbalest detector shares the command's registry so its VSM and
    // cache metrics land next to the runtime's; baselines have no metrics.
    Runtime::with_tool(cfg, by_name(tool, reg).expect("tool names are checked when parsed"))
}

/// Resolve a DRACC `<id|all>` target; `None` (after saying why) when the
/// id names no benchmark.
fn dracc_targets(target: &str) -> Option<Vec<arbalest_dracc::Benchmark>> {
    if target == "all" {
        return Some(arbalest_dracc::all());
    }
    let found = target.parse::<u32>().ok().and_then(arbalest_dracc::by_id);
    if found.is_none() {
        eprintln!("unknown benchmark id '{target}'");
    }
    found.map(|b| vec![b])
}

/// The registry a run-style command records into: enabled by default,
/// inert under `--no-metrics`.
fn registry_for(opts: &Options) -> Registry {
    if opts.no_metrics {
        Registry::disabled()
    } else {
        Registry::new()
    }
}

/// Honour `--metrics-out` (registry snapshot as one JSON document) and
/// `--trace-out` (one span event per line, JSONL). `spans` must be the
/// events already drained from `reg`'s flight recorder.
fn write_observability(
    reg: &Registry,
    spans: &[SpanEvent],
    opts: &Options,
) -> Result<(), String> {
    if let Some(path) = &opts.metrics_out {
        let doc = metrics_json(&reg.snapshot());
        std::fs::write(path, doc.emit() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_out {
        let mut out = String::new();
        for e in spans {
            out.push_str(&span_json(e).emit());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))?;
        let dropped = reg.dropped_spans();
        if dropped > 0 {
            eprintln!(
                "warning: flight recorder overwrote {dropped} span(s) during the run; \
                 {path} is incomplete (counted in arbalest_obs_dropped_spans_total)"
            );
        }
    }
    Ok(())
}

fn print_reports(rt: &Runtime, quiet: bool) -> usize {
    let reports = rt.reports();
    if !quiet {
        for r in &reports {
            print!("{}", r.render());
        }
    }
    reports.len()
}

fn cmd_list() -> ExitCode {
    println!("DRACC-like benchmarks:");
    for b in arbalest_dracc::all() {
        let effect = b.expected.map(|e| format!("{e}")).unwrap_or_else(|| "ok".into());
        println!("  {:<14} {:<6} {:<30} {}", b.dracc_id(), effect, b.name, b.description);
    }
    println!("\nSPEC-ACCEL-like workloads:");
    for w in arbalest_spec::workloads() {
        println!("  {:<12} ({})", w.name, w.spec_id);
    }
    ExitCode::SUCCESS
}

fn cmd_dracc(target: &str, opts: &Options) -> ExitCode {
    let Some(benches) = dracc_targets(target) else { return ExitCode::from(2) };
    let reg = registry_for(opts);
    let mut missed = 0usize;
    let mut results = Vec::new();
    for b in &benches {
        for tool in &opts.tools {
            let rt = runtime_for(opts, tool, &reg);
            b.run(&rt);
            let reports = rt.reports();
            let verdict = match b.expected {
                Some(e) => {
                    let hit = reports.iter().any(|r| r.kind.credits_effect(e));
                    if !hit {
                        missed += 1;
                    }
                    if hit { "DETECTED" } else { "missed" }
                }
                None => {
                    if !reports.is_empty() {
                        missed += 1;
                        "FALSE POSITIVE"
                    } else {
                        "clean"
                    }
                }
            };
            if opts.format == OutputFormat::Json {
                results.push(Json::obj(vec![
                    ("benchmark", Json::Str(b.dracc_id())),
                    ("tool", Json::Str(tool.clone())),
                    ("verdict", Json::Str(verdict.to_string())),
                    ("reports", Json::Arr(reports.iter().map(|r| r.to_json()).collect())),
                ]));
            } else {
                let n = print_reports(&rt, opts.quiet);
                println!("{:<14} {:<10} {:>3} report(s)  {}", b.dracc_id(), tool, n, verdict);
            }
        }
    }
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("dracc".into())),
            ("results", Json::Arr(results)),
        ]);
        println!("{}", doc.emit());
    }
    if let Err(e) = write_observability(&reg, &reg.drain_spans(), opts) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if missed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_spec(target: &str, opts: &Options) -> ExitCode {
    let workloads: Vec<_> = if target == "all" {
        arbalest_spec::workloads()
    } else {
        match arbalest_spec::by_name(target) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload '{target}'");
                return ExitCode::from(2);
            }
        }
    };
    let reg = registry_for(opts);
    let mut results = Vec::new();
    for w in &workloads {
        for tool in &opts.tools {
            let rt = runtime_for(opts, tool, &reg);
            let start = std::time::Instant::now();
            let sum = (w.run)(&rt, opts.preset);
            let wall = start.elapsed();
            if opts.format == OutputFormat::Json {
                let reports = rt.reports();
                results.push(Json::obj(vec![
                    ("workload", Json::Str(w.name.to_string())),
                    ("tool", Json::Str(tool.clone())),
                    ("checksum", Json::Num(sum)),
                    ("seconds", Json::Num(wall.as_secs_f64())),
                    ("reports", Json::Arr(reports.iter().map(|r| r.to_json()).collect())),
                ]));
            } else {
                let n = print_reports(&rt, opts.quiet);
                println!(
                    "{:<12} {:<10} {:>8.3}s  checksum {:>14.6}  {} report(s)",
                    w.name,
                    tool,
                    wall.as_secs_f64(),
                    sum,
                    n
                );
            }
        }
    }
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("spec".into())),
            ("results", Json::Arr(results)),
        ]);
        println!("{}", doc.emit());
    }
    if let Err(e) = write_observability(&reg, &reg.drain_spans(), opts) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One program to lint, with the ground-truth expectation for the exit
/// code: buggy DRACC models must draw at least one diagnostic, correct
/// ones (and the SPEC workloads) must stay silent.
struct LintItem {
    program: arbalest_ir::Program,
    bug_expected: bool,
}

fn lint_items(target: &str, opts: &Options) -> Result<Vec<LintItem>, String> {
    let dracc_item = |b: &arbalest_dracc::Benchmark| LintItem {
        program: arbalest_dracc::ir_models::ir_model(b.id).expect("model for every id"),
        bug_expected: b.expected.is_some(),
    };
    let spec_item = |name: &str| {
        arbalest_spec::ir_models::ir_model(name, opts.preset)
            .map(|program| LintItem { program, bug_expected: false })
    };
    if target == "all" {
        let mut items: Vec<LintItem> =
            arbalest_dracc::all().iter().map(dracc_item).collect();
        items.extend(
            arbalest_spec::workloads()
                .iter()
                .map(|w| spec_item(w.name).expect("model for every workload")),
        );
        return Ok(items);
    }
    // Qualified forms pin the namespace: `dracc/21`, `spec/pep`.
    if let Some(rest) = target.strip_prefix("dracc/") {
        return rest
            .parse::<u32>()
            .ok()
            .and_then(arbalest_dracc::by_id)
            .map(|b| vec![dracc_item(&b)])
            .ok_or_else(|| format!("'{rest}' is not a DRACC benchmark id"));
    }
    if let Some(rest) = target.strip_prefix("spec/") {
        return spec_item(rest)
            .map(|item| vec![item])
            .ok_or_else(|| format!("'{rest}' is not a SPEC workload name"));
    }
    if let Some(b) = target.parse::<u32>().ok().and_then(arbalest_dracc::by_id) {
        return Ok(vec![dracc_item(&b)]);
    }
    if let Some(item) = spec_item(target) {
        return Ok(vec![item]);
    }
    Err(format!("'{target}' is neither a DRACC benchmark id nor a workload name"))
}

fn cmd_lint(target: &str, opts: &Options) -> ExitCode {
    let items = match lint_items(target, opts) {
        Ok(items) => items,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut wrong = 0usize;
    let mut results = Vec::new();
    let (mut total_must, mut total_may) = (0usize, 0usize);
    for item in &items {
        let diags = analyze(&item.program);
        let must = diags.iter().filter(|d| d.severity == Severity::Must).count();
        let may = diags.len() - must;
        total_must += must;
        total_may += may;
        // A correct program must draw nothing; a seeded bug must draw at
        // least one diagnostic (the data-dependent cases only a `may`).
        let ok = if item.bug_expected { !diags.is_empty() } else { diags.is_empty() };
        if !ok {
            wrong += 1;
        }
        if opts.format == OutputFormat::Json {
            results.push(Json::obj(vec![
                ("program", Json::Str(item.program.name.clone())),
                ("bug_expected", Json::Bool(item.bug_expected)),
                ("must", Json::int(must as u64)),
                ("may", Json::int(may as u64)),
                (
                    "diagnostics",
                    Json::Arr(diags.iter().map(|d| d.to_report().to_json()).collect()),
                ),
            ]));
        } else {
            if !opts.quiet {
                for d in &diags {
                    print!("{}", d.to_report().render());
                }
            }
            let verdict = match (item.bug_expected, diags.is_empty()) {
                (true, false) => "FLAGGED",
                (true, true) => "missed",
                (false, true) => "clean",
                (false, false) => "FALSE POSITIVE",
            };
            println!(
                "{:<14} {:>2} must, {:>2} may  {}",
                item.program.name, must, may, verdict
            );
        }
    }
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("lint".into())),
            ("results", Json::Arr(results)),
        ]);
        println!("{}", doc.emit());
    }
    if wrong != 0 {
        return ExitCode::FAILURE;
    }
    // Exit-code policy: `--deny must` fails the run on any must-level
    // diagnostic, `--deny may` on any diagnostic at all (exit 3), so CI
    // can gate on "no findings" regardless of the expectation check.
    let denied = match opts.deny {
        Some(Severity::Must) => total_must > 0,
        Some(Severity::May) => total_must + total_may > 0,
        None => false,
    };
    if denied {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// `arbalest fuzz-lint`: the differential soundness gate. Generated
/// programs (`--seeds`) and all 56 DRACC IR models run through both the
/// static analyzer and the dynamic detector; every static `Must` needs a
/// dynamic confirmation and every dynamic report a static anticipation.
fn cmd_fuzz_lint(opts: &Options) -> ExitCode {
    use arbalest_static::differential::{check_program, check_seed, FuzzSummary};
    let mut cases = Vec::new();
    for seed in 0..opts.seeds {
        cases.push(check_seed(seed));
    }
    for b in arbalest_dracc::all() {
        let model = arbalest_dracc::ir_models::ir_model(b.id).expect("model for every id");
        cases.push(check_program(&b.dracc_id(), &model, &arbalest_ir::Binding::new()));
    }
    let mut summary = FuzzSummary::default();
    for c in &cases {
        summary.absorb(c);
    }
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("fuzz-lint".into())),
            ("seeds", Json::int(opts.seeds)),
            ("cases", Json::int(summary.cases as u64)),
            ("static_must", Json::int(summary.static_must as u64)),
            ("static_may", Json::int(summary.static_may as u64)),
            ("dynamic", Json::int(summary.dynamic as u64)),
            ("confirmed", Json::int(summary.confirmed as u64)),
            ("precision", Json::Num(summary.precision())),
            ("verdicts", Json::Arr(cases.iter().map(case_json).collect())),
            (
                "violations",
                Json::Arr(summary.violations.iter().map(|v| Json::Str(v.clone())).collect()),
            ),
        ]);
        println!("{}", doc.emit());
    } else {
        if !opts.quiet {
            for v in &summary.violations {
                println!("VIOLATION {v}");
            }
        }
        println!(
            "fuzz-lint: {} cases ({} seeds + DRACC), {} must / {} may static, \
             {} dynamic, {} confirmed, precision {:.2}: {}",
            summary.cases,
            opts.seeds,
            summary.static_must,
            summary.static_may,
            summary.dynamic,
            summary.confirmed,
            summary.precision(),
            if summary.ok() { "PASS" } else { "FAIL" },
        );
    }
    if summary.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One differential verdict as JSON — shared between `fuzz-lint
/// --format json` (the per-case `verdicts` array) and the `fix
/// --apply-check` re-verification of each patched program.
fn case_json(c: &arbalest_static::differential::CaseOutcome) -> Json {
    Json::obj(vec![
        ("name", Json::Str(c.name.clone())),
        ("static_must", Json::int(c.static_must as u64)),
        ("static_may", Json::int(c.static_may as u64)),
        ("dynamic", Json::int(c.dynamic as u64)),
        ("confirmed", Json::int(c.confirmed as u64)),
        ("ok", Json::Bool(c.ok())),
        (
            "violations",
            Json::Arr(c.violations.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
    ])
}

/// `arbalest fix`: synthesize a verified mapping repair for every
/// statically convicted model in the target set. A program counts as a
/// failure when the analyzer convicts it at `Must` but no candidate
/// patch clears both oracles, or when `--apply-check` re-verification
/// of an accepted patch disagrees.
fn cmd_fix(target: &str, opts: &Options) -> ExitCode {
    use arbalest_static::repair::synthesize_fix;
    let items = match lint_items(target, opts) {
        Ok(items) => items,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let binding = arbalest_ir::Binding::new();
    let mut wrong = 0usize;
    let mut results = Vec::new();
    for item in &items {
        let out = synthesize_fix(&item.program.name, &item.program, &binding);
        // `--apply-check`: re-run the full differential oracle on the
        // patched program, independently of the synthesis loop's own
        // acceptance test.
        let verdict = if opts.apply_check {
            let checked = out.patched.as_ref().unwrap_or(&item.program);
            Some(arbalest_static::differential::check_program(&out.name, checked, &binding))
        } else {
            None
        };
        let verified = verdict.as_ref().map(|v| v.ok());
        if !out.ok() || verified == Some(false) {
            wrong += 1;
        }
        if opts.format == OutputFormat::Json {
            let patch = match (&out.patch, &out.patched) {
                (Some(p), Some(_)) => {
                    p.to_json(&item.program).unwrap_or(Json::Null)
                }
                _ => Json::Null,
            };
            let mut fields = vec![
                ("program", Json::Str(out.name.clone())),
                ("baseline_must", Json::int(out.baseline_must as u64)),
                ("baseline_may", Json::int(out.baseline_may as u64)),
                ("repaired", Json::Bool(out.repaired())),
                ("candidates_tried", Json::int(out.candidates_tried as u64)),
                ("bytes_before", Json::int(out.bytes_before)),
                ("bytes_after", Json::int(out.bytes_after)),
                ("patch", patch),
                ("diff", Json::Str(out.diff.clone())),
            ];
            if let Some(v) = &verdict {
                fields.push(("verdict", case_json(v)));
            }
            results.push(Json::obj(fields));
        } else {
            if !opts.quiet && !out.diff.is_empty() {
                print!("{}", out.diff);
            }
            let status = if out.clean() {
                "clean".to_string()
            } else if out.repaired() {
                let patch = out.patch.as_ref().expect("repaired implies patch");
                format!(
                    "REPAIRED ({} edit{}, {} candidates, bytes {} -> {})",
                    patch.edits.len(),
                    if patch.edits.len() == 1 { "" } else { "s" },
                    out.candidates_tried,
                    out.bytes_before,
                    out.bytes_after,
                )
            } else {
                format!("UNREPAIRED ({} candidates exhausted)", out.candidates_tried)
            };
            let check = match verified {
                Some(true) => "  [apply-check: verified]",
                Some(false) => "  [apply-check: FAILED]",
                None => "",
            };
            println!(
                "{:<14} {:>2} must, {:>2} may  {status}{check}",
                out.name, out.baseline_must, out.baseline_may
            );
        }
    }
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("fix".into())),
            ("results", Json::Arr(results)),
        ]);
        println!("{}", doc.emit());
    }
    if wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `arbalest optimize`: delete or narrow provably redundant transfers
/// while holding the diagnostic surface fixed. Parity is enforced by
/// the engine (every accepted edit keeps static diagnostics
/// byte-identical and dynamic reports unchanged), so the command only
/// fails when `--apply-check` re-verification disagrees.
fn cmd_optimize(target: &str, opts: &Options) -> ExitCode {
    use arbalest_static::repair::minimize_transfers;
    let items = match lint_items(target, opts) {
        Ok(items) => items,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let binding = arbalest_ir::Binding::new();
    let mut wrong = 0usize;
    let mut results = Vec::new();
    let (mut total_before, mut total_after) = (0u64, 0u64);
    for item in &items {
        let out = minimize_transfers(&item.program.name, &item.program, &binding);
        total_before += out.bytes_before;
        total_after += out.bytes_after;
        let verdict = if opts.apply_check {
            Some(arbalest_static::differential::check_program(&out.name, &out.patched, &binding))
        } else {
            None
        };
        let verified = verdict.as_ref().map(|v| v.ok());
        if verified == Some(false) {
            wrong += 1;
        }
        if opts.format == OutputFormat::Json {
            let patch = out.patch.to_json(&item.program).unwrap_or(Json::Null);
            let mut fields = vec![
                ("program", Json::Str(out.name.clone())),
                ("bytes_before", Json::int(out.bytes_before)),
                ("bytes_after", Json::int(out.bytes_after)),
                ("saved", Json::int(out.saved())),
                ("edits", Json::int(out.patch.edits.len() as u64)),
                ("rounds", Json::int(out.rounds as u64)),
                ("patch", patch),
                ("diff", Json::Str(out.diff.clone())),
            ];
            if let Some(v) = &verdict {
                fields.push(("verdict", case_json(v)));
            }
            results.push(Json::obj(fields));
        } else {
            if !opts.quiet && !out.diff.is_empty() {
                print!("{}", out.diff);
            }
            let check = match verified {
                Some(true) => "  [apply-check: verified]",
                Some(false) => "  [apply-check: FAILED]",
                None => "",
            };
            println!(
                "{:<14} bytes {:>7} -> {:>7}  saved {:>7}  ({} edit{}, {} round{}){check}",
                out.name,
                out.bytes_before,
                out.bytes_after,
                out.saved(),
                out.patch.edits.len(),
                if out.patch.edits.len() == 1 { "" } else { "s" },
                out.rounds,
                if out.rounds == 1 { "" } else { "s" },
            );
        }
    }
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("optimize".into())),
            ("bytes_before", Json::int(total_before)),
            ("bytes_after", Json::int(total_after)),
            ("saved", Json::int(total_before - total_after)),
            ("results", Json::Arr(results)),
        ]);
        println!("{}", doc.emit());
    } else if items.len() > 1 {
        println!(
            "total          bytes {:>7} -> {:>7}  saved {:>7}",
            total_before,
            total_after,
            total_before - total_after
        );
    }
    if wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_certify(target: &str, opts: &Options) -> ExitCode {
    let Some(benches) = dracc_targets(target) else { return ExitCode::from(2) };
    let mut wrong = 0usize;
    for b in &benches {
        let cfg = Config::default().team_size(opts.team).unified(opts.unified);
        let cert = certify(cfg, |rt| b.run(rt));
        let expected_clean = b.expected.is_none();
        let ok = cert.certified() == expected_clean;
        if !ok {
            wrong += 1;
        }
        println!(
            "{:<14} certified={:<5} mapping_issues={:<3} races={:<3} {}",
            b.dracc_id(),
            cert.certified(),
            cert.mapping_issues.len(),
            cert.races.len(),
            if ok { "(as expected)" } else { "(UNEXPECTED)" }
        );
    }
    if wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_profile(target: &str, opts: &Options) -> ExitCode {
    let Some(benches) = dracc_targets(target) else { return ExitCode::from(2) };
    let reg = Registry::new();
    let start = std::time::Instant::now();
    let mut reports = 0usize;
    for b in &benches {
        // Fresh detector state per benchmark; the registry is shared, so
        // the profile aggregates the whole sweep.
        let rt = runtime_for(opts, "arbalest", &reg);
        b.run(&rt);
        reports += rt.reports().len();
    }
    let wall = start.elapsed();
    let spans = reg.drain_spans();
    if opts.format == OutputFormat::Json {
        // Same registry snapshot the text profile reads, as one document a
        // dashboard can ingest without scraping the table layout.
        let doc = Json::obj(vec![
            ("command", Json::Str("profile".into())),
            ("benchmarks", Json::int(benches.len() as u64)),
            ("reports", Json::int(reports as u64)),
            ("seconds", Json::Num(wall.as_secs_f64())),
            ("metrics", metrics_json(&reg.snapshot())),
            ("spans", Json::Arr(spans.iter().map(span_json).collect())),
        ]);
        println!("{}", doc.emit());
    } else {
        print_profile(&reg.snapshot(), &spans, benches.len(), reports, wall);
    }
    if let Err(e) = write_observability(&reg, &spans, opts) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Render the hot-path table `arbalest profile` prints: runtime phases by
/// total time, detector totals, and the hottest VSM transition edges.
fn print_profile(
    snap: &arbalest_obs::Snapshot,
    spans: &[SpanEvent],
    benches: usize,
    reports: usize,
    wall: std::time::Duration,
) {
    println!(
        "profiled {benches} benchmark(s) in {:.3}s  ({reports} report(s))",
        wall.as_secs_f64()
    );

    let phases = [
        ("target kernels", snap.histogram("arbalest_rt_target_nanos", &[])),
        ("entry maps", snap.histogram("arbalest_rt_map_nanos", &[("phase", "entry")])),
        ("exit maps", snap.histogram("arbalest_rt_map_nanos", &[("phase", "exit")])),
        ("update directives", snap.histogram("arbalest_rt_update_nanos", &[])),
    ];
    let mut rows: Vec<_> = phases.iter().filter_map(|(n, h)| h.as_ref().map(|h| (*n, *h))).collect();
    rows.sort_by_key(|(_, h)| std::cmp::Reverse(h.sum));
    println!("\nhot paths (runtime phases, by total time)");
    println!(
        "  {:<20} {:>10} {:>12} {:>11} {:>11}",
        "phase", "count", "total ms", "mean us", "max us"
    );
    for (name, h) in rows {
        println!(
            "  {:<20} {:>10} {:>12.3} {:>11.2} {:>11.2}",
            name,
            h.count,
            h.sum as f64 / 1e6,
            h.mean() / 1e3,
            h.max as f64 / 1e3
        );
    }

    let hit = |r| snap.counter("arbalest_detector_lookup_cache_total", &[("result", r)]);
    let (hits, misses) = (hit("hit").unwrap_or(0), hit("miss").unwrap_or(0));
    let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
    println!("\ndetector");
    println!("  accesses            {:>14}", snap.counter_sum("arbalest_detector_accesses_total"));
    println!(
        "  vsm transitions     {:>14}",
        snap.counter_sum("arbalest_detector_vsm_transition_pairs_total")
    );
    println!("  lookup cache        {:>13.1}% hit ({misses} miss(es))", rate * 100.0);
    println!(
        "  shadow CAS retries  {:>14}",
        snap.counter_sum("arbalest_detector_shadow_cas_retries_total")
    );
    if let Some(depth) = snap.histogram("arbalest_detector_lookup_depth", &[]) {
        println!(
            "  tree lookup depth   {:>9.1} mean, {} max ({} uncached lookup(s))",
            depth.mean(),
            depth.max,
            depth.count
        );
    }

    let mut edges: Vec<(String, u64)> = snap
        .counters_named("arbalest_detector_vsm_transition_pairs_total")
        .filter(|&(_, v)| v > 0)
        .map(|(labels, v)| {
            let get = |key: &str| {
                labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, val)| val.as_str())
                    .unwrap_or("?")
            };
            (format!("{} -> {}", get("from"), get("op")), v)
        })
        .collect();
    edges.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if !edges.is_empty() {
        println!("\nhottest VSM transition edges");
        for (edge, n) in edges.iter().take(8) {
            println!("  {:<32} {:>12}", edge, n);
        }
    }
    println!("\nflight recorder: {} span event(s) captured", spans.len());
}

/// `arbalest explain <id>`: re-run one DRACC benchmark with the detector's
/// VSM provenance capture enabled and print, for each report, the causal
/// chain of validity-state edges (oldest first) that carried the buffer
/// into the faulting state. The rendered report itself is byte-identical
/// to a default run — provenance rides alongside, never inside it.
fn cmd_explain(target: &str, opts: &Options) -> ExitCode {
    let Some(bench) = target.parse::<u32>().ok().and_then(arbalest_dracc::by_id) else {
        eprintln!("unknown benchmark id '{target}' (explain takes one DRACC id)");
        return ExitCode::from(2);
    };
    let reg = registry_for(opts);
    let cfg = Config::default()
        .team_size(opts.team)
        .unified(opts.unified)
        .serialize(opts.serialize)
        .metrics(reg.clone());
    let tool = Arc::new(Arbalest::with_registry(
        ArbalestConfig { provenance: true, ..ArbalestConfig::default() },
        reg.clone(),
    ));
    let rt = Runtime::with_tool(cfg, tool);
    bench.run(&rt);
    let reports = rt.reports();
    if reports.is_empty() {
        println!("{}: no reports — nothing to explain", bench.dracc_id());
        return ExitCode::SUCCESS;
    }
    let picked: Vec<(usize, _)> = match opts.report {
        Some(n) => match reports.get(n) {
            Some(r) => vec![(n, r)],
            None => {
                eprintln!(
                    "--report {n} out of range: {} produced {} report(s)",
                    bench.dracc_id(),
                    reports.len()
                );
                return ExitCode::from(2);
            }
        },
        None => reports.iter().enumerate().collect(),
    };
    if opts.format == OutputFormat::Json {
        let doc = Json::obj(vec![
            ("command", Json::Str("explain".into())),
            ("benchmark", Json::Str(bench.dracc_id())),
            ("reports", Json::Arr(picked.iter().map(|(_, r)| r.to_json()).collect())),
        ]);
        println!("{}", doc.emit());
        return ExitCode::SUCCESS;
    }
    for (i, r) in &picked {
        print!("{}", r.render());
        if r.provenance.is_empty() {
            println!("report {i}: no VSM provenance recorded for this report kind");
        } else {
            println!(
                "report {i}: causal VSM history ({} edge(s), oldest first)",
                r.provenance.len()
            );
            for (j, step) in r.provenance.iter().enumerate() {
                println!("  {:>2}. {}", j + 1, step.describe());
            }
        }
        println!();
    }
    println!(
        "{}: explained {} of {} report(s)",
        bench.dracc_id(),
        picked.len(),
        reports.len()
    );
    ExitCode::SUCCESS
}

/// `arbalest check-prom [file]`: run Prometheus text exposition (from a
/// file or stdin) through the conformance checker — the same gate the
/// exposition unit tests apply, available to shell pipelines so CI can
/// validate a live `stats --format prom` scrape.
fn cmd_check_prom(path: Option<&str>) -> ExitCode {
    let text = match path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("read {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("read stdin: {e}");
                return ExitCode::from(2);
            }
            buf
        }
    };
    match arbalest_obs::check_exposition(&text) {
        Ok(s) => {
            println!(
                "prometheus exposition OK: {} familie(s), {} sample(s), {} histogram(s) verified",
                s.families, s.samples, s.histograms
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("prometheus exposition INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validate one Chrome/Perfetto trace-event document: the `traceEvents`
/// envelope, per-event required fields, and the causal-id hex encoding on
/// every slice. Returns (slices, distinct trace ids, root spans).
fn check_trace_text(text: &str) -> Result<(usize, usize, usize), String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array at the top level")?;
    let is_hex = |s: &str, width: usize| {
        s.len() == width && s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    };
    let mut slices = 0usize;
    let mut traces = std::collections::BTreeSet::new();
    let mut roots = 0usize;
    for (i, e) in events.iter().enumerate() {
        e.get("name").and_then(Json::as_str).ok_or(format!("event {i}: missing name"))?;
        e.get("pid").and_then(Json::as_u64).ok_or(format!("event {i}: missing pid"))?;
        let ph = e.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: missing ph"))?;
        match ph {
            "M" => {} // process/thread metadata carries no timing or args
            "X" => {
                e.get("tid")
                    .and_then(Json::as_u64)
                    .ok_or(format!("event {i}: slice missing tid"))?;
                for key in ["ts", "dur"] {
                    match e.get(key) {
                        Some(Json::Num(_)) => {}
                        _ => return Err(format!("event {i}: slice missing numeric {key}")),
                    }
                }
                let args = e.get("args").ok_or(format!("event {i}: slice missing args"))?;
                let field = |k: &str, width: usize| {
                    let v = args
                        .get(k)
                        .and_then(Json::as_str)
                        .ok_or(format!("event {i}: args.{k} missing"))?;
                    if !is_hex(v, width) {
                        return Err(format!(
                            "event {i}: args.{k} '{v}' is not {width}-digit lowercase hex"
                        ));
                    }
                    Ok(v.to_string())
                };
                let trace = field("trace", 32)?;
                field("span", 16)?;
                let parent = field("parent", 16)?;
                if trace.bytes().all(|b| b == b'0') {
                    return Err(format!("event {i}: zero trace id on a slice"));
                }
                slices += 1;
                traces.insert(trace);
                if parent.bytes().all(|b| b == b'0') {
                    roots += 1;
                }
            }
            other => return Err(format!("event {i}: unexpected ph '{other}' (want X or M)")),
        }
    }
    if slices == 0 {
        return Err("no ph:\"X\" slices in traceEvents".into());
    }
    Ok((slices, traces.len(), roots))
}

/// `arbalest check-trace <file>`: well-formedness gate for the trace files
/// `serve --trace-dir` writes, so CI smoke tests can assert the causal
/// tree landed without hand-parsing JSON.
fn cmd_check_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match check_trace_text(&text) {
        Ok((slices, traces, roots)) => {
            println!(
                "{path}: perfetto trace OK: {slices} slice(s) across {traces} trace id(s), \
                 {roots} root span(s)"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID perfetto trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why `record`/`submit` could not obtain a benchmark trace. Typed so the
/// caller can name the offending id in its message and pick the
/// usage-error exit code (2) over the runtime-failure one.
#[derive(Debug, PartialEq, Eq)]
enum RecordError {
    /// The argument parsed as a number but names no benchmark in the
    /// DRACC table.
    UnknownBenchmark {
        /// The id that matched nothing.
        id: u32,
    },
    /// The argument is not a numeric benchmark id at all.
    NotABenchmarkId {
        /// The argument as given.
        arg: String,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::UnknownBenchmark { id } => {
                write!(f, "no DRACC benchmark with id {id} (see `arbalest list`)")
            }
            RecordError::NotABenchmarkId { arg } => {
                write!(f, "'{arg}' is not a DRACC benchmark id")
            }
        }
    }
}

/// Run a DRACC benchmark under the trace recorder and return its events.
fn record_dracc(id: u32) -> Result<Vec<TraceEvent>, RecordError> {
    let bench = arbalest_dracc::by_id(id).ok_or(RecordError::UnknownBenchmark { id })?;
    let recorder = Arc::new(TraceRecorder::new());
    let rt = Runtime::with_tool(Config::default(), recorder.clone());
    bench.run(&rt);
    Ok(recorder.take())
}

/// Parse-then-record: the full typed path from a command-line argument to
/// a trace.
fn record_dracc_arg(target: &str) -> Result<Vec<TraceEvent>, RecordError> {
    let id = target
        .parse::<u32>()
        .map_err(|_| RecordError::NotABenchmarkId { arg: target.to_string() })?;
    record_dracc(id)
}

/// Resolve `submit`'s positional argument: an existing trace file, or a
/// DRACC benchmark id whose trace is recorded on the spot.
fn load_events(target: &str) -> Result<Vec<TraceEvent>, String> {
    if std::path::Path::new(target).is_file() {
        let bytes = std::fs::read(target).map_err(|e| format!("read {target}: {e}"))?;
        return wire::decode_trace(&bytes).map_err(|e| format!("decode {target}: {e}"));
    }
    record_dracc_arg(target).map_err(|e| match e {
        RecordError::NotABenchmarkId { arg } => {
            format!("'{arg}' is neither a trace file nor a DRACC benchmark id")
        }
        unknown => unknown.to_string(),
    })
}

fn cmd_serve(opts: &Options) -> ExitCode {
    let addr = ListenAddr::parse(&opts.addr);
    let cfg = ServerConfig {
        shards: opts.shards,
        max_session_bytes: opts.max_session_bytes,
        max_frame: opts.max_frame,
        idle_timeout: opts.idle_timeout,
        request_deadline: opts.request_deadline,
        drain_deadline: opts.drain_deadline,
        faults: opts.faults,
        data_dir: opts.data_dir.clone().map(std::path::PathBuf::from),
        trace_dir: opts.trace_dir.clone().map(std::path::PathBuf::from),
        store: arbalest_store::StoreConfig {
            fsync: opts.fsync,
            snapshot_every_events: opts.snapshot_every_events,
            ..arbalest_store::StoreConfig::default()
        },
        ..ServerConfig::default()
    };
    match Server::start(&addr, cfg) {
        Ok(server) => {
            if let Some(dir) = &opts.trace_dir {
                println!("arbalest-serve tracing finished sessions into {dir}");
            }
            match &opts.data_dir {
                Some(dir) => println!(
                    "arbalest-serve listening on {} ({} shards, durable in {dir}, fsync {})",
                    server.local_addr(),
                    opts.shards,
                    opts.fsync
                ),
                None => println!(
                    "arbalest-serve listening on {} ({} shards)",
                    server.local_addr(),
                    opts.shards
                ),
            }
            server.wait_for_shutdown();
            server.stop();
            println!("arbalest-serve drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn connect(opts: &Options) -> Result<Client, String> {
    let addr = ListenAddr::parse(&opts.addr);
    let client = Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    Ok(match opts.deadline {
        Some(d) => client.with_deadline(d),
        None => client,
    })
}

fn cmd_submit(target: &str, opts: &Options) -> ExitCode {
    let events = match load_events(target) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = connect(opts).and_then(|mut client| {
        if opts.trace {
            // The registry's own spans are discarded on exit; what matters
            // is the contexts stamped on the wire, which the server records
            // into its flight recorder (and --trace-dir file, if configured).
            client = client.with_tracing(Registry::new());
        }
        // How far the session already got: 0 for a fresh one, the durable
        // record's event count when resuming. Stream only past that point.
        let (id, skip) = match opts.resume {
            None => (client.hello().map_err(|e| e.to_string())?, 0),
            Some(id) => {
                let done = client.resume(id).map_err(|e| format!("resume session {id}: {e}"))?;
                if done > events.len() as u64 {
                    return Err(format!(
                        "session {id} already holds {done} event(s) but the trace has only {}",
                        events.len()
                    ));
                }
                eprintln!(
                    "resuming session {id}: {done} event(s) already durable, sending {}",
                    events.len() as u64 - done
                );
                (id, done as usize)
            }
        };
        let end = opts.take.map_or(events.len(), |n| n.clamp(skip, events.len()));
        client.send_all(&events[skip..end], opts.chunk).map_err(|e| e.to_string())?;
        if opts.no_finish {
            Ok((id, end, None))
        } else {
            client.finish().map(|reports| (id, end, Some(reports))).map_err(|e| e.to_string())
        }
    });
    match result {
        Ok((id, sent, None)) => {
            println!(
                "{}: session {} left open, {} of {} event(s) streamed",
                target,
                id,
                sent,
                events.len()
            );
            ExitCode::SUCCESS
        }
        Ok((_, _, Some(reports))) => {
            if !opts.quiet {
                for r in &reports {
                    print!("{}", r.render());
                }
            }
            println!("{}: {} event(s), {} report(s)", target, events.len(), reports.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_record(target: &str, opts: &Options) -> ExitCode {
    let Some(out) = &opts.out else {
        eprintln!("record needs -o <file>");
        return ExitCode::from(2);
    };
    let events = match record_dracc_arg(target) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match std::fs::write(out, wire::encode_trace(&events)) {
        Ok(()) => {
            println!("{}: {} event(s) -> {}", target, events.len(), out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_stats(opts: &Options) -> ExitCode {
    if opts.format == OutputFormat::Prom {
        // The Prometheus export reads the same registry cells the binary
        // STATS snapshot does; print it verbatim for scrapers.
        return match connect(opts).and_then(|mut c| c.metrics().map_err(|e| e.to_string())) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = connect(opts).and_then(|mut c| c.stats().map_err(|e| e.to_string()));
    match result {
        Ok(s) => {
            println!(
                "sessions: {} started, {} finished, {} active",
                s.sessions_started,
                s.sessions_finished,
                s.sessions_active()
            );
            println!("events received: {}", s.events_received);
            for (kind, n) in ReportKind::ALL.iter().zip(s.reports_by_kind) {
                if n > 0 {
                    println!("reports[{}]: {n}", kind.label());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `arbalest store inspect <data-dir>`: describe every unfinished session
/// — WAL segments, decoded event counts, snapshots, and any torn or
/// corrupt tail — without modifying anything (scan only, no repair).
fn cmd_store_inspect(dir: &str) -> ExitCode {
    let root = std::path::Path::new(dir);
    let store = match arbalest_store::Store::open(
        root,
        arbalest_store::StoreConfig::default(),
        &Registry::disabled(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ids = match store.session_ids() {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("list sessions in {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ids.is_empty() {
        println!("{dir}: no unfinished sessions");
        return ExitCode::SUCCESS;
    }
    let file_len = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let mut damaged = false;
    for id in ids {
        let sdir = store.session_dir(id);
        println!("session {id}");
        match arbalest_store::wal::list_segments(&sdir) {
            Ok(segments) => {
                for (start, path) in &segments {
                    println!(
                        "  segment wal-{start:020}.log  first event {start}, {} byte(s)",
                        file_len(path)
                    );
                }
            }
            Err(e) => println!("  cannot list segments: {e}"),
        }
        match store.latest_snapshot(id) {
            Ok(Some(snap)) => println!("  snapshot: {} event(s) captured", snap.events),
            Ok(None) => println!("  snapshot: none"),
            Err(e) => println!("  snapshot: unreadable ({e})"),
        }
        // Scan only (repair=false): inspect never mutates the directory.
        match arbalest_store::read_wal(&sdir, false) {
            Ok(replay) => {
                println!(
                    "  wal: {} event(s) in {} record(s), events {}..{}",
                    replay.events.len(),
                    replay.records,
                    replay.first_event,
                    replay.first_event + replay.events.len() as u64
                );
                if replay.torn || replay.corrupt {
                    damaged = true;
                    println!(
                        "  tail: {}{} — {} byte(s) would be discarded on recovery",
                        if replay.torn { "torn " } else { "" },
                        if replay.corrupt { "corrupt" } else { "" },
                        replay.truncated_bytes
                    );
                }
            }
            Err(e) => {
                damaged = true;
                println!("  wal: unreadable ({e})");
            }
        }
    }
    if damaged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_stop(opts: &Options) -> ExitCode {
    let result = connect(opts).and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
    match result {
        Ok(()) => {
            println!("server acknowledged shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else { return usage() };
    // Commands that take flags: the ones with a positional target parse
    // the flags after it.
    let flags = match cmd {
        "serve" | "stats" | "stop" | "fuzz-lint" => &args[1..],
        "dracc" | "spec" | "lint" | "fix" | "optimize" | "certify" | "profile" | "explain"
        | "submit" | "record" => {
            if args.len() < 2 {
                return usage();
            }
            &args[2..]
        }
        "list" => return cmd_list(),
        "store" => {
            let (Some(action), Some(dir)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: arbalest store inspect <data-dir>\n");
                return usage();
            };
            return match action.as_str() {
                "inspect" => cmd_store_inspect(dir),
                other => {
                    eprintln!("unknown store action '{other}' (want inspect)\n");
                    usage()
                }
            };
        }
        "check-prom" => return cmd_check_prom(args.get(1).map(String::as_str)),
        "check-trace" => {
            let Some(path) = args.get(1) else {
                eprintln!("check-trace needs a trace file\n");
                return usage();
            };
            return cmd_check_trace(path);
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command '{other}'\n");
            return usage();
        }
    };
    let opts = match parse_options(cmd, flags) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    let target = args.get(1).map_or("", String::as_str);
    match cmd {
        "serve" => cmd_serve(&opts),
        "stats" => cmd_stats(&opts),
        "stop" => cmd_stop(&opts),
        "fuzz-lint" => cmd_fuzz_lint(&opts),
        "dracc" => cmd_dracc(target, &opts),
        "spec" => cmd_spec(target, &opts),
        "lint" => cmd_lint(target, &opts),
        "fix" => cmd_fix(target, &opts),
        "optimize" => cmd_optimize(target, &opts),
        "certify" => cmd_certify(target, &opts),
        "profile" => cmd_profile(target, &opts),
        "explain" => cmd_explain(target, &opts),
        "submit" => cmd_submit(target, &opts),
        _ => cmd_record(target, &opts),
    }
}
