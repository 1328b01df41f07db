//! The repository benchmark: four seeded workloads against the public
//! APIs of `offload`, `core`, `server`, `store` and `staticcheck`.
//!
//! ```text
//! perfbench --workload <dracc-sweep|spec-stream|serve-replay|static-fuzz>
//!           --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and the tracing overhead. Human-readable lines come first;
//! the last line of standard output is one JSON object. See README.md.

mod fuzz;
mod known;
mod live;
mod micro;
mod serve;
mod stats;
mod timing;

use live::LiveOpts;
use stats::{quantile, Metrics, Rng, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Kernel team size: the machine this benchmark was sized on has 2 vCPUs.
pub const TEAM: usize = 2;
/// spec-stream rounds before the timed loop may stop: `late_early_ratio`
/// needs a first and a last round.
const SPEC_MIN_ROUNDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Seconds each secondary layer probe of a traced run takes.
const PROBE_S: f64 = 1.5;

const WORKLOADS: [&str; 4] = ["dracc-sweep", "spec-stream", "serve-replay", "static-fuzz"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Run `f` `SETUPS` times; returns the median wall time and the last result.
fn set_up<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// (ops/s, p50 ms, p99 ms) over a whole run of `secs`.
fn overall(op_ms: &[f64], secs: f64) -> (f64, f64, f64) {
    (
        op_ms.len() as f64 / secs,
        quantile(op_ms, 0.5),
        quantile(op_ms, 0.99),
    )
}

/// A sequential loop's windowed figures (`stats::windowed`); the
/// whole-run figures are printed beside them.
fn sequential(op_ms: &[f64], ends: &[f64], extras: &mut Metrics) -> (f64, f64, f64) {
    let (rate, p50, p99) = overall(op_ms, ends.last().copied().unwrap_or(f64::NAN));
    extras.put("whole_run.ops_per_s", "ops/s", rate);
    extras.put("whole_run.op_ms_p50", "ms", p50);
    extras.put("whole_run.op_ms_p99", "ms", p99);
    stats::windowed(op_ms, ends)
}

/// Outcome of an untraced run.
struct E2e {
    setup_s: f64,
    /// `ops_per_s`, `op_ms_p50` and `op_ms_p99`.
    figures: (f64, f64, f64),
    ops: usize,
    tally: Tally,
    /// Workload-specific end-to-end figures, printed but not in the JSON.
    extras: Metrics,
}

fn dracc_sweep(seed: u64, secs: f64) -> E2e {
    let mut opts = LiveOpts {
        secs: 0.0,
        min_rounds: 1,
        races: true,
        native: false,
    };
    let (setup_s, progs) = set_up(|| {
        let progs = live::dracc_progs();
        live::run(&progs, &mut Rng::new(seed), &opts, None, None);
        progs
    });
    opts.secs = secs;
    let out = live::run(&progs, &mut Rng::new(seed), &opts, None, None);
    let mut extras = Metrics::default();
    extras.put("rounds", "count", out.rounds.len() as f64);
    E2e {
        setup_s,
        figures: sequential(&out.op_ms, &out.op_end_s, &mut extras),
        ops: out.op_ms.len(),
        tally: out.tally,
        extras,
    }
}

fn spec_stream(seed: u64, secs: f64) -> E2e {
    let (setup_s, long) = set_up(|| live::Long::aged(None, true));
    let progs = live::spec_progs(arbalest_spec::Preset::Small);
    let opts = LiveOpts {
        secs,
        min_rounds: SPEC_MIN_ROUNDS,
        races: true,
        native: true,
    };
    let out = live::run(&progs, &mut Rng::new(seed), &opts, None, Some(&long));
    let arb_s = out.arb_s();
    let mut extras = Metrics::default();
    extras.put(
        "accesses_per_s",
        "accesses/s",
        out.accesses() as f64 / arb_s,
    );
    extras.put("slowdown_x", "x", out.slowdown());
    extras.put("late_early_ratio", "x", out.late_early());
    extras.put(
        "tool_mb",
        "MiB",
        out.max_tool_bytes as f64 / (1 << 20) as f64,
    );
    extras.put("rounds", "count", out.rounds.len() as f64);
    // The op is one round of the four programs: each round does the same
    // work, where single programs differ by 5x. Every round is paired
    // with uninstrumented runs for `slowdown_x`, so `ops_per_s` counts
    // the instrumented side only.
    let op_ms: Vec<f64> = out.rounds.iter().map(|r| r.arb_ns as f64 / 1e6).collect();
    E2e {
        setup_s,
        figures: overall(&op_ms, arb_s),
        ops: op_ms.len(),
        tally: out.tally,
        extras,
    }
}

/// The traces serve-replay submits: 56 DRACC programs and the four
/// SPEC-like programs at preset `test`.
fn serve_corpus() -> Vec<serve::Trace> {
    let mut progs = live::dracc_progs();
    progs.extend(live::spec_progs(arbalest_spec::Preset::Test));
    serve::record(&progs)
}

fn serve_replay(seed: u64, secs: f64, dir: &Path) -> E2e {
    let (setup_s, (traces, server)) = set_up(|| {
        let traces = serve_corpus();
        let server = serve::start(dir, arbalest_obs::Registry::disabled());
        // Warm-up: a few sessions before timing starts.
        let addr = server.local_addr();
        for t in traces.iter().take(4) {
            let mut client = arbalest_server::Client::connect(addr).expect("connect");
            client.submit(&t.events).expect("warm-up session");
        }
        (traces, server)
    });
    let out = serve::run(&server.local_addr().clone(), &traces, seed, secs, None);
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
    let mut extras = Metrics::default();
    extras.put("events_per_s", "events/s", out.events as f64 / out.wall_s);
    extras.put(
        "accesses_per_s",
        "accesses/s",
        out.accesses as f64 / out.wall_s,
    );
    E2e {
        setup_s,
        // Two clients overlap their sessions: figures over the whole run.
        figures: overall(&out.op_ms, out.wall_s),
        ops: out.op_ms.len(),
        tally: out.tally,
        extras,
    }
}

fn static_fuzz(seed: u64, secs: f64) -> E2e {
    let (setup_s, set) = set_up(|| {
        let set = fuzz::build();
        fuzz::warm_up(&set);
        set
    });
    let out = fuzz::run(&set, &mut Rng::new(seed), secs, 1);
    let mut extras = Metrics::default();
    extras.put("programs", "count", set.ops.len() as f64);
    E2e {
        setup_s,
        figures: sequential(&out.op_ms, &out.op_end_s, &mut extras),
        ops: out.op_ms.len(),
        tally: out.tally,
        extras,
    }
}

fn end_to_end(a: &Args, dir: &Path) -> (Tally, Metrics, Metrics) {
    let e = match a.workload.as_str() {
        "dracc-sweep" => dracc_sweep(a.seed, a.seconds),
        "spec-stream" => spec_stream(a.seed, a.seconds),
        "serve-replay" => serve_replay(a.seed, a.seconds, dir),
        _ => static_fuzz(a.seed, a.seconds),
    };
    let mut m = Metrics::default();
    let (ops_per_s, p50, p99) = e.figures;
    m.put("setup_s", "s", e.setup_s);
    m.put("ops_per_s", "ops/s", ops_per_s);
    m.put("op_ms_p50", "ms", p50);
    m.put("op_ms_p99", "ms", p99);
    let mut extras = e.extras;
    extras.put("ops", "count", e.ops as f64);
    extras.put("error_rate", "fraction", e.tally.error_rate());
    (e.tally, m, extras)
}

/// The traced run: the workload's own loop untraced then traced (the
/// difference is the tracing overhead, and the traced half gives the
/// rows of the layers it exercises), then short probes of the other
/// layers and the isolated rows.
fn traced(a: &Args, dir: &Path) -> (Tally, Metrics, Metrics) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let half = a.seconds / 2.0;
    let mut rng = Rng::new(a.seed);
    let traces = serve_corpus();
    let w = a.workload.as_str();
    let live_loop = w == "dracc-sweep" || w == "spec-stream";
    // (untraced, traced) ops per second of the workload's own loop.
    let (untraced_ops_s, traced_ops_s) = if live_loop {
        let spec = w == "spec-stream";
        let progs = if spec {
            live::spec_progs(arbalest_spec::Preset::Small)
        } else {
            live::dracc_progs()
        };
        let long = spec.then(|| live::Long::aged(None, true));
        // As the end-to-end run: only spec-stream pairs native runs. The
        // traced half pairs both, for `offload.native_ns_per_access`, so
        // the overhead compares instrumented time only.
        let opts = LiveOpts {
            secs: half,
            min_rounds: 1,
            races: true,
            native: spec,
        };
        let u = live::run(&progs, &mut rng, &opts, None, long.as_ref());
        drop(long);
        let t = live::layer_rows(&progs, spec, half, &mut rng, &mut m);
        tally.absorb(u.tally);
        tally.absorb(t.tally);
        (
            u.op_ms.len() as f64 / u.arb_s(),
            t.op_ms.len() as f64 / t.arb_s(),
        )
    } else if w == "serve-replay" {
        let server = serve::start(dir, arbalest_obs::Registry::disabled());
        let u = serve::run(&server.local_addr().clone(), &traces, a.seed, half, None);
        server.stop();
        let t = serve::layer_rows(&traces, dir, a.seed, half, &mut m);
        tally.absorb(u.tally);
        tally.absorb(t.tally);
        (
            u.op_ms.len() as f64 / u.wall_s,
            t.op_ms.len() as f64 / t.wall_s,
        )
    } else {
        let set = fuzz::build();
        let u = fuzz::run(&set, &mut rng, half, 1);
        let t = fuzz::layer_rows(&set, a.seed, half, &mut rng, &mut m);
        tally.absorb(u.tally);
        tally.absorb(t.tally);
        (
            u.op_ms.len() as f64 / u.wall_s,
            t.op_ms.len() as f64 / t.wall_s,
        )
    };
    m.put(
        "trace.overhead_pct",
        "%",
        (untraced_ops_s / traced_ops_s - 1.0) * 100.0,
    );
    if !live_loop {
        let probe = live::layer_rows(&live::dracc_progs(), false, PROBE_S, &mut rng, &mut m);
        tally.absorb(probe.tally);
    }
    if w != "serve-replay" {
        tally.absorb(serve::layer_rows(&traces, dir, a.seed, PROBE_S, &mut m).tally);
    }
    if w != "static-fuzz" {
        let set = fuzz::build();
        tally.absorb(fuzz::layer_rows(&set, a.seed, PROBE_S, &mut rng, &mut m).tally);
    }
    micro::rows(&traces, dir, &mut m);
    micro::explained_share(&mut m);
    let mut notes = Metrics::default();
    notes.put("ops", "count", tally.attempted as f64);
    notes.put("error_rate", "fraction", tally.error_rate());
    (tally, m, notes)
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest digits that read back as the same f64.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = known::self_test() {
        eprintln!("perfbench: known-answer self-test failed: {e}");
        std::process::exit(1);
    }
    let dir = args.scratch.join(format!("run-{}", std::process::id()));
    let (tally, metrics, notes) = if args.trace {
        traced(&args, &dir)
    } else {
        end_to_end(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "workload {} seed {} seconds {} trace {} (team {TEAM}, {} CPU(s))",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, unit, value) in metrics.0.iter().chain(&notes.0) {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
