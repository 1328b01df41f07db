//! Programs run live on the offloading runtime: the `dracc-sweep` and
//! `spec-stream` workloads, and the runtime/detector layer rows.

use crate::known;
use crate::stats::{hist_quantile, median, Metrics, Rng, Tally};
use crate::timing::{TimingTool, Timings};
use crate::TEAM;
use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;
use arbalest_spec::Preset;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// One program the runtime executes.
pub enum Prog {
    Dracc(arbalest_dracc::Benchmark),
    Spec(arbalest_spec::Workload, Preset),
}

impl Prog {
    /// Run on `rt`; returns the program's checksum (0 when it has none).
    pub fn run(&self, rt: &Runtime) -> f64 {
        match self {
            Prog::Dracc(b) => {
                b.run(rt);
                0.0
            }
            Prog::Spec(w, preset) => (w.run)(rt, *preset),
        }
    }

    /// Check one run against the known answer. `reports` are the reports
    /// this run added; `native` is the paired uninstrumented run's
    /// checksum, which a SPEC-like program needs: unpaired, it fails.
    pub fn check(&self, reports: &[Report], checksum: f64, native: Option<f64>) -> bool {
        match self {
            Prog::Dracc(b) => known::dracc_ok(known::table3(b.id), b.expected, reports),
            Prog::Spec(..) => native.is_some_and(|n| known::spec_ok(checksum, n, reports.len())),
        }
    }
}

pub fn dracc_progs() -> Vec<Prog> {
    arbalest_dracc::all().into_iter().map(Prog::Dracc).collect()
}

/// The four access-heavy SPEC-like programs; `pep` makes 14 tracked
/// accesses and would only time its compute loop.
pub fn spec_progs(preset: Preset) -> Vec<Prog> {
    arbalest_spec::workloads()
        .into_iter()
        .filter(|w| w.name != "pep")
        .map(|w| Prog::Spec(w, preset))
        .collect()
}

/// What the traced run attaches: one shared registry and the callback
/// timings of every wrapped detector.
pub struct Tracer {
    pub reg: Registry,
    pub timings: Arc<Timings>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            reg: Registry::new(),
            timings: Arc::default(),
        }
    }
}

/// A detector attached to a fresh runtime (team `TEAM`). Untraced, the
/// detector keeps its private registry, as `Arbalest::new` does.
fn instrumented(tracer: Option<&Tracer>, races: bool) -> (Arc<Arbalest>, Runtime) {
    let cfg = ArbalestConfig {
        check_races: races,
        ..ArbalestConfig::default()
    };
    let rt_cfg = Config::default().team_size(TEAM);
    match tracer {
        None => {
            let tool = Arc::new(Arbalest::new(cfg));
            (tool.clone(), Runtime::with_tool(rt_cfg, tool))
        }
        Some(t) => {
            let tool = Arc::new(Arbalest::with_registry(cfg, t.reg.clone()));
            let wrapped = Arc::new(TimingTool::new(tool.clone(), t.timings.clone()));
            (
                tool,
                Runtime::with_tool(rt_cfg.metrics(t.reg.clone()), wrapped),
            )
        }
    }
}

fn bare() -> Runtime {
    Runtime::new(Config::default().team_size(TEAM))
}

/// spec-stream's one long-lived detector and runtime, with an
/// uninstrumented runtime beside it for the paired runs.
pub struct Long {
    tool: Arc<Arbalest>,
    rt: Runtime,
    native: Runtime,
    /// Whether aging raised no report: these are correct programs, and a
    /// report raised here would hide a repeat of it in the timed rounds
    /// (the runtime keeps each report once).
    aged_clean: bool,
}

impl Long {
    /// A detector that has already analysed `AGE_ROUNDS` rounds of the
    /// SPEC-like programs at preset `test`, so that its history holds
    /// more than 1000 target regions before the first timed round.
    pub fn aged(tracer: Option<&Tracer>, races: bool) -> Long {
        let (tool, rt) = instrumented(tracer, races);
        for _ in 0..AGE_ROUNDS {
            for p in spec_progs(Preset::Test) {
                p.run(&rt);
            }
        }
        Long {
            tool,
            aged_clean: rt.reports().is_empty(),
            rt,
            native: bare(),
        }
    }
}

/// Rounds of the four programs at preset `test` (199 target regions per
/// round) that age a long-lived detector.
const AGE_ROUNDS: usize = 6;

pub struct LiveOpts {
    pub secs: f64,
    pub min_rounds: usize,
    pub races: bool,
    /// Pair every program with an uninstrumented run of itself. SPEC-like
    /// programs need it: their known answer is the paired checksum.
    pub native: bool,
}

#[derive(Default, Clone, Copy)]
pub struct Round {
    pub arb_ns: u64,
    pub native_ns: u64,
    pub accesses: u64,
    /// `on_access` calls and busy ns in this round (traced runs only).
    pub access_calls: u64,
    pub access_ns: u64,
}

#[derive(Default)]
pub struct LiveOut {
    pub op_ms: Vec<f64>,
    /// When each op (and its paired run) ended, in seconds since the loop
    /// started.
    pub op_end_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub tally: Tally,
    pub reports: u64,
    pub max_tool_bytes: u64,
}

impl LiveOut {
    pub fn arb_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.arb_ns).sum::<u64>() as f64 / 1e9
    }

    pub fn accesses(&self) -> u64 {
        self.rounds.iter().map(|r| r.accesses).sum()
    }

    /// Per-round instrumented ÷ uninstrumented wall time, median.
    pub fn slowdown(&self) -> f64 {
        let r: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.arb_ns as f64 / r.native_ns.max(1) as f64)
            .collect();
        median(&r)
    }

    /// ns per tracked access of the last round ÷ that of the first.
    pub fn late_early(&self) -> f64 {
        let per = |r: &Round| r.arb_ns as f64 / r.accesses.max(1) as f64;
        match (self.rounds.first(), self.rounds.last()) {
            (Some(a), Some(b)) => per(b) / per(a),
            _ => 0.0,
        }
    }
}

/// Rounds over `progs`, each in a seed-permuted order, until `secs` have
/// passed (checked at round ends) and `min_rounds` are done. Programs run
/// on `long` when given (spec-stream), else each on a fresh detector and
/// runtime (dracc-sweep); `tracer` must be the one `long` was built with.
/// With `long`, its aging counts as one more op, failed if it reported.
pub fn run(
    progs: &[Prog],
    rng: &mut Rng,
    o: &LiveOpts,
    tracer: Option<&Tracer>,
    long: Option<&Long>,
) -> LiveOut {
    let mut out = LiveOut::default();
    if let Some(l) = long {
        out.tally.record(l.aged_clean);
    }
    let start = Instant::now();
    while out.rounds.len() < o.min_rounds || start.elapsed().as_secs_f64() < o.secs {
        if let Some(t) = tracer {
            t.timings.round_access.take();
        }
        let mut round = Round::default();
        for (k, &i) in rng.permutation(progs.len()).iter().enumerate() {
            let p = &progs[i];
            let native_first = (out.rounds.len() + k) % 2 == 0;
            let mut native = None;
            let run_native = |round: &mut Round| {
                let fresh;
                let rt = match long {
                    Some(l) => &l.native,
                    None => {
                        fresh = bare();
                        &fresh
                    }
                };
                let t0 = Instant::now();
                let sum = p.run(rt);
                round.native_ns += t0.elapsed().as_nanos() as u64;
                sum
            };
            if o.native && native_first {
                native = Some(run_native(&mut round));
            }
            let t0 = Instant::now();
            let fresh;
            let (tool, rt) = match long {
                Some(l) => (&l.tool, &l.rt),
                None => {
                    fresh = instrumented(tracer, o.races);
                    (&fresh.0, &fresh.1)
                }
            };
            let accesses0 = tool.stats().accesses.get();
            let reports0 = if long.is_some() {
                rt.reports().len()
            } else {
                0
            };
            let sum = p.run(rt);
            let ns = t0.elapsed().as_nanos() as u64;
            if o.native && !native_first {
                native = Some(run_native(&mut round));
            }
            out.op_end_s.push(start.elapsed().as_secs_f64());
            round.arb_ns += ns;
            round.accesses += tool.stats().accesses.get() - accesses0;
            out.op_ms.push(ns as f64 / 1e6);
            let reports = rt.reports();
            let new = &reports[reports0.min(reports.len())..];
            out.reports += new.len() as u64;
            out.tally.record(p.check(new, sum, native));
            out.max_tool_bytes = out.max_tool_bytes.max(rt.tool_bytes());
        }
        if let Some(t) = tracer {
            (round.access_calls, round.access_ns) = t.timings.round_access.take();
        }
        out.rounds.push(round);
    }
    out
}

/// Median wall time of `Arbalest::new` + `Runtime::with_tool`, in µs.
fn setup_us() -> f64 {
    let samples: Vec<f64> = (0..31)
        .map(|_| {
            let t0 = Instant::now();
            let pair = std::hint::black_box(instrumented(None, true));
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            drop(pair);
            us
        })
        .collect();
    median(&samples)
}

/// Paired sweeps with a live registry vs `Registry::disabled()`, fresh
/// runtime per program, order alternating; median ratio − 1 in percent.
/// A unit is the whole list when it is short, one program otherwise.
fn obs_overhead_pct(progs: &[Prog], whole_list: bool, budget_s: f64) -> f64 {
    let run_unit = |reg: Registry, unit: &[Prog]| {
        let t0 = Instant::now();
        for p in unit {
            let tool = Arc::new(Arbalest::with_registry(
                ArbalestConfig::default(),
                reg.clone(),
            ));
            let rt =
                Runtime::with_tool(Config::default().team_size(TEAM).metrics(reg.clone()), tool);
            p.run(&rt);
        }
        t0.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    let mut ratios = Vec::new();
    let mut i = 0;
    while ratios.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let unit = if whole_list {
            progs
        } else {
            std::slice::from_ref(&progs[i % progs.len()])
        };
        let (on, off) = if i % 2 == 0 {
            let on = run_unit(Registry::new(), unit);
            (on, run_unit(Registry::disabled(), unit))
        } else {
            let off = run_unit(Registry::disabled(), unit);
            (run_unit(Registry::new(), unit), off)
        };
        ratios.push(on / off);
        i += 1;
    }
    (median(&ratios) - 1.0) * 100.0
}

/// The runtime, detector, shadow, race and obs rows, from a traced run
/// of `progs`. Returns the traced run's op outcome.
pub fn layer_rows(
    progs: &[Prog],
    long_lived: bool,
    secs: f64,
    rng: &mut Rng,
    m: &mut Metrics,
) -> LiveOut {
    let tracer = Tracer::new();
    let long = long_lived.then(|| Long::aged(Some(&tracer), true));
    if long.is_some() {
        eprintln!(
            "aged detector: {} target regions before the first timed round",
            tracer.timings.targets.load(Relaxed)
        );
        tracer.timings.reset();
    }
    // Registry counters of the timed rounds only: aging is subtracted.
    let before = tracer.reg.snapshot();
    let opts = LiveOpts {
        secs,
        min_rounds: 2,
        races: true,
        native: true,
    };
    let mut out = run(progs, rng, &opts, Some(&tracer), long.as_ref());
    let t = &tracer.timings;
    let rounds = out.rounds.len() as f64;
    let snap = tracer.reg.snapshot();
    let counter = |name: &str, labels: &[(&str, &str)]| {
        (snap.counter(name, labels).unwrap_or(0) - before.counter(name, labels).unwrap_or(0)) as f64
    };
    let accesses = out.accesses().max(1) as f64;
    let arb_ns = out.arb_s() * 1e9;
    let per_call = |s: &crate::timing::CallStats| s.ns() as f64 / s.calls().max(1) as f64;

    m.put(
        "offload.native_ns_per_access",
        "ns",
        out.rounds.iter().map(|r| r.native_ns).sum::<u64>() as f64 / accesses,
    );
    m.put(
        "offload.dispatch_ns_per_access",
        "ns",
        (arb_ns - t.busy_ns() as f64 / TEAM as f64).max(0.0) / accesses,
    );
    let maps: Vec<_> = ["entry", "exit"]
        .iter()
        .filter_map(|p| snap.histogram("arbalest_rt_map_nanos", &[("phase", p)]))
        .collect();
    m.put("offload.map_us_p50", "us", hist_quantile(&maps, 0.5) / 1e3);
    m.put(
        "offload.transfer_bytes",
        "bytes/round",
        counter("arbalest_rt_transfer_bytes_total", &[]) / rounds,
    );
    m.put(
        "offload.constructs",
        "regions/round",
        t.targets.load(Relaxed) as f64 / rounds,
    );

    m.put(
        "core.on_access_calls",
        "calls/round",
        t.access.calls() as f64 / rounds,
    );
    m.put("core.on_access_ns", "ns", per_call(&t.access));
    let round_ns = |r: &Round| r.access_ns as f64 / r.access_calls.max(1) as f64;
    m.put(
        "core.on_access_ns_first_round",
        "ns",
        out.rounds.first().map(round_ns).unwrap_or(0.0),
    );
    m.put(
        "core.on_access_ns_last_round",
        "ns",
        out.rounds.last().map(round_ns).unwrap_or(0.0),
    );
    for (name, s) in [
        ("transfer", &t.transfer),
        ("data_op", &t.data_op),
        ("sync", &t.sync),
        ("construct", &t.construct),
    ] {
        m.put(&format!("core.on_{name}_ns"), "ns", per_call(s));
        m.put(
            &format!("core.on_{name}_calls"),
            "calls/round",
            s.calls() as f64 / rounds,
        );
    }
    m.put("core.setup_us", "us", setup_us());
    let pairs = "arbalest_detector_vsm_transition_pairs_total";
    let transitions = (snap.counter_sum(pairs) - before.counter_sum(pairs)) as f64;
    let detector_accesses = counter("arbalest_detector_accesses_total", &[]).max(1.0);
    m.put("core.vsm_transitions", "count/round", transitions / rounds);
    m.put(
        "core.transitions_per_access",
        "ratio",
        transitions / detector_accesses,
    );
    let hits = counter("arbalest_detector_lookup_cache_total", &[("result", "hit")]);
    let misses = counter(
        "arbalest_detector_lookup_cache_total",
        &[("result", "miss")],
    );
    m.put("core.lookup_cache_hits", "count/round", hits / rounds);
    m.put(
        "core.lookup_cache_lookups",
        "count/round",
        (hits + misses) / rounds,
    );
    m.put(
        "core.lookup_cache_hit_rate",
        "ratio",
        hits / (hits + misses).max(1.0),
    );
    m.put(
        "core.busy_share",
        "ratio",
        t.busy_ns() as f64 / arb_ns.max(1.0),
    );
    m.put("core.reports", "count/round", out.reports as f64 / rounds);
    m.put(
        "shadow.cas_retries_per_kaccess",
        "count",
        counter("arbalest_detector_shadow_cas_retries_total", &[]) * 1e3 / detector_accesses,
    );
    let depth: Vec<_> = snap
        .histogram("arbalest_detector_lookup_depth", &[])
        .into_iter()
        .collect();
    m.put(
        "shadow.lookup_depth_p50",
        "nodes",
        hist_quantile(&depth, 0.5),
    );

    // One round with the race engine off: the share of on_access time
    // that disappears is the race check's.
    let off = Tracer::new();
    let long = long_lived.then(|| Long::aged(Some(&off), false));
    off.timings.reset();
    let opts = LiveOpts {
        secs: 0.0,
        min_rounds: 1,
        races: false,
        native: long_lived,
    };
    out.tally
        .absorb(run(progs, rng, &opts, Some(&off), long.as_ref()).tally);
    let on_ns = per_call(&t.access);
    m.put(
        "race.share",
        "ratio",
        1.0 - per_call(&off.timings.access) / on_ns.max(1.0),
    );
    m.put(
        "obs.overhead_pct",
        "%",
        obs_overhead_pct(progs, !long_lived, 2.0),
    );
    out
}
