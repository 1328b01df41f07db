//! The `static-fuzz` workload: generated programs through the
//! differential static-vs-dynamic check, the IR models through the
//! static analyzer, and repair synthesis on the must-buggy models.

use crate::known::{self, StaticVerdict};
use crate::stats::{median, Metrics, Rng, Tally};
use crate::TEAM;
use arbalest_ir::generate::{generate, GeneratedCase};
use arbalest_ir::{interp, Binding, Program};
use arbalest_offload::prelude::*;
use arbalest_spec::Preset;
use arbalest_static::differential::check_program;
use arbalest_static::repair::synthesize_fix;
use arbalest_static::{analyze, Severity};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `differential::check_program` on generated case `i`.
    Check(usize),
    /// `analyze` on model `i`.
    Analyze(usize),
    /// `repair::synthesize_fix` on model `i`.
    Fix(usize),
}

pub struct Model {
    pub name: String,
    pub program: Program,
    pub verdict: StaticVerdict,
}

pub struct Set {
    pub generated: Vec<(String, GeneratedCase)>,
    pub models: Vec<Model>,
    pub ops: Vec<Op>,
}

impl Set {
    pub fn name(&self, op: Op) -> String {
        match op {
            Op::Check(i) => format!("check {}", self.generated[i].0),
            Op::Analyze(i) => format!("analyze {}", self.models[i].name),
            Op::Fix(i) => format!("fix {}", self.models[i].name),
        }
    }
}

/// Generator seeds `0..GEN_POOL` pass the differential check
/// (`arbalest fuzz-lint --seeds 704` reports 0 violations); seeds 719
/// and 918 do not, and neither does seed 130 on some schedules: its
/// dynamic run now and then reports a bound the static analyzer does not
/// predict. Failing ops would measure those bugs, not the analyzers.
const GEN_POOL: u64 = 704;
const FLAKY: [u64; 1] = [130];

/// Every generated program of the pool, the 56 DRACC and 5 SPEC models,
/// and a repair of each of the 15 must-buggy models. The seed orders
/// the ops of each pass.
pub fn build() -> Set {
    let generated: Vec<_> = (0..GEN_POOL)
        .filter(|s| !FLAKY.contains(s))
        .map(|s| (format!("fuzz-{s:05}"), generate(s)))
        .collect();
    let mut models: Vec<Model> = arbalest_dracc::all()
        .iter()
        .map(|b| Model {
            name: b.dracc_id(),
            program: arbalest_dracc::ir_models::ir_model(b.id).expect("model for every DRACC id"),
            verdict: known::static_verdict(Some(b.id)),
        })
        .collect();
    models.extend(
        arbalest_spec::ir_models::all_models(Preset::Test)
            .into_iter()
            .map(|p| Model {
                name: p.name.clone(),
                program: p,
                verdict: known::static_verdict(None),
            }),
    );
    let mut ops: Vec<Op> = (0..generated.len()).map(Op::Check).collect();
    ops.extend((0..models.len()).map(Op::Analyze));
    ops.extend(
        (0..models.len())
            .filter(|&i| models[i].verdict == StaticVerdict::Must)
            .map(Op::Fix),
    );
    Set {
        generated,
        models,
        ops,
    }
}

#[derive(Default)]
pub struct FuzzOut {
    pub op_ms: Vec<f64>,
    /// When each op ended, in seconds since the loop started.
    pub op_end_s: Vec<f64>,
    pub kinds: Vec<Op>,
    pub wall_s: f64,
    pub tally: Tally,
    pub passes: u64,
    /// `Must` / `May` diagnostics over every `Analyze` op.
    pub must: u64,
    pub may: u64,
}

fn run_op(set: &Set, op: Op, out: &mut FuzzOut) -> bool {
    match op {
        Op::Check(i) => {
            let (name, case) = &set.generated[i];
            let outcome = check_program(name, &case.program, &case.binding);
            if !outcome.ok() {
                eprintln!("static-fuzz: {name}: {}", outcome.violations.join("; "));
            }
            outcome.ok()
        }
        Op::Analyze(i) => {
            let model = &set.models[i];
            let diags = analyze(&model.program);
            let must = diags
                .iter()
                .filter(|d| d.severity == Severity::Must)
                .count() as u64;
            out.must += must;
            out.may += diags.len() as u64 - must;
            known::static_ok(model.verdict, &diags)
        }
        Op::Fix(i) => {
            let model = &set.models[i];
            synthesize_fix(&model.name, &model.program, &Binding::new()).repaired()
        }
    }
}

/// Every eighth op once, untimed and unchecked: caches and allocator
/// warm before timing starts.
pub fn warm_up(set: &Set) {
    let mut scratch = FuzzOut::default();
    for &op in set.ops.iter().step_by(8) {
        run_op(set, op, &mut scratch);
    }
}

/// Passes over the op list, each seed-permuted, until `secs` (checked at
/// pass ends) and at least `min_passes`.
pub fn run(set: &Set, rng: &mut Rng, secs: f64, min_passes: u64) -> FuzzOut {
    let mut out = FuzzOut::default();
    let start = Instant::now();
    while out.passes < min_passes || start.elapsed().as_secs_f64() < secs {
        for i in rng.permutation(set.ops.len()) {
            let op = set.ops[i];
            let t0 = Instant::now();
            let ok = run_op(set, op, &mut out);
            out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.op_end_s.push(start.elapsed().as_secs_f64());
            if !ok && out.tally.failed < 8 {
                eprintln!(
                    "static-fuzz: {} disagrees with its known answer",
                    set.name(op)
                );
            }
            out.kinds.push(op);
            out.tally.record(ok);
        }
        out.passes += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

fn median_us(samples: impl Iterator<Item = f64>) -> f64 {
    median(&samples.collect::<Vec<_>>()) * 1e3
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// The staticcheck and ir rows from a run over `set`.
pub fn layer_rows(set: &Set, seed: u64, secs: f64, rng: &mut Rng, m: &mut Metrics) -> FuzzOut {
    let out = run(set, rng, secs, 1);
    let of = |pick: fn(&Op) -> bool| {
        out.op_ms
            .iter()
            .zip(&out.kinds)
            .filter(move |(_, k)| pick(k))
            .map(|(&ms, _)| ms)
    };
    m.put(
        "staticcheck.analyze_us",
        "us",
        median_us(of(|k| matches!(k, Op::Analyze(_)))),
    );
    m.put(
        "staticcheck.fix_ms",
        "ms",
        median_us(of(|k| matches!(k, Op::Fix(_)))) / 1e3,
    );
    m.put(
        "staticcheck.diagnostics_must",
        "count/pass",
        out.must as f64 / out.passes as f64,
    );
    m.put(
        "staticcheck.diagnostics_may",
        "count/pass",
        out.may as f64 / out.passes as f64,
    );
    let concretize = set.generated.iter().map(|(_, c)| {
        time_ms(|| {
            std::hint::black_box(
                c.program
                    .concretize(&c.binding)
                    .expect("generated binding is in range"),
            );
        })
    });
    m.put("ir.concretize_us", "us", median_us(concretize));
    let interp = set.generated.iter().map(|(_, c)| {
        let rt = Runtime::new(Config::default().team_size(TEAM));
        time_ms(|| interp::run(&c.program, &c.binding, &rt).expect("generated program runs"))
    });
    m.put("ir.interp_us", "us", median_us(interp));
    let gen = Rng::new(seed)
        .permutation(GEN_POOL as usize)
        .into_iter()
        .take(64);
    let gen = gen.map(|s| time_ms(|| drop(std::hint::black_box(generate(s as u64)))));
    m.put("ir.generate_us", "us", median_us(gen));
    out
}
