//! Measures the cost of the observability layer: the full 56-case DRACC
//! sweep with metrics enabled versus disabled.
//!
//! Both configurations run the *same* code — the handles are always
//! threaded through the detector and runtime — so the difference is
//! exactly the price of live counters, histograms, and span timing. The
//! disabled side uses [`Registry::disabled`], whose handles no-op behind
//! a single branch; this is what a monitored production run without
//! `--metrics-out` pays.
//!
//! The sweep is short (tens of milliseconds) and shared machines swing
//! by ±15% at that scale, an order of magnitude more than the effect
//! being measured — so single comparisons and min-of-N are both
//! hopeless. Instead: many *pairs* of back-to-back sweeps (adjacent in
//! time, so both sides of a pair see the same machine state, with the
//! order alternating to cancel any systematic second-run advantage),
//! one overhead ratio per pair, and the *median* ratio reported. Spikes
//! contaminate individual pairs in either direction; the median needs a
//! majority of pairs to be clean, not a perfectly quiet machine.
//! The binary exits non-zero when the measured overhead exceeds
//! [`BUDGET_PCT`], the bound DESIGN.md §12 commits to, making it usable
//! as a CI gate, and appends its result to `BENCH_obs.json`.
//!
//! ```text
//! obs_overhead [--quick] [--out <file>]
//! ```

use arbalest_bench::append_to_ledger;
use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_obs::Registry;
use arbalest_offload::json::Json;
use arbalest_offload::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The metrics overhead the gate allows, in percent (DESIGN.md §12).
const BUDGET_PCT: f64 = 5.0;

/// One full DRACC sweep with every detector and runtime recording into
/// `reg`; returns the wall time in seconds.
fn sweep(reg: &Registry, cfg: &ArbalestConfig) -> f64 {
    let start = Instant::now();
    for b in arbalest_dracc::all() {
        let tool = Arc::new(Arbalest::with_registry(cfg.clone(), reg.clone()));
        let rt = Runtime::with_tool(Config::default().metrics(reg.clone()), tool);
        b.run(&rt);
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_obs.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = it.next().expect("--out needs a file path").clone(),
            other => {
                eprintln!("unknown option '{other}'");
                std::process::exit(2);
            }
        }
    }
    let reps = if quick { 81 } else { 121 };
    let cases = arbalest_dracc::all().len();

    // A fresh registry per enabled sweep so series-registration cost is
    // included in the measurement. Three rungs on the ladder:
    //   off   — Registry::disabled(), the uninstrumented floor;
    //   on    — live metrics + span timing (the ≤ BUDGET_PCT-gated default);
    //   prov  — metrics plus per-buffer VSM provenance capture, the
    //           `arbalest explain` configuration (opt-in, reported but
    //           not gated: explain runs are diagnostic, not production).
    let prov_cfg = ArbalestConfig { provenance: true, ..ArbalestConfig::default() };
    let run_off = || sweep(&Registry::disabled(), &ArbalestConfig::default());
    let run_on = || sweep(&Registry::new(), &ArbalestConfig::default());
    let run_prov = || sweep(&Registry::new(), &prov_cfg);

    // Warm up caches and the allocator outside the measurement.
    let _ = run_off();
    let _ = run_on();
    let _ = run_prov();

    let mut ratios = Vec::with_capacity(reps);
    let mut prov_ratios = Vec::with_capacity(reps);
    let mut best_off = f64::MAX;
    let mut best_on = f64::MAX;
    let mut best_prov = f64::MAX;
    for i in 0..reps {
        // Alternate which side goes first so a systematic cache/frequency
        // advantage of the second sweep cancels across pairs. The gated
        // off/on pair stays *adjacent* — anything in between sees a
        // different machine state and poisons the ratio.
        let (off, on) = if i % 2 == 0 {
            let off = run_off();
            (off, run_on())
        } else {
            let on = run_on();
            (run_off(), on)
        };
        ratios.push(on / off);
        best_off = best_off.min(off);
        best_on = best_on.min(on);
    }
    // The informational provenance ladder runs as its own paired loop so
    // its allocation churn cannot leak into the gated measurement above.
    for i in 0..reps {
        let (off, prov) = if i % 2 == 0 {
            let off = run_off();
            (off, run_prov())
        } else {
            let prov = run_prov();
            (run_off(), prov)
        };
        prov_ratios.push(prov / off);
        best_prov = best_prov.min(prov);
    }
    let median = |r: &mut Vec<f64>| {
        r.sort_by(|a, b| a.partial_cmp(b).expect("sweep times are finite"));
        (r[r.len() / 2] - 1.0) * 100.0
    };
    let overhead_pct = median(&mut ratios);
    let prov_overhead_pct = median(&mut prov_ratios);

    println!("OBSERVABILITY OVERHEAD ({cases}-case DRACC sweep, median of {reps} paired ratios)");
    println!("  uninstrumented:       {:>9.3} ms  (best sweep)", best_off * 1e3);
    println!("  instrumented:         {:>9.3} ms  (best sweep)", best_on * 1e3);
    println!("  with provenance:      {:>9.3} ms  (best sweep)", best_prov * 1e3);
    println!("  overhead:             {overhead_pct:>8.2} %   (budget {BUDGET_PCT}%)");
    println!("  provenance overhead:  {prov_overhead_pct:>8.2} %   (informational)");

    let entry = Json::obj(vec![
        ("bench", Json::Str("obs_overhead".into())),
        ("cases", Json::int(cases as u64)),
        ("reps", Json::int(reps as u64)),
        ("uninstrumented_s", Json::Num(best_off)),
        ("instrumented_s", Json::Num(best_on)),
        ("provenance_s", Json::Num(best_prov)),
        ("overhead_pct", Json::Num(overhead_pct)),
        ("provenance_overhead_pct", Json::Num(prov_overhead_pct)),
        ("budget_pct", Json::Num(BUDGET_PCT)),
        ("pass", Json::Bool(overhead_pct <= BUDGET_PCT)),
    ]);
    if let Err(e) = append_to_ledger(&out, &entry) {
        eprintln!("append to {out}: {e}");
        std::process::exit(1);
    }
    println!("  appended to {out}");

    if overhead_pct > BUDGET_PCT {
        eprintln!("FAIL: observability overhead {overhead_pct:.2}% exceeds budget {BUDGET_PCT}%");
        std::process::exit(1);
    }
}

