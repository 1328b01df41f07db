//! Static-vs-dynamic verdict matrix over the 56 DRACC benchmarks.
//!
//! For every benchmark, runs `arbalest lint`'s analyzer over the
//! hand-authored IR model and the dynamic detector over the real
//! execution, then prints one row comparing the verdicts. The matrix is
//! the evidence behind the soundness contract:
//!
//! * every `must` static diagnostic is confirmed by a same-kind dynamic
//!   report (no false `must`s), and
//! * the 40 correct benchmarks draw no static diagnostic of any severity
//!   (no false positives), while every seeded bug draws at least one.
//!
//! The one `may`-only row (050) is the §VI-G case: whether the input
//! array is initialised depends on program input, so the static verdict
//! stays "may" and the dynamic run decides it.

use arbalest_baselines::by_name;
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;
use arbalest_static::{analyze, Severity};
use std::collections::BTreeSet;

fn main() {
    println!("STATIC vs DYNAMIC: arbalest lint on the 56 DRACC benchmarks");
    println!("(must/may = static severities; dynamic = detector report kinds)\n");
    println!(
        "{:<14}{:<8}{:<18}{:<18}{:<10}",
        "Benchmark", "Seeded", "Static (must)", "Static (may)", "Dynamic"
    );
    println!("{}", "-".repeat(68));

    let mut bad_rows = 0usize;
    for b in arbalest_dracc::all() {
        let model = arbalest_dracc::ir_models::ir_model(b.id).expect("model");
        let diags = analyze(&model);

        let tool = by_name("arbalest", &Registry::new()).expect("known tool");
        let rt = Runtime::with_tool(Config::default(), tool);
        b.run(&rt);
        let dynamic: Vec<Report> = rt.reports();

        let kinds = |sev: Severity| -> BTreeSet<&'static str> {
            diags
                .iter()
                .filter(|d| d.severity == sev)
                .map(|d| d.kind.label())
                .collect()
        };
        let must = kinds(Severity::Must);
        let may = kinds(Severity::May);
        let dyn_kinds: BTreeSet<&'static str> =
            dynamic.iter().map(|r| r.kind.label()).collect();

        let fmt = |s: &BTreeSet<&'static str>| {
            if s.is_empty() {
                "-".to_string()
            } else {
                s.iter().copied().collect::<Vec<_>>().join(",")
            }
        };

        // Row verdict: must ⊆ dynamic; correct rows silent; buggy rows
        // flagged statically (must, or may for the data-dependent 050).
        let sound = must.iter().all(|k| dyn_kinds.contains(k));
        let row_ok = match b.expected {
            None => diags.is_empty() && dynamic.is_empty(),
            Some(_) => sound && (!must.is_empty() || !may.is_empty()),
        };
        if !row_ok {
            bad_rows += 1;
        }

        println!(
            "{:<14}{:<8}{:<18}{:<18}{:<10}{}",
            b.dracc_id(),
            b.expected.map(|e| format!("{e:?}")).unwrap_or_else(|| "-".into()),
            fmt(&must),
            fmt(&may),
            fmt(&dyn_kinds),
            if row_ok { "" } else { "  <-- MISMATCH" },
        );
    }

    println!("{}", "-".repeat(68));
    if bad_rows == 0 {
        println!("All 56 rows consistent: must ⊆ dynamic, correct benchmarks silent.");
    } else {
        println!("{bad_rows} row(s) inconsistent.");
        std::process::exit(1);
    }
}
