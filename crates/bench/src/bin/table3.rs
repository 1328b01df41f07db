//! Regenerates **Table III**: effectiveness comparison on the DRACC-like
//! benchmarks — which of the five tools reports each of the 16 seeded
//! data mapping issues, plus the false-positive check over the 40
//! correct benchmarks.

use arbalest_baselines::{by_name, paper_name, TOOLS};
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;

fn reports(bench: &arbalest_dracc::Benchmark, tool: &str) -> Vec<Report> {
    let rt = Runtime::with_tool(Config::default(), by_name(tool, &Registry::new()).expect("tool"));
    bench.run(&rt);
    rt.reports()
}

fn detected(bench: &arbalest_dracc::Benchmark, tool: &str) -> bool {
    let effect = bench.expected.expect("buggy");
    reports(bench, tool).iter().any(|r| r.kind.credits_effect(effect))
}

fn any_report(bench: &arbalest_dracc::Benchmark, tool: &str) -> bool {
    !reports(bench, tool).is_empty()
}

fn main() {
    println!("TABLE III: Effectiveness Comparison on DRACC Benchmarks");
    println!("(reproduction; \u{2713} = data mapping issue reported, - = missed)\n");
    let rows: [(&str, &str, &[u32]); 3] = [
        ("22, 24, 49, 50, 51", "UUM", &[22, 24, 49, 50, 51]),
        ("23, 25, 28, 29, 30, 31", "BO", &[23, 25, 28, 29, 30, 31]),
        ("26, 27, 32, 33, 34", "USD", &[26, 27, 32, 33, 34]),
    ];

    print!("{:<26}{:<8}", "Benchmark ID", "Effect");
    for tool in TOOLS {
        print!("{:<10}", paper_name(tool));
    }
    println!();
    println!("{}", "-".repeat(26 + 8 + 10 * TOOLS.len()));

    let mut totals = [0usize; 5];
    let mut arbalest_all = true;
    for (ids_str, effect, ids) in rows {
        print!("{:<26}{:<8}", ids_str, effect);
        for (ti, tool) in TOOLS.iter().enumerate() {
            let mut all = true;
            for id in ids {
                let b = arbalest_dracc::by_id(*id).expect("benchmark");
                if detected(&b, tool) {
                    totals[ti] += 1;
                } else {
                    all = false;
                }
            }
            print!("{:<10}", if all { "\u{2713}" } else { "-" });
            if !all && *tool == "arbalest" {
                arbalest_all = false;
            }
        }
        println!();
    }
    println!("{}", "-".repeat(26 + 8 + 10 * TOOLS.len()));
    print!("{:<26}{:<8}", "Overall", "");
    for t in totals {
        print!("{:<10}", format!("{t}/16"));
    }
    println!("\n");

    // The 40 correct benchmarks: false-positive check.
    let mut fps = 0usize;
    for b in arbalest_dracc::correct() {
        for tool in TOOLS {
            if any_report(&b, tool) {
                println!("FALSE POSITIVE: {} on {}", paper_name(tool), b.dracc_id());
                fps += 1;
            }
        }
    }
    println!(
        "False positives on the 40 correct benchmarks (x 5 tools): {fps} \
         (paper: none of the five tools report a false positive)"
    );
    println!("\nPaper's row: Arbalest 16/16, Valgrind 6/16, Archer 0/16, ASan 6/16, MSan 5/16");
    assert!(arbalest_all, "ARBALEST must detect every seeded issue");
}
