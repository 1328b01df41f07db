//! Run one buggy program under all five tools and compare what each one
//! sees — a miniature of the paper's §VI-A observation that every prior
//! tool covers only a slice of the data-mapping-issue space.
//!
//! The program contains three seeded issues:
//!   1. a UUM  (`map(alloc:)` that should be `map(to:)`),
//!   2. a BO   (array section longer than the variable),
//!   3. a USD  (`map(to:)` that should be `map(tofrom:)`).
//!
//! Run with: `cargo run --example tool_shootout`

use arbalest::baselines::{by_name, paper_name, TOOLS};
use arbalest::prelude::*;
use arbalest_obs::Registry;

const N: usize = 64;

fn buggy_program(rt: &Runtime) {
    // Issue 1: UUM.
    let table = rt.alloc_with::<f64>("table", N, |i| i as f64);
    let out = rt.alloc::<f64>("out", N);
    rt.target().map(Map::alloc(&table)).map(Map::from(&out)).run(move |k| {
        k.par_for(0..N, |k, i| k.write(&out, i, k.read(&table, i)));
    });

    // Issue 2: BO (transfer reads past `vec`).
    let vec = rt.alloc_with::<f64>("vec", N, |_| 1.0);
    rt.target().map(Map::to_section(&vec, 0, N + 8)).run(move |k| {
        k.for_each(0..N, |k, i| {
            let _ = k.read(&vec, i);
        });
    });

    // Issue 3: USD.
    let acc = rt.alloc_init::<i64>("acc", &[5; N]);
    rt.target().map(Map::to(&acc)).run(move |k| {
        k.par_for(0..N, |k, i| {
            let v = k.read(&acc, i);
            k.write(&acc, i, v * 2);
        });
    });
    let _ = rt.read(&acc, 0); // stale
}

fn main() {
    println!("{:<10}{:<8}{:<8}{:<8}  findings", "tool", "UUM", "BO", "USD");
    println!("{}", "-".repeat(70));
    for tool in TOOLS {
        let name = paper_name(tool);
        let tool = by_name(tool, &Registry::new()).expect("known tool");
        let rt = Runtime::with_tool(Config::default(), tool);
        buggy_program(&rt);
        let reports = rt.reports();
        let has = |e: Effect| reports.iter().any(|r| r.kind.credits_effect(e));
        let mark = |b: bool| if b { "\u{2713}" } else { "-" };
        let kinds: Vec<&str> = {
            let mut v: Vec<&str> = reports.iter().map(|r| r.kind.label()).collect();
            v.sort();
            v.dedup();
            v
        };
        println!(
            "{:<10}{:<8}{:<8}{:<8}  {}",
            name,
            mark(has(Effect::Uum)),
            mark(has(Effect::Bo)),
            mark(has(Effect::Usd)),
            if kinds.is_empty() { "(silent)".to_string() } else { kinds.join(", ") }
        );
    }
    println!("\nOnly ARBALEST covers all three classes (Table III's punchline).");
}
