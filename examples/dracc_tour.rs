//! Tour of the DRACC-like suite: run all 56 benchmarks under all five
//! tools and print a per-benchmark detection matrix (the long-form
//! version of Table III).
//!
//! Run with: `cargo run --release --example dracc_tour`

use arbalest::baselines::{by_name, TOOLS};
use arbalest::prelude::*;
use arbalest_obs::Registry;

fn main() {
    println!(
        "{:<16}{:<10}{:<34}arbalest memchk archer asan msan",
        "benchmark", "effect", "name"
    );
    println!("{}", "-".repeat(100));
    for b in arbalest::dracc::all() {
        let effect = b.expected.map(|e| e.to_string()).unwrap_or_else(|| "-".into());
        print!("{:<16}{:<10}{:<34}", b.dracc_id(), effect, b.name);
        for tool in TOOLS {
            let t = by_name(tool, &Registry::new()).expect("known tool");
            let rt = Runtime::with_tool(Config::default(), t);
            b.run(&rt);
            let hit = match b.expected {
                Some(e) => rt.reports().iter().any(|r| r.kind.credits_effect(e)),
                None => !rt.reports().is_empty(), // any report = false positive
            };
            let mark = match (b.expected.is_some(), hit) {
                (true, true) => "\u{2713}",
                (true, false) => "\u{b7}",
                (false, true) => "FP!",
                (false, false) => "\u{b7}",
            };
            print!("{:^8}", mark);
        }
        println!();
    }
    println!("\n\u{2713} = seeded bug detected, \u{b7} = no report, FP! = false positive");
}
