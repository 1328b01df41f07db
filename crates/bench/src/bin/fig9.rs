//! Regenerates **Fig. 9**: space overhead of the five tools on the five
//! SPEC-ACCEL-like workloads.
//!
//! We report resident application memory (the simulated device memories)
//! and each tool's side tables (shadow pages, interval trees, vector
//! clocks). The paper's shapes: the LLVM-family tools (Arbalest, Archer,
//! ASan, MSan) are close to each other because they share one shadow
//! implementation; Arbalest ≈ Archer since it encodes its state into
//! Archer's shadow words (§VI-F).

use arbalest_baselines::{paper_name, TOOLS};
use arbalest_bench::{fmt_bytes, measure, preset_from_env, team_from_env};

fn main() {
    let preset = preset_from_env();
    let team = team_from_env();
    println!("FIG. 9: Space Overhead on SPEC ACCEL (reproduction)");
    println!("preset = {preset:?}, team = {team}\n");
    print!("{:<12}{:>14}", "benchmark", "Native");
    for tool in TOOLS {
        print!("{:>14}", paper_name(tool));
    }
    println!();
    println!("{}", "-".repeat(12 + 14 * (1 + TOOLS.len())));

    let mut rows: Vec<Vec<u64>> = Vec::new();
    for w in arbalest_spec::workloads() {
        let native = measure(w.name, None, preset, team);
        print!("{:<12}{:>14}", w.name, fmt_bytes(native.app_bytes));
        let mut row = vec![native.app_bytes];
        for tool in TOOLS {
            let m = measure(w.name, Some(tool), preset, team);
            let total = m.app_bytes + m.tool_bytes;
            print!("{:>14}", fmt_bytes(total));
            row.push(total);
        }
        println!();
        rows.push(row);
    }
    println!("{}", "-".repeat(12 + 14 * (1 + TOOLS.len())));

    // Shape check: Arbalest's footprint tracks Archer's (same shadow).
    let ratio: f64 = rows
        .iter()
        .map(|r| r[1] as f64 / r[3] as f64)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "\nArbalest/Archer mean footprint ratio: {ratio:.2} \
         (paper: close to 1 — Arbalest encodes its state into Archer's shadow words)"
    );
}
