//! Regenerates **Fig. 8**: execution-time overhead of the five tools on
//! the five SPEC-ACCEL-like workloads.
//!
//! For each workload we report the native execution time (uninstrumented
//! runtime — the substitution for the paper's "Native-CPU"; no GPU is
//! simulated, see DESIGN.md) and the slowdown factor of each tool. The
//! paper's headline shapes to look for:
//!
//! * Arbalest ≈ Archer (race detection dominates Arbalest's cost, §VI-E);
//! * Valgrind worst on most workloads (serialised, interpreted);
//! * ASan/MSan between native and the race-detecting tools;
//! * the compute-bound workloads (pomriq, pep) show the flattest ratios.
//!
//! Size via `ARBALEST_PRESET` = test | small (default) | medium; team
//! size via `ARBALEST_TEAM` (default 4).

use arbalest_baselines::{paper_name, TOOLS};
use arbalest_bench::{measure, preset_from_env, team_from_env};

fn main() {
    let preset = preset_from_env();
    let team = team_from_env();
    println!("FIG. 8: Time Overhead on SPEC ACCEL (reproduction)");
    println!("preset = {preset:?}, team = {team}\n");
    print!("{:<12}{:>12}", "benchmark", "Native");
    for tool in TOOLS {
        print!("{:>12}", paper_name(tool));
    }
    println!();
    print!("{:<12}{:>12}", "", "(secs)");
    for _ in TOOLS {
        print!("{:>12}", "(slowdown)");
    }
    println!();
    println!("{}", "-".repeat(12 + 12 * (1 + TOOLS.len())));

    let mut slowdowns: Vec<(String, Vec<f64>)> = Vec::new();
    for w in arbalest_spec::workloads() {
        // Warm-up + best-of-2 native to stabilise the baseline.
        let _ = measure(w.name, None, preset, team);
        let native1 = measure(w.name, None, preset, team);
        let native2 = measure(w.name, None, preset, team);
        let native = native1.wall.min(native2.wall);
        let base_checksum = native1.checksum;
        print!("{:<12}{:>12.3}", w.name, native.as_secs_f64());
        let mut row = Vec::new();
        for tool in TOOLS {
            let m = measure(w.name, Some(tool), preset, team);
            let factor = m.wall.as_secs_f64() / native.as_secs_f64().max(1e-9);
            assert!(
                (m.checksum - base_checksum).abs() <= 1e-6 * base_checksum.abs().max(1.0),
                "{}: checksum drift under {tool}: {} vs {base_checksum}",
                w.name,
                m.checksum
            );
            print!("{:>11.1}x", factor);
            row.push(factor);
        }
        println!();
        slowdowns.push((w.name.to_string(), row));
    }
    println!("{}", "-".repeat(12 + 12 * (1 + TOOLS.len())));

    // Summary shape checks (the paper's qualitative findings).
    let avg = |idx: usize| -> f64 {
        slowdowns.iter().map(|(_, r)| r[idx]).sum::<f64>() / slowdowns.len() as f64
    };
    let (arb, val, arch, asan, msan) = (avg(0), avg(1), avg(2), avg(3), avg(4));
    println!("\ngeomean-ish averages: Arbalest {arb:.1}x, Valgrind {val:.1}x, Archer {arch:.1}x, ASan {asan:.1}x, MSan {msan:.1}x");
    println!("paper shape: Arbalest ~= Archer (race detection dominates): {}",
        if (arb / arch) < 2.0 { "HOLDS" } else { "DIVERGES" });
    println!("paper shape: Arbalest faster than Valgrind on >= 3 of 5: {}", {
        let wins = slowdowns.iter().filter(|(_, r)| r[0] < r[1]).count();
        if wins >= 3 { format!("HOLDS ({wins}/5)") } else { format!("DIVERGES ({wins}/5)") }
    });
    println!("paper range: Arbalest slowdown within 3.3x-120x: {}", {
        let lo = slowdowns.iter().map(|(_, r)| r[0]).fold(f64::INFINITY, f64::min);
        let hi = slowdowns.iter().map(|(_, r)| r[0]).fold(0.0, f64::max);
        format!("measured {lo:.1}x-{hi:.1}x")
    });
}
