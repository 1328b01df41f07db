//! # arbalest-bench
//!
//! The harness that regenerates every table and figure of the ARBALEST
//! evaluation (§VI). Binaries:
//!
//! * `table3` — precision comparison on the 56 DRACC-like benchmarks.
//! * `fig8`  — execution-time overhead of the five tools on the five
//!   SPEC-ACCEL-like workloads.
//! * `fig9`  — space overhead of the same runs.
//! * `postencil_report` — the §VI-D case study: ARBALEST's Fig. 7-style
//!   report on the buggy 503.postencil 1.2.
//!
//! Criterion benches (`cargo bench -p arbalest-bench`) cover the
//! micro-claims: O(1) VSM transitions, lock-free shadow updates, and
//! O(log m) interval-tree lookups.

use arbalest_baselines::by_name;
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;
use arbalest_spec::Preset;
use std::time::{Duration, Instant};

/// Outcome of one measured workload run.
pub struct Measurement {
    /// Wall-clock duration.
    pub wall: Duration,
    /// Workload checksum (sanity: identical across tools).
    pub checksum: f64,
    /// Application-side resident bytes (device memories).
    pub app_bytes: u64,
    /// Tool side tables (shadow memory, clocks, interval trees).
    pub tool_bytes: u64,
}

/// Run one SPEC-like workload under an optional tool and measure it.
pub fn measure(workload: &str, tool: Option<&str>, preset: Preset, team: usize) -> Measurement {
    let w = arbalest_spec::by_name(workload).expect("known workload");
    let cfg = Config::default().team_size(team);
    let rt = match tool {
        Some(name) => Runtime::with_tool(cfg, by_name(name, &Registry::new()).expect("known tool")),
        None => Runtime::new(cfg),
    };
    let start = Instant::now();
    let checksum = (w.run)(&rt, preset);
    let wall = start.elapsed();
    Measurement { wall, checksum, app_bytes: rt.resident_bytes(), tool_bytes: rt.tool_bytes() }
}

/// Parse the preset from `ARBALEST_PRESET` (test|small|medium).
pub fn preset_from_env() -> Preset {
    match std::env::var("ARBALEST_PRESET").as_deref() {
        Ok("test") => Preset::Test,
        Ok("medium") => Preset::Medium,
        _ => Preset::Small,
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}
