//! # arbalest-bench
//!
//! Regenerates the tables and figures of the ARBALEST evaluation (§VI).
//! Binaries:
//!
//! * `table3` — precision comparison on the 56 DRACC-like benchmarks.
//! * `table_static` — the §VI-G static-vs-dynamic verdict matrix.
//! * `fig8`  — execution-time overhead of the five tools on the five
//!   SPEC-ACCEL-like workloads.
//! * `fig9`  — space overhead of the same runs.
//! * `ablations` — the design-choice studies of DESIGN.md §6 (E12).
//! * `obs_overhead` — the ≤ 5% metrics gate `ci.sh` runs.
//! * `store_throughput` — WAL append, snapshot sizes and cold recovery.
//!
//! The repository's benchmark is `perfbench/`, which also carries the
//! per-layer rows behind §IV-C's O(1)-per-access claim. The O(log m)
//! interval lookup is pinned by a node-counting test in
//! `arbalest_shadow::interval`, and the §VI-D case study (Fig. 7) is
//! `examples/postencil.rs`.

use arbalest_baselines::by_name;
use arbalest_obs::Registry;
use arbalest_offload::json::Json;
use arbalest_offload::prelude::*;
use arbalest_spec::Preset;
use std::num::NonZeroUsize;
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

/// `name`'s value run through `parse`, or `default` when it is unset.
/// A value `parse` refuses ends the process with exit code 2.
fn from_env<T>(name: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    let Some(value) = std::env::var_os(name) else { return default };
    parse(&value.to_string_lossy()).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(2)
    })
}

/// The preset named by `ARBALEST_PRESET` (test|small|medium; default
/// small).
pub fn preset_from_env() -> Preset {
    from_env("ARBALEST_PRESET", Preset::Small, str::parse)
}

/// The team size in `ARBALEST_TEAM` (a positive integer; default 4).
pub fn team_from_env() -> usize {
    from_env("ARBALEST_TEAM", 4, |v| {
        v.parse::<NonZeroUsize>()
            .map(NonZeroUsize::get)
            .map_err(|_| format!("bad team size '{v}' (want a positive integer)"))
    })
}

/// Append `entry` to the JSON array in the file at `path`, creating the
/// file when it is missing. Earlier entries are kept byte for byte.
pub fn append_to_ledger(path: &str, entry: &Json) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let kept = existing.trim_end().trim_end_matches(']').trim_end();
    let body = if kept.is_empty() || kept == "[" {
        format!("[\n{}\n]\n", entry.emit())
    } else {
        format!("{},\n{}\n]\n", kept.trim_end_matches(','), entry.emit())
    };
    std::fs::write(path, body)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_append_keeps_earlier_entries_and_stays_parseable() {
        let path =
            std::env::temp_dir().join(format!("arbalest-bench-ledger-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let two = "[\n{\"bench\":\"a\",\"n\":1},\n{\"bench\":\"b\",\"xs\":[1,2]}\n]\n";
        let entry = Json::obj(vec![("bench", Json::str("c")), ("pass", Json::Bool(true))]);
        for start in [None, Some(""), Some("[\n]"), Some(two)] {
            let _ = std::fs::remove_file(path);
            if let Some(text) = start {
                std::fs::write(path, text).unwrap();
            }
            append_to_ledger(path, &entry).unwrap();
            let after = std::fs::read_to_string(path).unwrap();
            let parsed = Json::parse(&after).unwrap_or_else(|e| panic!("{start:?}: {e}\n{after}"));
            let entries = parsed.as_arr().expect("a JSON array");
            let before = match start.map(Json::parse) {
                Some(Ok(Json::Arr(old))) => old,
                _ => Vec::new(),
            };
            assert_eq!(entries.len(), before.len() + 1, "{start:?}");
            assert_eq!(entries.last(), Some(&entry), "{start:?}");
            if !before.is_empty() {
                let old_text = two.trim_end().trim_end_matches(']').trim_end();
                assert!(after.starts_with(old_text), "earlier entries rewritten:\n{after}");
            }
        }
        let _ = std::fs::remove_file(path);
    }
}
