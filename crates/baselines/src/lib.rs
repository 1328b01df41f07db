//! # arbalest-baselines
//!
//! Faithful models of the four dynamic analysis tools ARBALEST is
//! compared against in §VI: Valgrind's memcheck, Archer, AddressSanitizer
//! and MemorySanitizer.
//!
//! Each model implements the published detection *algorithm* of its tool
//! (A/V bits, FastTrack happens-before, red zones, definedness
//! propagation) over the same event stream ARBALEST consumes, with the
//! observability each real tool has:
//!
//! * **memcheck** is binary-level instrumentation: it sees host heap
//!   blocks and the runtime's transfer memcpys, but the device plugin's
//!   pooled arena looks like one big zero-initialised (hence *defined*)
//!   mapping — so kernel-side uninitialised CVs are invisible to it.
//!   Like the real Valgrind it serialises execution (a global lock).
//! * **archer** is pure happens-before race detection with OpenMP sync
//!   knowledge but no OV/CV consistency model.
//! * **asan** red-zones *host* allocations only (the device plugin's
//!   memory is not ASan heap), so it catches transfers that walk out of
//!   an original variable but nothing on the device side.
//! * **msan** tracks byte definedness with propagation through the
//!   allocator- and memcpy-interception it has on the host toolchain; a
//!   `target update` staged through a runtime-internal buffer launders
//!   shadow — the "imprecise modelling of OpenMP constructs due to the
//!   lack of OMPT" the paper cites for the benchmark it misses.
//!
//! Together these blind spots are what Table III measures.

#![warn(missing_docs)]

pub mod archer;
pub mod asan;
pub mod memcheck;
pub mod msan;
mod sink;

pub use archer::Archer;
pub use asan::AddressSanitizer;
pub use memcheck::Memcheck;
pub use msan::MemorySanitizer;

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_obs::Registry;
use arbalest_offload::events::Tool;
use std::sync::Arc;

/// Tool names in the paper's presentation order.
pub const TOOLS: [&str; 5] = ["arbalest", "memcheck", "archer", "asan", "msan"];

/// Display name used in the paper's tables and figures.
pub fn paper_name(tool: &str) -> &'static str {
    match tool {
        "arbalest" => "Arbalest",
        "memcheck" => "Valgrind",
        "archer" => "Archer",
        "asan" => "ASan",
        "msan" => "MSan",
        _ => "?",
    }
}

/// Instantiate a tool by name (ARBALEST included): any [`TOOLS`] entry,
/// or `valgrind` for memcheck. The ARBALEST detector records into `reg`;
/// the baselines keep no metrics. `None` for an unknown name.
pub fn by_name(name: &str, reg: &Registry) -> Option<Arc<dyn Tool>> {
    Some(match name {
        "arbalest" => Arc::new(Arbalest::with_registry(ArbalestConfig::default(), reg.clone())),
        "memcheck" | "valgrind" => Arc::new(Memcheck::new()),
        "archer" => Arc::new(Archer::new()),
        "asan" => Arc::new(AddressSanitizer::new()),
        "msan" => Arc::new(MemorySanitizer::new()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_builds_every_listed_tool_and_nothing_else() {
        let reg = Registry::new();
        for name in TOOLS {
            let tool = by_name(name, &reg).unwrap_or_else(|| panic!("{name} not built"));
            assert_eq!(tool.name(), name);
        }
        assert_eq!(by_name("valgrind", &reg).map(|t| t.name()), Some("memcheck"));
        assert!(by_name("nonsense", &reg).is_none());
    }
}
