//! # arbalest-spec
//!
//! SPEC-ACCEL-like workloads for the performance evaluation (§VI-E/F):
//! five kernels with the computational shape of the five OpenMP
//! benchmarks the paper measures, plus the buggy 503.postencil 1.2
//! pointer-swap variant of §VI-D.
//!
//! | Here        | SPEC ACCEL    | Shape |
//! |-------------|---------------|-------|
//! | `postencil` | 503.postencil | 3-D 7-point Jacobi stencil |
//! | `polbm`     | 504.polbm     | lattice-Boltzmann-style stream + collide |
//! | `pomriq`    | 514.pomriq    | MRI-Q: dense trigonometric inner product |
//! | `pep`       | 552.pep       | embarrassingly parallel RNG tallies |
//! | `pcg`       | 554.pcg       | conjugate-gradient iterations |
//!
//! Each workload runs against the offloading runtime (all memory accesses
//! tracked), returns a checksum, and self-verifies at the `Test` preset.

#![warn(missing_docs)]

pub mod ir_models;
pub mod pcg;
pub mod pep;
pub mod polbm;
pub mod pomriq;
pub mod postencil;

use arbalest_offload::prelude::*;

/// Problem size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Tiny: for unit tests (sub-millisecond native).
    Test,
    /// The Fig. 8 / Fig. 9 measurement size (tens of ms native).
    Small,
    /// Larger runs for scaling studies.
    Medium,
}

impl std::str::FromStr for Preset {
    type Err = String;

    fn from_str(s: &str) -> Result<Preset, String> {
        match s {
            "test" => Ok(Preset::Test),
            "small" => Ok(Preset::Small),
            "medium" => Ok(Preset::Medium),
            _ => Err(format!("unknown preset '{s}' (want test|small|medium)")),
        }
    }
}

/// A runnable workload.
pub struct Workload {
    /// Short name.
    pub name: &'static str,
    /// SPEC ACCEL benchmark id it mirrors.
    pub spec_id: &'static str,
    /// Entry point; returns a checksum.
    pub run: fn(&Runtime, Preset) -> f64,
}

/// The five correct workloads, in the paper's order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload { name: "postencil", spec_id: "503.postencil", run: postencil::run },
        Workload { name: "polbm", spec_id: "504.polbm", run: polbm::run },
        Workload { name: "pomriq", spec_id: "514.pomriq", run: pomriq::run },
        Workload { name: "pep", spec_id: "552.pep", run: pep::run },
        Workload { name: "pcg", spec_id: "554.pcg", run: pcg::run },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_workloads_match_spec_ids() {
        let w = workloads();
        assert_eq!(w.len(), 5);
        assert_eq!(w[0].spec_id, "503.postencil");
        assert_eq!(w[4].spec_id, "554.pcg");
    }

    #[test]
    fn presets_parse_by_name_and_refuse_the_rest() {
        for (name, p) in
            [("test", Preset::Test), ("small", Preset::Small), ("medium", Preset::Medium)]
        {
            assert_eq!(name.parse::<Preset>(), Ok(p));
        }
        for bad in ["", "bogus", "Small", "small "] {
            let err = bad.parse::<Preset>().unwrap_err();
            assert!(err.contains("test|small|medium"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn team_4_reductions_repeat_bit_for_bit() {
        for name in ["pcg", "pep"] {
            let w = by_name(name).expect("known workload");
            let bits: Vec<u64> = (0..10)
                .map(|_| (w.run)(&Runtime::new(Config::default().team_size(4)), Preset::Test).to_bits())
                .collect();
            assert!(bits.iter().all(|b| *b == bits[0]), "{name}: {bits:x?}");
        }
    }

    #[test]
    fn all_run_and_produce_finite_checksums() {
        for w in workloads() {
            let rt = Runtime::new(Config::default().team_size(2));
            let sum = (w.run)(&rt, Preset::Test);
            assert!(sum.is_finite(), "{}", w.name);
        }
    }
}
