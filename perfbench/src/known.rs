//! Known answers, written down independently of the detector.
//!
//! Every op of every workload is checked against one of these; a
//! mismatch counts as a failed op and feeds `error_rate`.

use arbalest_offload::prelude::*;
use arbalest_static::{Diagnostic, Severity};

/// Table III of the paper: the seeded effect of each buggy DRACC id.
/// DRACC 034 sits in the USD row but manifests as a kernel-side UUM.
pub fn table3(id: u32) -> Option<Effect> {
    match id {
        22 | 24 | 34 | 49 | 50 | 51 => Some(Effect::Uum),
        23 | 25 | 28 | 29 | 30 | 31 => Some(Effect::Bo),
        26 | 27 | 32 | 33 => Some(Effect::Usd),
        _ => None,
    }
}

/// A DRACC case is right when the suite's own label agrees with Table III
/// and the detector reported exactly what that row says: a report
/// crediting the seeded effect on a buggy case, nothing on a correct one.
pub fn dracc_ok(truth: Option<Effect>, labelled: Option<Effect>, reports: &[Report]) -> bool {
    truth == labelled
        && match truth {
            Some(effect) => reports.iter().any(|r| r.kind.credits_effect(effect)),
            None => reports.is_empty(),
        }
}

/// A correct SPEC-like program under the detector: same checksum as the
/// uninstrumented run (up to reduction-order rounding) and no report.
pub fn spec_ok(checksum: f64, native: f64, reports: usize) -> bool {
    reports == 0 && (checksum - native).abs() <= 1e-9 * native.abs().max(1.0)
}

/// DRACC ids whose seeded bug draws a `Must` static verdict.
const MUST_BUGGY: [u32; 15] = [22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 49, 51];

/// The static verdict `table_static` records for one IR model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticVerdict {
    /// At least one `Must` diagnostic.
    Must,
    /// No `Must`, at least one `May` (DRACC 050: input-dependent init).
    MayOnly,
    /// No diagnostic at all (40 correct DRACC models, 5 SPEC models).
    Clean,
}

/// The `table_static` row of a DRACC id (`None` for a SPEC model).
pub fn static_verdict(dracc_id: Option<u32>) -> StaticVerdict {
    match dracc_id {
        Some(id) if MUST_BUGGY.contains(&id) => StaticVerdict::Must,
        Some(50) => StaticVerdict::MayOnly,
        _ => StaticVerdict::Clean,
    }
}

pub fn static_ok(want: StaticVerdict, diags: &[Diagnostic]) -> bool {
    let must = diags
        .iter()
        .filter(|d| d.severity == Severity::Must)
        .count();
    let may = diags.len() - must;
    match want {
        StaticVerdict::Must => must > 0,
        StaticVerdict::MayOnly => must == 0 && may > 0,
        StaticVerdict::Clean => diags.is_empty(),
    }
}

/// Run at start-up: a deliberately wrong expectation must be counted as
/// a failure, or the checks above could be passing vacuously.
pub fn self_test() -> Result<(), String> {
    let mut tally = crate::stats::Tally::default();
    let correct = arbalest_dracc::by_id(1).ok_or("DRACC 001 missing")?;
    let buggy = arbalest_dracc::by_id(22).ok_or("DRACC 022 missing")?;
    for (case, wrong) in [(&correct, Some(Effect::Bo)), (&buggy, None)] {
        let tool = std::sync::Arc::new(arbalest_core::Arbalest::default());
        let rt = Runtime::with_tool(Config::default().team_size(2), tool);
        case.run(&rt);
        tally.record(dracc_ok(wrong, wrong, &rt.reports()));
    }
    tally.record(spec_ok(1.0, 1.5, 0));
    tally.record(static_ok(StaticVerdict::Clean, &[wrong_diagnostic()]));
    if tally.failed == tally.attempted {
        Ok(())
    } else {
        Err(format!(
            "{} of {} wrong expectations passed",
            tally.attempted - tally.failed,
            tally.attempted
        ))
    }
}

fn wrong_diagnostic() -> Diagnostic {
    Diagnostic {
        severity: Severity::May,
        kind: ReportKind::MappingUum,
        buffer: "a".into(),
        device: DeviceId::ACCEL0,
        section: (0, 8),
        message: String::new(),
        suggested_fix: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_expectations_are_counted() {
        self_test().expect("every wrong expectation must fail");
    }

    #[test]
    fn table3_matches_the_suite_labels() {
        for b in arbalest_dracc::all() {
            assert_eq!(table3(b.id), b.expected, "{}", b.dracc_id());
        }
    }

    #[test]
    fn right_expectations_pass() {
        let b = arbalest_dracc::by_id(22).expect("DRACC 022");
        let rt = Runtime::with_tool(
            Config::default().team_size(2),
            std::sync::Arc::new(arbalest_core::Arbalest::default()),
        );
        b.run(&rt);
        assert!(dracc_ok(table3(22), b.expected, &rt.reports()));
        assert!(spec_ok(2.0, 2.0, 0));
    }
}
