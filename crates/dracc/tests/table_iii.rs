//! The Table III experiment as a test: run all 56 benchmarks under all
//! five tools and assert the detection matrix the paper reports.
//!
//! | Benchmarks             | Effect | Arbalest | Valgrind | Archer | ASan | MSan |
//! |------------------------|--------|----------|----------|--------|------|------|
//! | 22, 24, 49, 50, 51     | UUM    | ✓        | -        | -      | -    | ✓    |
//! | 23, 25, 28, 29, 30, 31 | BO     | ✓        | ✓        | -      | ✓    | -    |
//! | 26, 27, 32, 33, 34     | USD    | ✓        | -        | -      | -    | -    |
//! | 40 correct benchmarks  | —      | no false positives from any tool |

use arbalest_baselines::by_name;
use arbalest_obs::Registry;
use arbalest_offload::prelude::*;

/// Run one benchmark under one tool; return whether the tool credited the
/// benchmark's seeded effect (or reported anything, for correct ones).
fn detections(bench: &arbalest_dracc::Benchmark, tool_name: &'static str) -> Vec<Report> {
    let tool = by_name(tool_name, &Registry::new()).expect("known tool");
    let rt = Runtime::with_tool(Config::default(), tool);
    bench.run(&rt);
    rt.reports()
}

fn detects(bench: &arbalest_dracc::Benchmark, tool: &'static str) -> bool {
    let effect = bench.expected.expect("buggy benchmark");
    detections(bench, tool).iter().any(|r| r.kind.credits_effect(effect))
}

#[test]
fn uum_row_arbalest_and_msan_only() {
    for id in [22u32, 24, 49, 50, 51] {
        let b = arbalest_dracc::by_id(id).unwrap();
        assert!(detects(&b, "arbalest"), "arbalest must catch {}", b.dracc_id());
        assert!(detects(&b, "msan"), "msan must catch {}", b.dracc_id());
        assert!(!detects(&b, "memcheck"), "memcheck must miss {}", b.dracc_id());
        assert!(!detects(&b, "archer"), "archer must miss {}", b.dracc_id());
        assert!(!detects(&b, "asan"), "asan must miss {}", b.dracc_id());
    }
}

#[test]
fn bo_row_arbalest_valgrind_asan() {
    for id in [23u32, 25, 28, 29, 30, 31] {
        let b = arbalest_dracc::by_id(id).unwrap();
        assert!(detects(&b, "arbalest"), "arbalest must catch {}", b.dracc_id());
        assert!(detects(&b, "memcheck"), "memcheck must catch {}", b.dracc_id());
        assert!(detects(&b, "asan"), "asan must catch {}", b.dracc_id());
        assert!(!detects(&b, "archer"), "archer must miss {}", b.dracc_id());
        assert!(!detects(&b, "msan"), "msan must miss {}", b.dracc_id());
    }
}

#[test]
fn usd_row_arbalest_only() {
    for id in [26u32, 27, 32, 33, 34] {
        let b = arbalest_dracc::by_id(id).unwrap();
        assert!(detects(&b, "arbalest"), "arbalest must catch {}", b.dracc_id());
        for tool in ["memcheck", "archer", "asan", "msan"] {
            assert!(!detects(&b, tool), "{tool} must miss {}", b.dracc_id());
        }
    }
}

#[test]
fn overall_score_matches_paper() {
    let buggy = arbalest_dracc::buggy();
    let score = |tool: &'static str| buggy.iter().filter(|b| detects(b, tool)).count();
    assert_eq!(score("arbalest"), 16, "Arbalest 16/16");
    assert_eq!(score("memcheck"), 6, "Valgrind 6/16");
    assert_eq!(score("archer"), 0, "Archer 0/16");
    assert_eq!(score("asan"), 6, "ASan 6/16");
    assert_eq!(score("msan"), 5, "MSan 5/16");
}

#[test]
fn no_false_positives_on_correct_benchmarks() {
    for b in arbalest_dracc::correct() {
        for tool in ["arbalest", "memcheck", "archer", "asan", "msan"] {
            let reports = detections(&b, tool);
            assert!(
                reports.is_empty(),
                "{tool} false positive on {}: {:?}",
                b.dracc_id(),
                reports.iter().map(|r| (r.kind, r.message.clone())).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn arbalest_classifies_effects_correctly() {
    // Beyond detection: ARBALEST's report kind must name the observable
    // anomaly (UUM vs USD vs BO), per §V-B.
    for b in arbalest_dracc::buggy() {
        let reports = detections(&b, "arbalest");
        let effect = b.expected.unwrap();
        let want = match effect {
            Effect::Uum => ReportKind::MappingUum,
            Effect::Usd => ReportKind::MappingUsd,
            Effect::Bo => ReportKind::MappingOverflow,
            Effect::Race => ReportKind::DataRace,
        };
        assert!(
            reports.iter().any(|r| r.kind == want),
            "{} expected {:?}, got {:?}",
            b.dracc_id(),
            want,
            reports.iter().map(|r| r.kind).collect::<Vec<_>>()
        );
    }
}

#[test]
fn arbalest_reports_carry_actionable_context() {
    let b = arbalest_dracc::by_id(22).unwrap();
    let reports = detections(&b, "arbalest");
    let r = reports.iter().find(|r| r.kind == ReportKind::MappingUum).unwrap();
    assert_eq!(r.buffer.as_deref(), Some("b"));
    assert!(r.loc.is_some(), "source location captured");
    assert!(r.suggested_fix.is_some(), "repair hint present (§III-C)");
    let rendered = r.render();
    assert!(rendered.contains("mapping-issue(UUM)"));
}
