//! Cross-crate integration tests: the full stack (runtime → events →
//! detectors) exercised end to end.

use arbalest::baselines::{AddressSanitizer, Archer, Memcheck, MemorySanitizer};
use arbalest::core::{certify, Arbalest, ArbalestConfig};
use arbalest::prelude::*;
use arbalest::spec::Preset;
use arbalest_obs::Registry;
use std::sync::Arc;

/// All five tools attached to ONE runtime: they share the event stream
/// without interfering (the paper's "same infrastructure" setup).
#[test]
fn five_tools_coexist_on_one_runtime() {
    let rt = Runtime::new(Config::default());
    rt.attach(Arc::new(Arbalest::new(ArbalestConfig::default())));
    rt.attach(Arc::new(Memcheck::new()));
    rt.attach(Arc::new(Archer::new()));
    rt.attach(Arc::new(AddressSanitizer::new()));
    rt.attach(Arc::new(MemorySanitizer::new()));

    // The Fig. 1 bug: ARBALEST and MSan fire, the others stay silent.
    let b = rt.alloc_with::<f64>("b", 32, |_| 1.0);
    let c = rt.alloc_with::<f64>("c", 32, |_| 0.0);
    rt.target().map(Map::alloc(&b)).map(Map::tofrom(&c)).run(move |k| {
        k.par_for(0..32, |k, i| {
            let v = k.read(&b, i);
            k.write(&c, i, v);
        });
    });

    assert!(rt.reports_of("arbalest").iter().any(|r| r.kind == ReportKind::MappingUum));
    assert!(rt.reports_of("msan").iter().any(|r| r.kind == ReportKind::UninitRead));
    assert!(rt.reports_of("memcheck").is_empty());
    assert!(rt.reports_of("archer").is_empty());
    assert!(rt.reports_of("asan").is_empty());
}

/// Theorem-1 certification across the whole DRACC suite: every correct
/// benchmark certifies; every buggy one is rejected.
#[test]
fn certification_partitions_the_dracc_suite() {
    for b in arbalest::dracc::correct() {
        let cert = certify(Config::default(), |rt| b.run(rt));
        assert!(cert.certified(), "{} must certify: {:?}", b.dracc_id(), cert);
    }
    for b in arbalest::dracc::buggy() {
        let cert = certify(Config::default(), |rt| b.run(rt));
        assert!(!cert.certified(), "{} must be rejected", b.dracc_id());
    }
}

/// Instrumentation must not perturb results: every SPEC-like workload
/// produces the same checksum native and under every tool.
#[test]
fn checksums_are_tool_invariant() {
    for w in arbalest::spec::workloads() {
        let native = {
            let rt = Runtime::new(Config::default().team_size(2));
            (w.run)(&rt, Preset::Test)
        };
        for tool in arbalest::baselines::TOOLS {
            let t = arbalest::baselines::by_name(tool, &Registry::new()).expect("known tool");
            let rt = Runtime::with_tool(Config::default().team_size(2), t);
            let sum = (w.run)(&rt, Preset::Test);
            let tol = 1e-9 * native.abs().max(1.0);
            assert!(
                (sum - native).abs() <= tol,
                "{} under {tool}: {sum} vs native {native}",
                w.name
            );
        }
    }
}

/// The five spec workloads are clean under ARBALEST (no false positives
/// on realistic applications, not just micro-benchmarks).
#[test]
fn spec_workloads_clean_under_arbalest() {
    for w in arbalest::spec::workloads() {
        let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
        let rt = Runtime::with_tool(Config::default().team_size(2), tool.clone());
        (w.run)(&rt, Preset::Test);
        assert!(tool.reports().is_empty(), "{}: {:?}", w.name, tool.reports());
    }
}

/// Space accounting: shadow memory scales with the touched footprint and
/// ARBALEST's footprint stays close to Archer's (Fig. 9's key shape).
#[test]
fn space_accounting_tracks_footprint() {
    let run = |tool: Arc<dyn Tool>, n: usize| -> u64 {
        let rt = Runtime::with_tool(Config::default().team_size(2), tool);
        let a = rt.alloc_with::<f64>("a", n, |_| 1.0);
        rt.target().map(Map::tofrom(&a)).run(move |k| {
            k.par_for(0..n, |k, i| {
                let v = k.read(&a, i);
                k.write(&a, i, v + 1.0);
            });
        });
        rt.tool_bytes()
    };
    let small = run(Arc::new(Arbalest::new(ArbalestConfig::default())), 1_000);
    let large = run(Arc::new(Arbalest::new(ArbalestConfig::default())), 64_000);
    assert!(large > 4 * small, "shadow must scale with footprint: {small} -> {large}");

    let arb = run(Arc::new(Arbalest::new(ArbalestConfig::default())), 16_000);
    let arch = run(Arc::new(Archer::new()), 16_000);
    let ratio = arb as f64 / arch as f64;
    assert!(
        (0.5..4.0).contains(&ratio),
        "Arbalest/Archer footprint ratio out of family: {ratio}"
    );
}

/// Reports survive the facade: render end-to-end through the `arbalest`
/// crate's re-exports.
#[test]
fn facade_reexports_work() {
    let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
    let rt = Runtime::with_tool(Config::default(), tool.clone());
    let a = rt.alloc::<f64>("a", 8);
    let _ = rt.read(&a, 0); // UUM on the host: never initialised
    let reports = tool.reports();
    assert_eq!(reports.len(), 1);
    let text = reports[0].render();
    assert!(text.contains("mapping-issue(UUM)"));
    assert!(text.contains("'a'"));
}

/// A kernel overflow that lands inside ANOTHER variable's CV is
/// attributed as §IV-D's undefined-behaviour case, naming both buffers.
#[test]
fn overflow_into_neighbour_names_both_variables() {
    let tool = Arc::new(Arbalest::new(ArbalestConfig::default()));
    let rt = Runtime::with_tool(Config::default(), tool.clone());
    let a = rt.alloc_with::<f64>("alpha", 8, |_| 1.0);
    let b = rt.alloc_with::<f64>("beta", 8, |_| 2.0);
    rt.target().map(Map::to(&a)).map(Map::to(&b)).run(move |k| {
        k.for_each(0..1, |k, _| {
            // 8 elements + 64-byte gap = 16 elements to reach beta's CV.
            let _ = k.read(&a, 16);
        });
    });
    let reports = tool.reports();
    let bo = reports.iter().find(|r| r.kind == ReportKind::MappingOverflow).expect("BO");
    assert!(bo.message.contains("alpha") && bo.message.contains("beta"), "{}", bo.message);
}
