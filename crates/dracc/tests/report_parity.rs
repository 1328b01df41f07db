//! Report parity across the observability features added for causal
//! tracing and `arbalest explain`: with provenance capture disabled (the
//! default), every one of the 56 DRACC cases must produce reports that
//! are byte-identical to what the detector produced before the feature
//! existed — same renders, same order, and no provenance payload at all.
//!
//! Because the detector is deterministic under the analysis schedule,
//! the strongest checkable form of "identical to the previous PR" is:
//! default runs are self-identical (replay-stable), and a provenance-on
//! run changes *nothing* about the rendered output — the chain rides
//! alongside the report, never inside it.
//!
//! Each check runs on two runtimes. On the default one (a team of four,
//! concurrent `nowait` regions) the thread that reaches a bug first names
//! the report's address and prior access (`T<n>`), so that leg compares
//! what a report says whatever the schedule: its class, buffer, device and
//! site. With one team thread and serialized `nowait` regions the schedule
//! is fixed, and whole reports are compared.

use arbalest_core::{Arbalest, ArbalestConfig};
use arbalest_offload::events::SrcLoc;
use arbalest_offload::prelude::*;
use std::sync::Arc;

fn serial() -> Config {
    Config::default().team_size(1).serialize(true)
}

fn sweep(rt_cfg: fn() -> Config, cfg: ArbalestConfig) -> Vec<Vec<Report>> {
    arbalest_dracc::all()
        .iter()
        .map(|b| {
            let rt = Runtime::with_tool(rt_cfg(), Arc::new(Arbalest::new(cfg.clone())));
            b.run(&rt);
            rt.reports()
        })
        .collect()
}

type Said = (ReportKind, Option<String>, DeviceId, Option<SrcLoc>);

/// What each report says whatever the schedule.
fn schedule_free(sweep: &[Vec<Report>]) -> Vec<Vec<Said>> {
    sweep
        .iter()
        .map(|reports| {
            reports.iter().map(|r| (r.kind, r.buffer.clone(), r.device, r.loc)).collect()
        })
        .collect()
}

fn assert_provenance_free(sweep: &[Vec<Report>]) {
    for (bench, reports) in arbalest_dracc::all().iter().zip(sweep) {
        for r in reports {
            assert!(
                r.provenance.is_empty(),
                "{}: provenance captured with the feature off",
                bench.dracc_id()
            );
        }
    }
}

#[test]
fn default_config_reports_are_replay_stable_and_provenance_free() {
    let first = sweep(Config::default, ArbalestConfig::default());
    let second = sweep(Config::default, ArbalestConfig::default());
    assert_eq!(
        schedule_free(&first),
        schedule_free(&second),
        "default DRACC sweep must say the same on every schedule"
    );
    assert_provenance_free(&first);
    assert_provenance_free(&second);

    let first = sweep(serial, ArbalestConfig::default());
    let second = sweep(serial, ArbalestConfig::default());
    assert_eq!(first, second, "serialized DRACC sweep must be deterministic");
    assert_provenance_free(&first);
}

#[test]
fn provenance_capture_never_changes_rendered_output() {
    let off = sweep(Config::default, ArbalestConfig::default());
    let on =
        sweep(Config::default, ArbalestConfig { provenance: true, ..ArbalestConfig::default() });
    assert_eq!(
        schedule_free(&off),
        schedule_free(&on),
        "provenance capture altered what the reports say"
    );
    for (bench, on_reports) in arbalest_dracc::all().iter().zip(&on) {
        // Chains attach to the VSM-diagnosed classes (UUM/USD) — those
        // cases must actually carry one when capture is on, otherwise
        // `arbalest explain` has nothing to say.
        if matches!(bench.expected, Some(Effect::Uum | Effect::Usd)) {
            assert!(
                on_reports.iter().any(|r| !r.provenance.is_empty()),
                "{}: no provenance chain captured for a UUM/USD case",
                bench.dracc_id()
            );
        }
    }

    let off = sweep(serial, ArbalestConfig::default());
    let on = sweep(serial, ArbalestConfig { provenance: true, ..ArbalestConfig::default() });
    for ((bench, off_reports), on_reports) in arbalest_dracc::all().iter().zip(&off).zip(&on) {
        let off_text: String = off_reports.iter().map(|r| r.render()).collect();
        let on_text: String = on_reports.iter().map(|r| r.render()).collect();
        assert_eq!(
            off_text,
            on_text,
            "{}: provenance capture altered the rendered report",
            bench.dracc_id()
        );
    }
}

#[test]
fn lookup_cache_on_and_off_give_identical_reports() {
    // The per-thread CV lookup cache is a pure speed-up: on the fixed
    // schedule, every case's whole report list is the same without it.
    let on = sweep(serial, ArbalestConfig::default());
    let off = sweep(serial, ArbalestConfig { lookup_cache: false, ..ArbalestConfig::default() });
    assert_eq!(on.len(), arbalest_dracc::all().len());
    for ((bench, on), off) in arbalest_dracc::all().iter().zip(&on).zip(&off) {
        assert_eq!(on, off, "{}: reports differ with the lookup cache off", bench.dracc_id());
    }
}
