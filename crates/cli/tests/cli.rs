//! End-to-end tests of the `arbalest` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_arbalest"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_enumerates_suite() {
    let (ok, stdout, _) = run(&["list"]);
    assert!(ok);
    assert!(stdout.contains("DRACC_OMP_022"));
    assert!(stdout.contains("DRACC_OMP_056"));
    assert!(stdout.contains("postencil"));
    assert!(stdout.contains("554.pcg"));
}

#[test]
fn dracc_detects_seeded_bug() {
    let (ok, stdout, _) = run(&["dracc", "22", "--quiet"]);
    assert!(ok, "exit 0 when the bug is detected");
    assert!(stdout.contains("DETECTED"));
}

#[test]
fn dracc_reports_render_without_quiet() {
    let (_, stdout, _) = run(&["dracc", "26"]);
    assert!(stdout.contains("mapping-issue(USD)"));
    assert!(stdout.contains("Suggested fix"));
}

#[test]
fn baseline_miss_is_nonzero_exit() {
    let (ok, stdout, _) = run(&["dracc", "26", "--tool", "msan", "--quiet"]);
    assert!(!ok, "missed detection should fail the run");
    assert!(stdout.contains("missed"));
}

#[test]
fn multiple_tools_compare() {
    let (_, stdout, _) = run(&["dracc", "23", "--tool", "arbalest", "--tool", "asan", "--tool", "archer", "--quiet"]);
    assert!(stdout.matches("DETECTED").count() == 2, "{stdout}");
    assert!(stdout.contains("missed"));
}

#[test]
fn certify_partitions() {
    let (ok, stdout, _) = run(&["certify", "1"]);
    assert!(ok);
    assert!(stdout.contains("certified=true"));
    let (ok, stdout, _) = run(&["certify", "34"]);
    assert!(ok, "rejection of a buggy benchmark is the expected outcome");
    assert!(stdout.contains("certified=false"));
}

#[test]
fn spec_runs_with_preset() {
    let (ok, stdout, _) = run(&["spec", "pomriq", "--preset", "test", "--quiet"]);
    assert!(ok);
    assert!(stdout.contains("pomriq"));
    assert!(stdout.contains("checksum"));
}

#[test]
fn bad_usage_is_a_clean_error() {
    let (ok, _, stderr) = run(&["dracc", "22", "--tool", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown tool"));
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

/// Exit code and stderr of one invocation.
fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_arbalest"))
        .args(args)
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn format_a_command_cannot_emit_is_a_usage_error() {
    let mut cases = vec![(vec!["stats", "--format", "json"], "--format json")];
    for cmd in ["dracc", "spec", "lint", "fix", "optimize", "certify", "profile", "explain"] {
        cases.push((vec![cmd, "22", "--format", "prom"], "--format prom"));
    }
    cases.push((vec!["fuzz-lint", "--format", "prom"], "--format prom"));
    for (args, message) in cases {
        let (code, stderr) = exit_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_flags_are_refused_and_unread_ones_ignored() {
    for (args, message) in [
        (&["dracc", "22", "--frobnicate"][..], "unknown option '--frobnicate'"),
        (&["serve", "--frobnicate"], "unknown option '--frobnicate'"),
        (&["serve", "--idle-timeout", "inf"], "--idle-timeout needs seconds"),
        (&["serve", "--queue-cap", "8"], "unknown option '--queue-cap'"),
        (&["serve", "--max-inflight", "8"], "unknown option '--max-inflight'"),
        (&["spec", "all", "--preset", "bogus"], "unknown preset 'bogus' (want test|small|medium)"),
    ] {
        let (code, stderr) = exit_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // A flag of another command is accepted and has no effect.
    let (ok, stdout, _) = run(&["dracc", "22", "--quiet", "--listen", "x"]);
    assert!(ok);
    assert!(stdout.contains("DETECTED"), "{stdout}");
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_arbalest"))
        .args(["fix", "all", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    // The reader drops at the end of the statement, closing the pipe
    // while the command still has rows to print.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    let out = child.wait_with_output().expect("command exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.contains("DRACC_OMP_001"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn valgrind_names_the_memcheck_model() {
    let (ok, stdout, _) = run(&["dracc", "23", "--tool", "valgrind"]);
    assert!(ok, "memcheck catches the BO row");
    assert!(stdout.contains("SUMMARY: Memcheck: heap-overflow"), "{stdout}");
    assert!(stdout.contains("valgrind     1 report(s)  DETECTED"), "{stdout}");
}

#[test]
fn unified_mode_changes_verdict() {
    // Benchmark 26's staleness disappears under unified memory (§III-B):
    // detection is "missed" because the issue genuinely does not occur.
    let (ok, stdout, _) = run(&["dracc", "26", "--unified", "--quiet"]);
    assert!(!ok, "no issue manifests under unified memory");
    assert!(stdout.contains("missed"));
}

#[test]
fn lint_flags_buggy_and_clears_correct() {
    let (ok, stdout, _) = run(&["lint", "22"]);
    assert!(ok);
    assert!(stdout.contains("ArbalestStatic"));
    assert!(stdout.contains("[must]"));
    assert!(stdout.contains("Suggested fix"));
    assert!(stdout.contains("FLAGGED"));

    let (ok, stdout, _) = run(&["lint", "1"]);
    assert!(ok);
    assert!(stdout.contains("clean"));
}

#[test]
fn lint_all_covers_dracc_and_spec() {
    let (ok, stdout, _) = run(&["lint", "all", "--quiet"]);
    assert!(ok, "every buggy model flagged, every correct one silent");
    assert_eq!(stdout.matches("FLAGGED").count(), 16, "{stdout}");
    assert_eq!(stdout.lines().count(), 61, "56 DRACC + 5 SPEC rows");
    assert!(stdout.contains("pcg"));
}

#[test]
fn lint_demotes_the_data_dependent_case_to_may() {
    // DRACC 050's input may or may not be initialised (§VI-G): the
    // static verdict stays `may`, everything else buggy draws a `must`.
    let (ok, stdout, _) = run(&["lint", "50", "--quiet"]);
    assert!(ok);
    assert!(stdout.contains(" 0 must,  1 may"), "{stdout}");
}

#[test]
fn json_reports_round_trip() {
    use arbalest_offload::json::Json;
    use arbalest_offload::report::Report;

    for args in [
        vec!["dracc", "26", "--format", "json"],
        vec!["lint", "24", "--format", "json"],
        vec!["spec", "pep", "--format", "json"],
    ] {
        let (_, stdout, _) = run(&args);
        let doc = Json::parse(&stdout).expect("valid JSON");
        let results = doc.get("results").and_then(Json::as_arr).expect("results");
        assert!(!results.is_empty());
        for entry in results {
            let key = if args[0] == "lint" { "diagnostics" } else { "reports" };
            for r in entry.get(key).and_then(Json::as_arr).expect(key) {
                let report = Report::from_json(r).expect("round-trips");
                assert_eq!(report.to_json(), *r);
                assert!(report.suggested_fix.is_some(), "every report carries a hint");
            }
        }
    }
}

#[test]
fn json_mode_emits_nothing_but_json() {
    let (ok, stdout, _) = run(&["dracc", "1", "--format", "json"]);
    assert!(ok);
    assert!(Json::parse_ok(&stdout));
}

use arbalest_offload::json::Json;

trait ParseOk {
    fn parse_ok(text: &str) -> bool;
}
impl ParseOk for Json {
    fn parse_ok(text: &str) -> bool {
        Json::parse(text).is_ok()
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("arbalest-cli-{tag}-{}", std::process::id()))
}

#[test]
fn explain_reconstructs_the_must_class_vsm_path() {
    // DRACC 22 (UUM, statically a `must`): the chain has to walk the
    // stable VSM vocabulary from the host write that never mapped over,
    // through the alloc, to the faulting target read — and the rendered
    // report (with its §III-C hint) must still lead the output.
    let (ok, stdout, _) = run(&["explain", "22"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("mapping-issue(UUM)"));
    assert!(stdout.contains("Suggested fix"));
    assert!(stdout.contains("causal VSM history"));
    assert!(stdout.contains("write_host"), "{stdout}");
    assert!(stdout.contains("invalid -> host"), "{stdout}");
    assert!(stdout.contains("read_target"), "{stdout}");
    // The last edge is the faulting access itself, at the report's line.
    assert!(stdout.contains("buggy.rs:158"), "{stdout}");
}

#[test]
fn explain_reconstructs_the_may_class_vsm_path() {
    // DRACC 50 (statically demoted to `may`, §VI-G): dynamically the
    // uninitialised input is real, and the chain shows why — the buffer
    // never left `invalid` before the target read.
    let (ok, stdout, _) = run(&["explain", "50"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("mapping-issue(UUM)"));
    assert!(stdout.contains("causal VSM history"));
    assert!(stdout.contains("read_target"), "{stdout}");
    assert!(stdout.contains("invalid -> invalid"), "{stdout}");
}

#[test]
fn explain_json_carries_the_provenance_chain() {
    let (ok, stdout, _) = run(&["explain", "22", "--report", "0", "--format", "json"]);
    assert!(ok);
    let doc = Json::parse(&stdout).expect("valid JSON");
    let reports = doc.get("reports").and_then(Json::as_arr).expect("reports");
    assert_eq!(reports.len(), 1);
    let chain = reports[0].get("provenance").and_then(Json::as_arr).expect("provenance");
    assert!(!chain.is_empty());
    for step in chain {
        for key in ["op", "from", "to"] {
            assert!(step.get(key).and_then(Json::as_str).is_some(), "step missing {key}");
        }
    }
}

#[test]
fn explain_rejects_an_out_of_range_report_index() {
    let (ok, _, stderr) = run(&["explain", "22", "--report", "99"]);
    assert!(!ok);
    assert!(stderr.contains("out of range"), "{stderr}");
}

#[test]
fn check_prom_gates_exposition_conformance() {
    let good = temp_path("prom-good");
    std::fs::write(
        &good,
        "# HELP demo_total a demo counter\n# TYPE demo_total counter\ndemo_total 3\n",
    )
    .unwrap();
    let (ok, stdout, _) = run(&["check-prom", good.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("OK"), "{stdout}");

    // A sample with no preceding TYPE line is a conformance violation.
    let bad = temp_path("prom-bad");
    std::fs::write(&bad, "orphan_total 1\n").unwrap();
    let (ok, _, stderr) = run(&["check-prom", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("INVALID"), "{stderr}");
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}

#[test]
fn check_trace_accepts_real_spans_and_rejects_malformed_files() {
    // A genuine trace document out of the flight recorder must pass.
    let reg = arbalest_obs::Registry::new();
    {
        let parent = reg.span(reg.span_name("outer"));
        let _child = reg.span_child(reg.span_name("inner"), parent.context());
    }
    let spans = reg.drain_spans();
    assert!(!spans.is_empty());
    let good = temp_path("trace-good.json");
    std::fs::write(&good, arbalest_obs::chrome_trace_json(&spans)).unwrap();
    let (ok, stdout, _) = run(&["check-trace", good.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("perfetto trace OK"), "{stdout}");

    // No slices at all, and outright non-JSON, must both fail typed.
    let empty = temp_path("trace-empty.json");
    std::fs::write(&empty, "{\"traceEvents\":[]}").unwrap();
    let (ok, _, stderr) = run(&["check-trace", empty.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("INVALID"), "{stderr}");

    let junk = temp_path("trace-junk.json");
    std::fs::write(&junk, "not json at all").unwrap();
    let (ok, _, stderr) = run(&["check-trace", junk.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not JSON"), "{stderr}");
    for f in [good, empty, junk] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn fix_repairs_a_convicted_model_and_shows_the_diff() {
    let (ok, stdout, _) = run(&["fix", "22"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("REPAIRED (1 edit"), "{stdout}");
    assert!(stdout.contains("-target map(to: a) map(alloc: b)"), "{stdout}");
    assert!(stdout.contains("+target map(to: a) map(to: b)"), "{stdout}");
}

#[test]
fn fix_leaves_clean_and_may_only_models_alone() {
    // The qualified target form pins the namespace (README transcript).
    let (ok, stdout, _) = run(&["fix", "dracc/21"]);
    assert!(ok);
    assert!(stdout.contains("clean"), "{stdout}");
    // DRACC 50 is statically `may`-only (§VI-G): no invented repair.
    let (ok, stdout, _) = run(&["fix", "50"]);
    assert!(ok);
    assert!(stdout.contains(" 0 must,  1 may  clean"), "{stdout}");
}

#[test]
fn fix_all_repairs_every_must_buggy_model() {
    let (ok, stdout, _) = run(&["fix", "all", "--quiet"]);
    assert!(ok, "every Must conviction must get a verified repair\n{stdout}");
    assert_eq!(stdout.matches("REPAIRED").count(), 15, "{stdout}");
    assert!(!stdout.contains("UNREPAIRED"), "{stdout}");
    assert_eq!(stdout.lines().count(), 61, "56 DRACC + 5 SPEC rows");
}

#[test]
fn fix_json_carries_patch_and_apply_check_verdict() {
    let (ok, stdout, _) = run(&["fix", "33", "--format", "json", "--apply-check"]);
    assert!(ok);
    let doc = Json::parse(&stdout).expect("valid JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("fix"));
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert_eq!(r.get("repaired").and_then(Json::as_bool), Some(true));
    let edits = r.get("patch").and_then(|p| p.get("edits")).and_then(Json::as_arr).expect("edits");
    assert_eq!(edits.len(), 1);
    assert!(edits[0].get("op").and_then(Json::as_str).is_some());
    assert!(edits[0].get("describe").and_then(Json::as_str).is_some());
    // `--apply-check` embeds the same verdict shape fuzz-lint emits.
    let verdict = r.get("verdict").expect("verdict present under --apply-check");
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(verdict.get("static_must").and_then(Json::as_u64), Some(0));
}

#[test]
fn optimize_sheds_redundant_transfers_with_parity() {
    let (ok, stdout, _) = run(&["optimize", "spec/pep", "--apply-check"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("saved"), "{stdout}");
    assert!(stdout.contains("[apply-check: verified]"), "{stdout}");
    assert!(stdout.contains("map(alloc: counts)"), "{stdout}");
}

#[test]
fn optimize_json_reports_totals() {
    let (ok, stdout, _) = run(&["optimize", "pep", "--format", "json"]);
    assert!(ok);
    let doc = Json::parse(&stdout).expect("valid JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("optimize"));
    let saved = doc.get("saved").and_then(Json::as_u64).expect("saved");
    assert!(saved > 0, "{stdout}");
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    assert!(results[0].get("patch").and_then(|p| p.get("edits")).is_some());
}

#[test]
fn fuzz_lint_json_carries_precision_and_per_case_verdicts() {
    let (ok, stdout, _) = run(&["fuzz-lint", "--seeds", "4", "--format", "json"]);
    assert!(ok);
    let doc = Json::parse(&stdout).expect("valid JSON");
    assert!(doc.get("precision").is_some(), "precision ratio in the document");
    let verdicts = doc.get("verdicts").and_then(Json::as_arr).expect("verdicts");
    // 4 generated seeds + all 56 DRACC models, one verdict each.
    assert_eq!(verdicts.len(), 60, "{stdout}");
    for v in verdicts {
        assert!(v.get("name").and_then(Json::as_str).is_some());
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn profile_json_is_machine_readable() {
    let (ok, stdout, _) = run(&["profile", "22", "--format", "json"]);
    assert!(ok);
    let doc = Json::parse(&stdout).expect("valid JSON");
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("profile"));
    assert!(doc.get("metrics").is_some(), "metrics document embedded");
    assert!(doc.get("spans").and_then(Json::as_arr).is_some(), "span list embedded");
}

/// A served instance on a unix socket, stopped (or killed) when dropped.
struct Served {
    child: std::process::Child,
    addr: String,
    sock: std::path::PathBuf,
}

impl Served {
    fn start(name: &str) -> Served {
        let sock = std::env::temp_dir()
            .join(format!("arbalest-cli-{name}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let addr = format!("unix:{}", sock.display());
        let child = Command::new(env!("CARGO_BIN_EXE_arbalest"))
            .args(["serve", "--listen", &addr, "--shards", "1"])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("server starts");
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        Served { child, addr, sock }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let (stopped, _, _) = run(&["stop", "--connect", &self.addr]);
        if !stopped {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

#[test]
fn stats_name_report_kinds_by_their_labels() {
    // DRACC 22 reads a never-initialised device copy: one UUM report,
    // counted under the label the Prometheus export uses too.
    let served = Served::start("stats");
    let (ok, _, stderr) = run(&["submit", "22", "--connect", &served.addr, "--quiet"]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = run(&["stats", "--connect", &served.addr]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("reports[mapping-issue(UUM)]: 1\n"), "{stdout}");
    assert_eq!(stdout.matches("reports[").count(), 1, "{stdout}");
    let (ok, prom, stderr) = run(&["stats", "--format", "prom", "--connect", &served.addr]);
    assert!(ok, "{stderr}");
    assert!(prom.contains("arbalest_server_reports_total{kind=\"mapping-issue(UUM)\"} 1"), "{prom}");
}
