//! The fleet extends the artifact determinism gate: a 256-host fleet's
//! JSON summary, trace journals, FLEET.md, telemetry document and the
//! ALERTS.md rendered from it are byte-identical at any worker count and
//! across repeated runs (DESIGN.md §15–16).
//!
//! Worker counts are pinned through each run's `threads`, not
//! `HAWKEYE_BENCH_THREADS`, so the test stays race-free under parallel
//! test execution.

use hawkeye_analyze::fleet::fleet_md;
use hawkeye_analyze::summary::parse_summary;
use hawkeye_bench::suite::fleet_slo::report_with;
use hawkeye_bench::Run;
use hawkeye_fleet::FleetConfig;
use hawkeye_obs::{alerts_md, ObsDoc};
use hawkeye_trace::trace_doc_string;

/// One full 256-host fleet run at `threads` workers, reduced to the five
/// artifact byte-streams the determinism gate covers:
/// `[summary, trace_doc, fleet_md, obs_doc, alerts_md]`.
fn artifacts(threads: usize) -> [String; 5] {
    let cfg = FleetConfig::sized(256);
    let mut run = Run::new(threads);
    let report = report_with(&cfg, &mut run);
    let summary = report.json().to_string();
    assert!(!run.journals.is_empty(), "fleet must persist journaled hosts");
    let trace = trace_doc_string("fleet_slo", &run.journals);
    let doc = parse_summary(&summary).expect("fleet summary parses");
    let fleet = fleet_md(&doc).expect("fleet_slo renders FLEET.md");
    let obs = run.obs_doc.expect("the fleet run keeps its obs document");
    // ALERTS.md is rendered from the parsed artifact, as hawkeye-report
    // does, so this also pins the writer/parser round trip.
    let alerts = alerts_md(&ObsDoc::parse(&obs).expect("obs doc parses back"));
    [summary, trace, fleet, obs, alerts]
}

const NAMES: [&str; 5] = ["JSON summary", "trace document", "FLEET.md", "obs document", "ALERTS.md"];

#[test]
fn fleet_artifacts_are_byte_identical_across_worker_counts_and_runs() {
    let one = artifacts(1);
    let eight = artifacts(8);
    // Same thread count, fresh run: the orchestrator owns all its RNG
    // state, so a repeat is bit-for-bit the same.
    let again = artifacts(8);
    for (i, name) in NAMES.iter().enumerate() {
        assert_eq!(one[i], eight[i], "{name} must not depend on worker count");
        assert_eq!(eight[i], again[i], "{name} must be stable across runs");
    }

    // Sanity: both cohorts are present and the steered cohort steered.
    let [summary, trace, fleet, obs, alerts] = &one;
    for needle in ["HawkEye-G+throttle", "Linux-2MB+noop", "\"steer_decisions\""] {
        assert!(summary.contains(needle), "missing {needle:?} in summary");
    }
    assert!(fleet.contains("## Tenancy and steering"));
    assert!(trace.contains("fleet_slo"), "trace doc carries the target name");

    // The telemetry document is structurally complete.
    let doc = ObsDoc::parse(obs).expect("obs doc parses back");
    assert_eq!(doc.target, "fleet_slo");
    assert_eq!(doc.cohorts.len(), 2, "both cohorts observed");
    for c in &doc.cohorts {
        assert!(!c.series.points.is_empty(), "per-epoch series populated");
    }
    for needle in
        ["# Fleet SLO alerts", "HawkEye-G+throttle", "Linux-2MB+noop", "Per-epoch series"]
    {
        assert!(alerts.contains(needle), "missing {needle:?} in ALERTS.md:\n{alerts}");
    }
}
