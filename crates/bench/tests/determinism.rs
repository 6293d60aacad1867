//! The engine's core guarantee: a bench target's stdout text and JSON
//! summary are byte-identical at any worker count.
//!
//! Runs a representative policy × workload matrix (the Table-1 shape:
//! fault-measured simulations with per-row JSON) once on 1 worker and
//! once on 8, and compares the fully-formatted [`Report`] output.
//! Worker counts are pinned through [`Run::new`], not the
//! `HAWKEYE_BENCH_THREADS` environment variable, so this test stays
//! race-free when cargo runs tests in parallel.

use hawkeye_bench::{run_one, PolicyKind, Report, Row, Run, Scenario};
use hawkeye_metrics::json::Json;
use hawkeye_trace::trace_json;
use hawkeye_workloads::Spinup;

const KINDS: [PolicyKind; 5] = [
    PolicyKind::Linux4k,
    PolicyKind::Linux2m,
    PolicyKind::Ingens,
    PolicyKind::HawkEyePmu,
    PolicyKind::HawkEyeG,
];

/// A small but real matrix: each cell allocates and touches memory
/// through the whole policy/fault stack.
fn matrix() -> Vec<Scenario<Row>> {
    KINDS
        .iter()
        .map(|kind| {
            let kind = *kind;
            Scenario::new(kind.label(), move || {
                let out =
                    run_one(kind, 128, None, 30.0, Box::new(Spinup::new("spin", 8 * 1024)));
                Row::new(vec![
                    kind.label().to_string(),
                    out.faults().to_string(),
                    format!("{:.3}", out.avg_fault_us()),
                    format!("{:.4}", out.exec_secs()),
                ])
                .with_json(Json::obj(vec![
                    ("policy", Json::str(kind.label())),
                    ("faults", Json::int(out.faults())),
                    ("avg_fault_us", Json::num(out.avg_fault_us())),
                    ("exec_secs", Json::num(out.exec_secs())),
                ]))
            })
        })
        .collect()
}

fn render(threads: usize) -> (String, String) {
    let mut report = Report::new(
        "determinism_matrix",
        "Determinism check: Spinup faults across policies",
        vec!["Policy", "faults", "avg fault (us)", "exec (s)"],
    );
    report.extend(Run::new(threads, false, false).scenarios(matrix()));
    (report.text(), report.json().to_string())
}

#[test]
fn one_worker_equals_eight_workers() {
    let (text1, json1) = render(1);
    let (text8, json8) = render(8);
    assert_eq!(text1, text8, "formatted table must not depend on worker count");
    assert_eq!(json1, json8, "JSON summary must not depend on worker count");
    // Sanity: the matrix actually produced per-policy rows.
    for kind in KINDS {
        assert!(text1.contains(kind.label()), "missing row for {}", kind.label());
        assert!(json1.contains(kind.label()));
    }
}

#[test]
fn trace_journals_match_at_one_and_eight_workers() {
    // The determinism rule extends to traces: per-scenario journals come
    // back in submission order with machine ids assigned per scenario, so
    // the serialized `.trace.json` document is byte-identical at any
    // worker count. Tracing is switched on per run, not through the
    // `HAWKEYE_TRACE` environment variable, keeping the test race-free.
    let journals = |threads| {
        let mut run = Run::new(threads, true, false);
        run.scenarios(matrix());
        run.journals
    };
    let (journals1, journals8) = (journals(1), journals(8));
    let doc1 = trace_json("determinism_matrix", &journals1).to_string();
    let doc8 = trace_json("determinism_matrix", &journals8).to_string();
    assert_eq!(doc1, doc8, "trace document must not depend on worker count");
    // Sanity: the journals hold real fault events for every scenario.
    assert_eq!(journals1.len(), KINDS.len());
    for (name, journal) in &journals1 {
        assert!(!journal.records.is_empty(), "{name}: empty journal");
    }
    assert!(doc1.contains(r#""kind":"fault""#));
}

#[test]
fn oversubscribed_pool_matches_serial() {
    // More workers than scenarios: the cursor hands each worker at most
    // one job; order must still be submission order.
    let (text1, json1) = render(1);
    let (text32, json32) = render(32);
    assert_eq!(text1, text32);
    assert_eq!(json1, json32);
}
