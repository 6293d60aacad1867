//! PR 10's three workload families extend the artifact determinism
//! gate: `oltp_btree`, `hpc_stencil`, and `adversarial` must produce
//! byte-identical JSON summaries and trace journals at any worker count
//! and across repeated runs — and for `adversarial`, the generated
//! ENVELOPES.md atlas must be byte-stable too, since the knee table is
//! a published claim about where policies break.
//!
//! Worker counts are pinned through each traced run's `threads`, not
//! `HAWKEYE_BENCH_THREADS`, so the test stays race-free under parallel
//! test execution. The targets run at reduced scale (shorter victim,
//! smaller tree/grid, two-point intensity sweep): determinism is a
//! property of the engine and the generators, not of the workload
//! length, and the full-scale sweep is unaffordable under the dev
//! profile.

use hawkeye_analyze::envelope::envelopes_md;
use hawkeye_analyze::summary::parse_summary;
use hawkeye_bench::suite::{adversarial, hpc_stencil, oltp_btree};
use hawkeye_bench::Run;
use hawkeye_trace::{parse_trace, trace_doc_string};

/// One reduced-scale traced run of a family at `threads` workers,
/// reduced to the summary JSON and trace-document byte streams.
fn family(target: &str, threads: usize) -> (String, String) {
    let mut run = Run::new(threads, true, false);
    let report = match target {
        "oltp_btree" => oltp_btree::report_with(8, 20_000, &mut run),
        "hpc_stencil" => hpc_stencil::report_with(4, 8, &mut run),
        "adversarial" => adversarial::report_with(50_000, &[0.0, 0.75], &mut run),
        other => panic!("unknown family {other}"),
    };
    let summary = report.json().to_string();
    assert!(!run.journals.is_empty(), "{target}: traced run must keep journals");
    let trace = trace_doc_string(target, &run.journals);
    (summary, trace)
}

/// The adversarial family additionally renders the failure-envelope
/// atlas; its bytes ride the same gate.
fn envelopes(summary: &str, trace: &str) -> String {
    let doc = parse_summary(summary).expect("adversarial summary parses");
    let td = parse_trace(trace).expect("adversarial trace parses");
    envelopes_md(&doc, Some(&td)).expect("adversarial renders ENVELOPES.md")
}

#[test]
fn family_artifacts_are_byte_identical_across_worker_counts_and_runs() {
    for target in ["oltp_btree", "hpc_stencil", "adversarial"] {
        let (sum1, trace1) = family(target, 1);
        let (sum8, trace8) = family(target, 8);
        assert_eq!(
            sum1, sum8,
            "{target}: JSON summary must not depend on worker count"
        );
        assert_eq!(
            trace1, trace8,
            "{target}: trace document must not depend on worker count"
        );

        if target == "adversarial" {
            let env1 = envelopes(&sum1, &trace1);
            let env8 = envelopes(&sum8, &trace8);
            assert_eq!(env1, env8, "ENVELOPES.md must not depend on worker count");
            assert!(
                env1.contains("## Failure knees"),
                "atlas must tabulate knees"
            );

            // Same thread count, fresh run: every cell re-simulates from
            // its own seeds, so repeat runs must reproduce the atlas.
            let (sum8b, trace8b) = family(target, 8);
            assert_eq!(sum8, sum8b, "adversarial: repeat run drifted the summary");
            assert_eq!(trace8, trace8b, "adversarial: repeat run drifted the trace");
            assert_eq!(
                env8,
                envelopes(&sum8b, &trace8b),
                "repeat run drifted ENVELOPES.md"
            );
        }
    }
}
