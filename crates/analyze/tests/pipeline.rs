//! End-to-end test of the trace→analyze pipeline on real bench journals:
//! the analyzer's report must be byte-identical regardless of how many
//! workers produced the journal (the bench determinism rule extends
//! through the reader). The writer/reader round trip itself is pinned
//! next to the codec, in `hawkeye_trace::doc`.

use hawkeye_analyze::{contention, report, residues};
use hawkeye_bench::{run_one, PolicyKind, Run, Scenario};
use hawkeye_kernel::Simulator;
use hawkeye_metrics::Cycles;
use hawkeye_trace::{parse_trace, trace_json};
use hawkeye_workloads::AllocTouch;

/// Two policies, long enough (~280 simulated ms) that the 100 ms sampler
/// emits `cycle_sample` snapshots into the journal. HawkEye-PMU also
/// drains per-pid PMU windows, journaling the `quantum_end` events the
/// MMU-overhead reconstruction reads.
fn matrix() -> Vec<Scenario<u64>> {
    let mut scenarios: Vec<Scenario<u64>> = [PolicyKind::Linux2m, PolicyKind::HawkEyePmu]
        .into_iter()
        .map(|kind| {
            Scenario::new(kind.label(), move || {
                run_one(kind, 64, Some((1.0, 0.55)), 10.0, Box::new(AllocTouch::new(4096, 30, 5000)))
                    .faults()
            })
        })
        .collect();
    // A 4-core run: its journal carries `contention` records from the
    // deterministic replay, so the report grows the contention table —
    // which must be just as worker-count-independent as the rest.
    scenarios.push(Scenario::sim(
        "HawkEye-G@4c",
        || {
            let mut cfg = PolicyKind::HawkEyeG.config(64);
            cfg.max_time = Cycles::from_secs(10.0);
            cfg.cores = 4;
            let mut sim = Simulator::new(cfg, PolicyKind::HawkEyeG.build());
            let pid = sim.spawn(Box::new(AllocTouch::new(4096, 30, 5000)));
            (sim, pid)
        },
        |out| out.faults(),
    ));
    scenarios
}

#[test]
fn analyzer_report_is_byte_identical_across_worker_counts() {
    let journals = |threads| {
        let mut run = Run::new(threads);
        run.scenarios(matrix());
        run.journals
    };
    let (journals1, journals8) = (journals(1), journals(8));
    let text1 = trace_json("pipeline", &journals1).to_string();
    let text8 = trace_json("pipeline", &journals8).to_string();
    assert_eq!(text1, text8, "journal document must not depend on worker count");
    let doc = parse_trace(&text1).expect("bench journal must parse");
    let out1 = report(&doc);
    let out8 = report(&parse_trace(&text8).expect("parse"));
    assert_eq!(out1, out8, "analyzer report must not depend on worker count");
    // The report carries all sections for a real run — including the
    // contention table the 4-core scenario's journal feeds.
    for needle in [
        "machine 0",
        "residue=0",
        "fault service",
        "mmu overhead over time",
        "contention (deterministic multi-core replay):",
        "prezero",
    ] {
        assert!(out1.contains(needle), "missing {needle:?} in report:\n{out1}");
    }
    // Serial scenarios contribute no contention rows; the 4-core one does,
    // and its per-core totals accumulate every drain's records.
    assert!(contention(&doc.scenarios[0]).is_empty(), "serial run grew contention rows");
    let rows = contention(&doc.scenarios[2]);
    assert!(!rows.is_empty(), "4-core run journaled no contention");
    assert!(rows.iter().any(|r| r.role != 0), "daemon cores missing from table");
    assert!(
        rows.iter().map(|r| r.acquisitions).sum::<u64>() > 0,
        "contention table lost the acquisition counts"
    );
    // And the residue audit that `--check` runs is clean and non-trivial.
    let audit = residues(&doc);
    assert!(audit.samples > 0, "no cycle samples in a 280 ms run");
    assert_eq!(audit.nonzero, vec![], "unattributed cycles");
}
