//! Tentpole acceptance tests for the cycle-attribution registry: for
//! every policy the per-subsystem CPU breakdown must sum *exactly* to
//! `CPU_CLK_UNHALTED` (Table 4's denominator) — no sampling error, no
//! unattributed residue — and the summary's `cycles` section must be
//! byte-identical at any worker count, like every other bench artifact.

use hawkeye_bench::{cycles_json, run_one, PolicyKind, Run, Scenario};
use hawkeye_trace::TraceEvent;
use hawkeye_workloads::AllocTouch;

const KINDS: [PolicyKind; 9] = [
    PolicyKind::Linux4k,
    PolicyKind::Linux2m,
    PolicyKind::FreeBsd,
    PolicyKind::Ingens,
    PolicyKind::Ingens90,
    PolicyKind::Ingens50,
    PolicyKind::HawkEyeG,
    PolicyKind::HawkEyePmu,
    PolicyKind::HawkEye4k,
];

/// One fragmented run per policy, long enough (~280 simulated ms) that
/// the 100 ms metric sampler fires and `cycle_sample` events land in the
/// journal.
fn matrix() -> Vec<Scenario<u64>> {
    KINDS
        .iter()
        .map(|&kind| {
            Scenario::new(kind.label(), move || {
                run_one(kind, 64, Some((1.0, 0.55)), 10.0, Box::new(AllocTouch::new(4096, 30, 5000)))
                    .faults()
            })
        })
        .collect()
}

#[test]
fn every_policy_attributes_every_cycle() {
    let mut run = Run::new(4, true, false);
    run.scenarios(matrix());
    let (journals, regs) = (run.journals, run.registries);
    assert_eq!(regs.len(), KINDS.len(), "every scenario must return a registry");
    for (name, reg) in &regs {
        let m = reg.machine(0).unwrap_or_else(|| panic!("{name}: machine not attached"));
        assert!(m.unhalted() > 0, "{name}: no unhalted cycles recorded");
        assert_eq!(m.residue(), 0, "{name}: breakdown must sum to CPU_CLK_UNHALTED");
    }
    // The journaled snapshots balance too — every one, not just the final.
    let mut samples = 0u64;
    for (name, journal) in &journals {
        for r in &journal.records {
            let TraceEvent::CycleSample {
                walk,
                fault,
                zero,
                copy,
                scan,
                compact,
                dedup,
                idle,
                unhalted,
                ..
            } = r.event
            else {
                continue;
            };
            samples += 1;
            assert_eq!(
                walk + fault + zero + copy + scan + compact + dedup + idle,
                unhalted,
                "{name}: cycle_sample at t={} leaves a residue",
                r.at.get()
            );
        }
    }
    assert!(samples > 0, "no cycle_sample events journaled — sampler never fired?");
}

#[test]
fn cycles_section_is_byte_identical_across_worker_counts() {
    let cycles = |threads| {
        let mut run = Run::new(threads, false, false);
        run.scenarios(matrix());
        cycles_json(&run.registries).to_string()
    };
    let (doc1, doc8) = (cycles(1), cycles(8));
    assert_eq!(doc1, doc8, "cycles section must not depend on worker count");
    for needle in
        [r#""scenario":"Linux-4KB""#, r#""unhalted""#, r#""walk""#, r#""idle""#, r#""hist""#]
    {
        assert!(doc1.contains(needle), "missing {needle} in cycles section");
    }
}
