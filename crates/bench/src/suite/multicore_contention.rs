//! Multi-core scaling: one machine, many simulated cores, contending
//! daemons (§4 "true multi-core machines").
//!
//! The paper's HawkEye daemons (khugepaged, the pre-zeroing thread) run
//! on their own cores and contend with application cores for page-state
//! locks and buddy arenas. This target runs the same contending workload
//! at 1, 2, 4 and 8 simulated cores under HawkEye-G and Linux-2MB and
//! tabulates what scaling the cores *adds* — lock acquisitions, modeled
//! CAS retries, stall cycles, and the daemons' share of the stalls — next
//! to the aggregate work, which stays pinned exactly across core counts
//! (exec time, faults and promotions are identical in every row of a
//! policy; the differential test enforces it bit-for-bit).

use crate::{secs, PolicyKind, Report, Row, Run, Scenario};
use hawkeye_kernel::multicore::CoreRole;
use hawkeye_kernel::workload::script;
use hawkeye_kernel::{MemOp, Simulator};
use hawkeye_metrics::Cycles;
use hawkeye_metrics::json::Json;
use hawkeye_vm::{VmaKind, Vpn};

/// App faults, daemon promotion/scan passes and madvise churn over the
/// same eight regions — the shape that makes cores collide.
fn contending_workload(tag: String) -> Box<dyn hawkeye_kernel::Workload> {
    let pages: u64 = 8 * 512;
    script(
        tag,
        vec![
            MemOp::Mmap {
                start: Vpn(0),
                pages,
                kind: VmaKind::Anon,
            },
            MemOp::TouchRange {
                start: Vpn(0),
                pages,
                write: true,
                think: 50,
                stride: 1,
                repeats: 1,
            },
            // Idle across many policy ticks: khugepaged chews on the
            // regions the faults above touched.
            MemOp::Compute {
                cycles: 120_000_000,
            },
            MemOp::Madvise {
                start: Vpn(0),
                pages: 1024,
            },
            MemOp::TouchRange {
                start: Vpn(0),
                pages,
                write: false,
                think: 0,
                stride: 1,
                repeats: 2,
            },
            MemOp::Compute { cycles: 60_000_000 },
        ],
    )
}

/// Builds the `multicore_contention` report: lock contention as simulated cores scale.
pub fn report(run: &mut Run) -> Report {
    let mut scenarios: Vec<Scenario<Row>> = Vec::new();
    for kind in [PolicyKind::HawkEyeG, PolicyKind::Linux2m] {
        for cores in [1u32, 2, 4, 8] {
            let label = kind.label();
            scenarios.push(Scenario::sim(
                format!("{label}@{cores}c"),
                move || {
                    let mut cfg = kind.config(256);
                    cfg.max_time = Cycles::from_secs(30.0);
                    cfg.cores = cores;
                    let mut sim = Simulator::new(cfg, kind.build());
                    // Pre-fragment so regions fault in as base pages:
                    // khugepaged has real promotion work to contend with.
                    sim.machine_mut().fragment(1.0, 0.55, 7);
                    let pid = sim.spawn(contending_workload(format!("mc-{label}-{cores}")));
                    (sim, pid)
                },
                move |out| {
                    let label = kind.label();
                    let stats = out.sim.machine().stats();
                    let (mut acq, mut retries, mut stall, mut daemon_stall) = (0u64, 0, 0, 0);
                    if let Some(rec) = out.sim.machine().concurrency() {
                        for (core, c) in rec.totals().iter().enumerate() {
                            acq += c.acquisitions;
                            retries += c.cas_retries;
                            stall += c.stall_cycles;
                            if rec.layout().role(core) != CoreRole::App {
                                daemon_stall += c.stall_cycles;
                            }
                        }
                    }
                    Row::new(vec![
                        label.to_string(),
                        cores.to_string(),
                        secs(out.exec_secs()),
                        out.faults().to_string(),
                        stats.promotions.to_string(),
                        acq.to_string(),
                        retries.to_string(),
                        format!("{:.2}", stall as f64 / 1e6),
                        if stall == 0 {
                            "-".to_string()
                        } else {
                            format!("{:.0}%", 100.0 * daemon_stall as f64 / stall as f64)
                        },
                    ])
                    .with_json(Json::obj(vec![
                        ("policy", Json::str(label)),
                        ("cores", Json::int(cores as u64)),
                        ("exec_secs", Json::num(out.exec_secs())),
                        ("faults", Json::int(out.faults())),
                        ("promotions", Json::int(stats.promotions)),
                        ("lock_acquisitions", Json::int(acq)),
                        ("cas_retries", Json::int(retries)),
                        ("stall_cycles", Json::int(stall)),
                        ("daemon_stall_cycles", Json::int(daemon_stall)),
                    ]))
                },
            ));
        }
    }
    let mut report = Report::new(
        "multicore_contention",
        "Multi-core scaling: lock/arena contention between app cores and daemons",
        vec![
            "Policy",
            "cores",
            "exec(s)",
            "faults",
            "promos",
            "lock acq",
            "CAS retries",
            "stall(Mcyc)",
            "daemon share",
        ],
    );
    report.extend(run.scenarios(scenarios));
    report.footer(
        "(aggregate work — exec, faults, promos — is pinned exactly across core counts;\n contention columns come from the deterministic replay and are 0 at 1 core)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_pinned_and_contention_appears() {
        let report = report(&mut Run::new(2));
        let rows = report.rows();
        assert_eq!(rows.len(), 8, "2 policies x 4 core counts");
        // Within each policy, exec/faults/promos identical across cores.
        for policy in 0..2 {
            let base = &rows[policy * 4];
            for r in &rows[policy * 4..policy * 4 + 4] {
                assert_eq!(r.cells[2], base.cells[2], "exec pinned");
                assert_eq!(r.cells[3], base.cells[3], "faults pinned");
                assert_eq!(r.cells[4], base.cells[4], "promotions pinned");
            }
            // 1-core rows have no contention; HawkEye multi-core rows do.
            assert_eq!(base.cells[5], "0", "no lock traffic at 1 core");
        }
        let hawkeye_4c = &rows[2];
        assert_ne!(hawkeye_4c.cells[5], "0", "multi-core records lock traffic");
    }

    #[test]
    fn lock_counters_reach_the_registry() {
        // The registry snapshot a bench run captures must carry the
        // lock.* counters (cycles_json forwards them to the summary).
        let scenarios = vec![Scenario::sim(
            "reg",
            || {
                let mut cfg = PolicyKind::HawkEyeG.config(256);
                cfg.cores = 4;
                let mut sim = Simulator::new(cfg, PolicyKind::HawkEyeG.build());
                let pid = sim.spawn(contending_workload("reg".into()));
                (sim, pid)
            },
            |out| out.faults(),
        )];
        let mut run = Run::new(1);
        let results = run.scenarios(scenarios);
        assert!(results[0] > 0);
        let (_, reg) = &run.registries[0];
        let m = reg.machine(0).expect("machine attached");
        assert!(
            m.counter("lock.acquisitions") > 0,
            "lock.* missing from registry"
        );
        assert!(m.counter("lock.cas_retries") > 0, "no modeled contention");
    }
}
