//! HPC stencil: A64FX/FLASH-style multi-grid sweeps (arXiv 2309.04652).
//!
//! The published study runs FLASH's Sedov explosion on A64FX with and
//! without huge pages and finds the *opposite* of the pointer-chasing
//! story: dTLB misses collapse by orders of magnitude, yet runtime
//! improves by only single-digit percent, because sequential unit-stride
//! sweeps amortize one walk across a whole page and the prefetcher hides
//! most of what is left. This target pins that decoupling — a large
//! MMU-overhead ratio next to a small speedup — on an unfragmented
//! machine (a freshly-booted HPC node), which is where the paper's
//! fault-time huge pages and HawkEye's promotion should converge.

use crate::{pct, run_one, secs, spd, PolicyKind, Report, Row, Run, Scenario};
use hawkeye_metrics::json::Json;
use hawkeye_workloads::StencilSweep;

/// Finest-grid span (2 MB regions) and V-cycle count for the suite run.
const REGIONS: u64 = 16;
const CYCLES: u64 = 96;

const KINDS: [PolicyKind; 4] = [
    PolicyKind::Linux4k, // baseline first: speedups divide by this row
    PolicyKind::Linux2m,
    PolicyKind::HawkEyeG,
    PolicyKind::HawkEyePmu,
];

/// Builds the `hpc_stencil` report: one clean-machine run per policy,
/// pairing the walk-cycle collapse with the (much smaller) speedup.
pub fn report(run: &mut Run) -> Report {
    report_with(REGIONS, CYCLES, run)
}

/// [`report`] at an explicit scale — the byte-determinism test runs a
/// smaller grid so the sweep stays affordable under the dev profile.
pub fn report_with(regions: u64, cycles: u64, run: &mut Run) -> Report {
    let scenarios: Vec<Scenario<(f64, f64, u64, f64)>> = KINDS
        .iter()
        .map(|kind| {
            let kind = *kind;
            Scenario::new(format!("flash-mg {}", kind.label()), move || {
                let out = run_one(
                    kind,
                    256,
                    None,
                    300.0,
                    Box::new(StencilSweep::flash(regions, cycles)),
                );
                (
                    out.exec_secs(),
                    out.mmu_overhead(),
                    out.faults(),
                    out.avg_fault_us(),
                )
            })
        })
        .collect();
    let results = run.scenarios(scenarios);

    let mut report = Report::new(
        "hpc_stencil",
        "HPC stencil: FLASH-like multi-grid V-cycles, clean machine",
        vec![
            "Policy",
            "exec (s)",
            "speedup vs 4KB",
            "MMU ovh",
            "walk reduction vs 4KB",
            "faults",
            "avg fault (us)",
        ],
    );
    let (t4k, mmu4k) = (results[0].0, results[0].1);
    for (ki, kind) in KINDS.iter().enumerate() {
        let (exec, mmu, faults, fault_us) = results[ki];
        let walk_red = if mmu > 0.0 { mmu4k / mmu } else { 0.0 };
        report.add(
            Row::new(vec![
                kind.label().to_string(),
                secs(exec),
                spd(t4k / exec),
                pct(mmu),
                format!("{walk_red:.1}x"),
                faults.to_string(),
                format!("{fault_us:.2}"),
            ])
            .with_json(Json::obj(vec![
                ("policy", Json::str(kind.label())),
                ("exec_secs", Json::num(exec)),
                ("speedup_vs_4k", Json::num(t4k / exec)),
                ("mmu_overhead", Json::num(mmu)),
                ("walk_reduction_vs_4k", Json::num(walk_red)),
                ("faults", Json::int(faults)),
                ("avg_fault_us", Json::num(fault_us)),
            ])),
        );
    }
    report.footer(
        "(arXiv 2309.04652: hugepages cut FLASH's dTLB misses by orders of\n\
         magnitude but buy only single-digit-% runtime on A64FX — sequential\n\
         sweeps amortize the walks huge pages remove; the report checks pin\n\
         that big-ratio/small-speedup decoupling, DESIGN.md §17)",
    );
    report
}
