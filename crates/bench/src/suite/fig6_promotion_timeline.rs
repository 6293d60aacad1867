//! Fig. 6: MMU overhead and huge-page count over time for Graph500 and
//! XSBench in a fragmented system.
//!
//! The hot regions of both applications live in high virtual addresses,
//! so Linux's and Ingens' sequential low-to-high scans promote cold
//! regions for a long time before reaching what matters, while HawkEye's
//! access-coverage buckets pick the hot regions first — the paper shows
//! HawkEye eliminating XSBench's overheads in ~300 s while Linux/Ingens
//! are still above them after 1000 s.

use crate::{format_series, run_one, PolicyKind, Report, Row, Run, Scenario};
use hawkeye_kernel::Workload;
use hawkeye_metrics::json::Json;
use hawkeye_workloads::HotspotWorkload;

fn workload(name: &str) -> Box<dyn Workload> {
    match name {
        "graph500" => Box::new(HotspotWorkload::graph500(96, 6000)),
        _ => Box::new(HotspotWorkload::xsbench(120, 6000)),
    }
}

/// Builds the `fig6` report: MMU overhead and huge-page count over time.
pub fn report(run: &mut Run) -> Report {
    let mut scenarios: Vec<Scenario<Row>> = Vec::new();
    for name in ["graph500", "xsbench"] {
        for (ki, kind) in [
            PolicyKind::Linux2m,
            PolicyKind::Ingens,
            PolicyKind::HawkEyeG,
        ]
        .into_iter()
        .enumerate()
        {
            scenarios.push(Scenario::new(
                format!("{name} {}", kind.label()),
                move || {
                    let out = run_one(kind, 768, Some((1.0, 0.55)), 300.0, workload(name));
                    let m = out.sim.machine();
                    let mut text = String::new();
                    if ki == 0 {
                        text.push_str(&format!("===== Fig. 6: {name} =====\n"));
                    }
                    let key_mmu = format!("p{}.mmu_overhead", out.pid);
                    let key_huge = format!("p{}.huge_pages", out.pid);
                    if let Some(s) = m.recorder().series(&key_mmu) {
                        text.push_str(&format_series(
                            &format!("{} {name}: MMU overhead (fraction)", kind.label()),
                            s,
                            12,
                        ));
                    }
                    if let Some(s) = m.recorder().series(&key_huge) {
                        text.push_str(&format_series(
                            &format!("{} {name}: huge pages mapped", kind.label()),
                            s,
                            12,
                        ));
                    }
                    let overhead = out.mmu_overhead();
                    let promos = m.stats().promotions;
                    text.push_str(&format!(
                        "{} {name}: final overhead {:.1}%, promotions {}\n",
                        kind.label(),
                        overhead * 100.0,
                        promos
                    ));
                    Row::new(vec![])
                        .with_json(Json::obj(vec![
                            ("workload", Json::str(name)),
                            ("policy", Json::str(kind.label())),
                            ("final_mmu_overhead", Json::num(overhead)),
                            ("promotions", Json::int(promos)),
                        ]))
                        .line(text)
                },
            ));
        }
    }
    let mut report = Report::new(
        "fig6_promotion_timeline",
        "Fig. 6: promotion timelines in a fragmented system",
        vec![], // series blocks only, no table
    );
    report.extend(run.scenarios(scenarios));
    report.footer(
        "(paper, Fig. 6: HawkEye promotes the hot high-VA regions first and\n\
         eliminates MMU overheads several times faster than Linux/Ingens)",
    );
    report
}
