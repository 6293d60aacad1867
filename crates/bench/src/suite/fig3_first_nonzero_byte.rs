//! Fig. 3: average distance to the first non-zero byte in 4 KB pages.
//!
//! The paper measures 9.11 bytes on average across 56 workloads, making
//! the zero-scan of in-use pages ~400× cheaper than scanning bloat pages.
//! Here we sample each workload family's content model and print the
//! empirical means alongside the paper's suite averages.

use crate::{Report, Row, Run, Scenario};
use hawkeye_metrics::json::Json;
use hawkeye_workloads::DirtModel;

/// Builds the `fig3` report: average distance to the first non-zero byte in 4 KB pages.
pub fn report(run: &mut Run) -> Report {
    // (family, configured mean, paper context)
    let families: Vec<(&'static str, f64)> = vec![
        ("spec-cpu2006", 11.0),
        ("parsec", 7.5),
        ("biobench", 8.0),
        ("cloudsuite", 12.0),
        ("redis", 4.0),
        ("sparsehash", 6.0),
        ("hacc-io", 3.0),
        ("graph500", 9.11),
        ("xsbench", 9.11),
        ("npb", 9.11),
    ];
    let count = families.len();
    let scenarios: Vec<Scenario<(Row, f64)>> = families
        .into_iter()
        .enumerate()
        .map(|(i, (name, mean))| {
            Scenario::new(name, move || {
                let mut d = DirtModel::new(mean, i as u64 + 1);
                let n = 100_000;
                let s: u64 = (0..n).map(|_| d.sample() as u64).sum();
                let emp = s as f64 / n as f64;
                let row = Row::new(vec![name.to_string(), format!("{emp:.2} B")]).with_json(
                    Json::obj(vec![
                        ("family", Json::str(name)),
                        ("mean_first_nonzero_byte", Json::num(emp)),
                    ]),
                );
                (row, emp)
            })
        })
        .collect();
    let results = run.scenarios(scenarios);
    let grand: f64 = results.iter().map(|(_, emp)| emp).sum();
    let avg = grand / count as f64;

    let mut report = Report::new(
        "fig3_first_nonzero_byte",
        "Fig. 3: distance to first non-zero byte per 4 KB in-use page",
        vec!["Workload family", "Mean first-non-zero byte (sampled)"],
    );
    report.extend(results.into_iter().map(|(row, _)| row));
    report.add(
        Row::new(vec!["AVERAGE".into(), format!("{avg:.2} B")]).with_json(Json::obj(vec![
            ("family", Json::str("AVERAGE")),
            ("mean_first_nonzero_byte", Json::num(avg)),
        ])),
    );
    report.footer("(paper, Fig. 3: average over 56 workloads = 9.11 bytes)");
    report.footer(format!(
        "scan-cost asymmetry: in-use page ~{} bytes vs bloat page 4096 bytes",
        avg.round()
    ));
    report
}
