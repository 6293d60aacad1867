//! Fig. 9 / Table 6: virtualized speedups with HawkEye at the host, the
//! guest, and both layers.
//!
//! Two-dimensional page walks amplify MMU overheads, so huge pages help
//! virtual machines even more than bare metal — but only the layers that
//! actually map huge contribute. The paper measures 18–90 % speedups over
//! all-Linux; the `both` configuration wins.

use crate::{secs, spd, PolicyKind, Report, Row, Run, Scenario};
use hawkeye_core::{HawkEye, HawkEyeConfig};
use hawkeye_kernel::{HugePagePolicy, Workload};
use hawkeye_metrics::json::Json;
use hawkeye_policies::LinuxThp;
use hawkeye_virt::{VirtSystem, VmSpec};
use hawkeye_workloads::{HotspotWorkload, NpbKernel};

fn guest_workload(name: &str) -> Box<dyn Workload> {
    match name {
        "cg.D" => Box::new(NpbKernel::cg(56, 1200)),
        _ => Box::new(HotspotWorkload::graph500(64, 1200)),
    }
}

fn policy(hawkeye: bool) -> Box<dyn HugePagePolicy> {
    if hawkeye {
        Box::new(HawkEye::new(HawkEyeConfig::default()))
    } else {
        Box::new(LinuxThp::default())
    }
}

/// Table 6-style setup: one VM with the measured workload (fragmented
/// host and guest), HawkEye optionally at either layer.
fn simulate(name: &str, host_hawkeye: bool, guest_hawkeye: bool) -> f64 {
    let mut cfg = PolicyKind::Linux2m.config(1024);
    cfg.cross_merge = !host_hawkeye;
    let mut sys = VirtSystem::new(cfg, policy(host_hawkeye));
    sys.with_host_mut(|h| h.fragment(1.0, 0.55, 7));
    let vm = sys.add_vm(VmSpec { frames: 160 * 1024 }, policy(guest_hawkeye));
    sys.guest_mut(vm).fragment(1.0, 0.55, 9);
    let pid = sys.spawn_in_vm(vm, guest_workload(name));
    sys.run();
    sys.guest(vm)
        .process(pid)
        .and_then(|p| p.finish_time())
        .unwrap_or_else(|| sys.guest(vm).now())
        .as_secs()
}

const CONFIGS: [(&str, bool, bool); 4] = [
    ("all-linux", false, false),
    ("host", true, false),
    ("guest", false, true),
    ("both", true, true),
];

/// Builds the `fig9_table6` report: virtualized speedups, host and guest policies crossed.
pub fn report(run: &mut Run) -> Report {
    // One scenario per (workload, layer config): 8 independent two-level
    // systems. Speedups are assembled from the ordered results.
    let names = ["cg.D", "graph500"];
    let scenarios: Vec<Scenario<f64>> = names
        .iter()
        .flat_map(|name| {
            CONFIGS.iter().map(move |(cname, host, guest)| {
                let (name, host, guest) = (*name, *host, *guest);
                Scenario::new(format!("{name} {cname}"), move || simulate(name, host, guest))
            })
        })
        .collect();
    let results = run.scenarios(scenarios);

    let mut report = Report::new(
        "fig9_virtualized",
        "Fig. 9: virtualized speedup over all-Linux (Table 6 configurations)",
        vec![
            "Workload",
            "Linux host+guest (s)",
            "HawkEye@host",
            "HawkEye@guest",
            "HawkEye@both",
        ],
    );
    for (wi, name) in names.iter().enumerate() {
        let cells = &results[wi * CONFIGS.len()..(wi + 1) * CONFIGS.len()];
        let (base, host, guest, both) = (cells[0], cells[1], cells[2], cells[3]);
        report.add(
            Row::new(vec![
                name.to_string(),
                secs(base),
                spd(base / host),
                spd(base / guest),
                spd(base / both),
            ])
            .with_json(Json::obj(vec![
                ("workload", Json::str(*name)),
                ("secs_all_linux", Json::num(base)),
                ("speedup_host", Json::num(base / host)),
                ("speedup_guest", Json::num(base / guest)),
                ("speedup_both", Json::num(base / both)),
            ])),
        );
    }
    report.footer("(paper, Fig. 9: 18-90% speedups; cg.D gains more virtualized than bare-metal)");
    report
}
