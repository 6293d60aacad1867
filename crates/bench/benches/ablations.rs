//! Ablations of the DESIGN.md §6 design choices.
//!
//! 1. EMA weight of access-coverage samples.
//! 2. Promotion coverage floor (`min_coverage`).
//! 3. Bloat-recovery scan order (lowest- vs highest-overhead first).
//! 4. Pre-zeroing rate limit vs spin-up latency and interference.
//!
//! All four sections' scenarios run through one engine fan-out (12
//! independent simulations); the sections are then printed as separate
//! tables and written as one `ablations.json` with a `sections` array
//! and the scenarios' `cycles` section.

use hawkeye_bench::scenario::{results_dir, write_artifact};
use hawkeye_bench::{cycles_json, dirty_free_memory, secs, PolicyKind, Report, Row, Run, Scenario};
use hawkeye_core::{BloatRecovery, HawkEye, HawkEyeConfig};
use hawkeye_kernel::{workload::script, KernelConfig, Machine, MemOp, Simulator};
use hawkeye_mem::{PageContent, Pfn};
use hawkeye_metrics::json::Json;
use hawkeye_metrics::Cycles;
use hawkeye_tlb::{InterferenceModel, StoreMode};
use hawkeye_vm::{VmaKind, Vpn};
use hawkeye_workloads::{HotspotWorkload, Spinup};

fn hawkeye_run(cfg: HawkEyeConfig) -> (f64, u64) {
    let mut kcfg = PolicyKind::HawkEyeG.config(768);
    kcfg.max_time = Cycles::from_secs(300.0);
    let mut sim = Simulator::new(kcfg, Box::new(HawkEye::new(cfg)));
    sim.machine_mut().fragment(1.0, 0.55, 7);
    let pid = sim.spawn(Box::new(HotspotWorkload::graph500(72, 1500)));
    sim.run();
    let exec = sim
        .machine()
        .process(pid)
        .and_then(|p| p.finish_time())
        .unwrap_or(sim.machine().now())
        .as_secs();
    (exec, sim.machine().stats().promotions)
}

fn alpha_scenarios() -> Vec<Scenario<Row>> {
    [0.1, 0.4, 1.0]
        .into_iter()
        .map(|alpha| {
            Scenario::new(format!("ema_alpha {alpha}"), move || {
                let (exec, _) = hawkeye_run(HawkEyeConfig { ema_alpha: alpha, ..Default::default() });
                Row::new(vec![format!("{alpha}"), secs(exec)]).with_json(Json::obj(vec![
                    ("ema_alpha", Json::num(alpha)),
                    ("exec_secs", Json::num(exec)),
                ]))
            })
        })
        .collect()
}

fn min_coverage_scenarios() -> Vec<Scenario<Row>> {
    [0.0, 1.0, 50.0]
        .into_iter()
        .map(|floor| {
            Scenario::new(format!("min_coverage {floor}"), move || {
                let (exec, promos) =
                    hawkeye_run(HawkEyeConfig { min_coverage: floor, ..Default::default() });
                Row::new(vec![format!("{floor}"), secs(exec), promos.to_string()]).with_json(
                    Json::obj(vec![
                        ("min_coverage", Json::num(floor)),
                        ("exec_secs", Json::num(exec)),
                        ("promotions", Json::int(promos)),
                    ]),
                )
            })
        })
        .collect()
}

/// Two processes with bloated huge pages; one is "hot" (high overhead).
/// Scanning lowest-overhead-first protects the hot process's huge pages.
fn scan_order_scenarios() -> Vec<Scenario<Row>> {
    [("lowest overhead first (HawkEye)", false), ("highest first", true)]
        .into_iter()
        .map(|(label, invert)| {
            Scenario::new(label, move || {
                let mut m =
                    Machine::new(KernelConfig { frames: 24 * 1024, ..KernelConfig::small() });
                let mut mk = |_tag: &str| {
                    let pid = m.spawn(script("p", vec![]));
                    m.process_mut(pid)
                        .unwrap()
                        .space_mut()
                        .mmap(Vpn(0), 20 * 512, VmaKind::Anon)
                        .unwrap();
                    for r in 0..20u64 {
                        m.fault_map_huge(pid, Vpn(r * 512)).unwrap();
                        let pfn =
                            m.process(pid).unwrap().space().translate(Vpn(r * 512)).unwrap().pfn;
                        for i in 0..64 {
                            m.pm_mut()
                                .frame_mut(Pfn(pfn.0 + i))
                                .set_content(PageContent::non_zero(9));
                        }
                    }
                    pid
                };
                let hot = mk("hot");
                let cold = mk("cold");
                let mut b = BloatRecovery::new(0.85, 0.70, 1e4, 32);
                let score = move |pid: u32| {
                    let raw = if pid == hot { 0.9 } else { 0.1 };
                    if invert {
                        1.0 - raw
                    } else {
                        raw
                    }
                };
                for s in 1..=40 {
                    b.tick(&mut m, Cycles::from_millis(s * 50), score);
                }
                let hot_kept = m.process(hot).unwrap().space().huge_pages();
                let cold_kept = m.process(cold).unwrap().space().huge_pages();
                Row::new(vec![label.to_string(), hot_kept.to_string(), cold_kept.to_string()])
                    .with_json(Json::obj(vec![
                        ("scan_order", Json::str(label)),
                        ("hot_huge_pages_kept", Json::int(hot_kept)),
                        ("cold_huge_pages_kept", Json::int(cold_kept)),
                    ]))
            })
        })
        .collect()
}

fn prezero_scenarios() -> Vec<Scenario<Row>> {
    [1_000.0, 10_000.0, 100_000.0, 1_000_000.0]
        .into_iter()
        .map(|rate| {
            Scenario::new(format!("prezero {rate}"), move || {
                let mut kcfg = PolicyKind::HawkEyeG.config(512);
                kcfg.max_time = Cycles::from_secs(400.0);
                let he =
                    HawkEye::new(HawkEyeConfig { prezero_pages_per_sec: rate, ..Default::default() });
                let mut sim = Simulator::new(kcfg, Box::new(he));
                dirty_free_memory(sim.machine_mut());
                sim.spawn(script("warmup", vec![MemOp::Compute { cycles: 6_000_000_000 }]));
                sim.run();
                let pid = sim.spawn(Box::new(Spinup::new("kvm", 24 * 1024)));
                sim.run();
                let exec = sim.machine().process(pid).unwrap().cpu_time().as_secs();
                let model = InterferenceModel::haswell();
                let slow = model.slowdown(0.21, 3.0, StoreMode::NonTemporal, rate * 4096.0) - 1.0;
                Row::new(vec![format!("{rate:.0}"), secs(exec), format!("{:.2}%", slow * 100.0)])
                    .with_json(Json::obj(vec![
                        ("prezero_pages_per_sec", Json::num(rate)),
                        ("spinup_secs", Json::num(exec)),
                        ("nt_interference", Json::num(slow)),
                    ]))
            })
        })
        .collect()
}

/// One ablation section: title, table columns, scenarios.
type Section = (&'static str, Vec<&'static str>, Vec<Scenario<Row>>);

fn main() {
    let sections: Vec<Section> = vec![
        (
            "Ablation 1: EMA weight (fragmented graph500)",
            vec!["ema_alpha", "graph500 exec (s)"],
            alpha_scenarios(),
        ),
        (
            "Ablation 2: promotion coverage floor",
            vec!["min_coverage", "exec (s)", "promotions"],
            min_coverage_scenarios(),
        ),
        (
            "Ablation 3: bloat-recovery scan order under pressure",
            vec!["Scan order", "hot huge pages kept", "cold huge pages kept"],
            scan_order_scenarios(),
        ),
        (
            "Ablation 4: pre-zeroing rate limit",
            vec!["prezero rate (pages/s)", "KVM spin-up (s)", "NT interference @rate"],
            prezero_scenarios(),
        ),
    ];
    // Flatten everything into one fan-out so all 12 simulations share the
    // pool, then split the ordered results back into their sections.
    let mut titles_cols = Vec::new();
    let mut counts = Vec::new();
    let mut all: Vec<Scenario<Row>> = Vec::new();
    for (title, cols, scen) in sections {
        titles_cols.push((title, cols));
        counts.push(scen.len());
        all.extend(scen);
    }
    let mut run = Run::new(hawkeye_fleet::pool::worker_threads());
    let mut results = run.scenarios(all).into_iter();

    let mut section_jsons = Vec::new();
    for ((title, cols), count) in titles_cols.into_iter().zip(counts) {
        let rows: Vec<Row> = results.by_ref().take(count).collect();
        let mut report = Report::new("ablations", title, cols);
        let row_jsons: Vec<Json> = rows.iter().map(|r| r.json.clone()).collect();
        report.extend(rows);
        print!("{}", report.text());
        section_jsons
            .push(Json::obj(vec![("section", Json::str(title)), ("rows", Json::Arr(row_jsons))]));
    }
    let summary = Json::obj(vec![
        ("target", Json::str("ablations")),
        ("title", Json::str("DESIGN.md §6 ablations")),
        ("sections", Json::Arr(section_jsons)),
        ("cycles", cycles_json(&run.registries)),
    ]);
    match write_artifact(&results_dir(), "ablations", &format!("{summary}\n")) {
        Ok(path) => eprintln!("[ablations] wrote {}", path.display()),
        Err(e) => eprintln!("[ablations] could not write ablations.json: {e}"),
    }
}
