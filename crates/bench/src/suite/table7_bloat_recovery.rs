//! Table 7: Redis memory consumption vs throughput under bloat.
//!
//! Paper: populate 8 M (10 B, 4 KB) pairs, delete 60 % of keys. Linux-4KB
//! is memory-efficient but slower; Linux-2MB fast but bloated (33 GB vs
//! 16 GB); Ingens picks one side per its threshold; HawkEye self-tunes —
//! fast when memory is plentiful, memory-efficient under pressure.
//! Scaled 256×: 24 K keys (96 MiB), delete 60 %.

use crate::{PolicyKind, Report, Row, Run, Scenario};
use hawkeye_kernel::Simulator;
use hawkeye_metrics::Cycles;
use hawkeye_metrics::json::Json;
use hawkeye_workloads::{RedisKv, RedisOp};

fn script() -> Vec<RedisOp> {
    vec![
        RedisOp::Insert {
            keys: 24 * 1024,
            value_pages: 1,
            think: 300,
        },
        RedisOp::DeleteFrac { fraction: 0.6 },
        // Gap for khugepaged to act (bloat window).
        RedisOp::Serve {
            requests: 20_000,
            think: 120_000,
        },
        // Measured serving phase.
        RedisOp::Serve {
            requests: 200_000,
            think: 2_000,
        },
    ]
}

fn simulate(kind: PolicyKind, mib: u64, hog_pages: u64) -> (f64, f64) {
    let mut cfg = kind.config(mib);
    cfg.max_time = Cycles::from_secs(120.0);
    let mut sim = Simulator::new(cfg, kind.build());
    if hog_pages > 0 {
        // The paper's "memory pressure" row: a co-resident consumer pushes
        // the system over the high watermark.
        use hawkeye_kernel::{workload::script as kscript, MemOp};
        use hawkeye_vm::{VmaKind, Vpn};
        sim.spawn(kscript(
            "hog",
            vec![
                MemOp::Mmap {
                    start: Vpn(0),
                    pages: hog_pages,
                    kind: VmaKind::Anon,
                },
                MemOp::TouchRange {
                    start: Vpn(0),
                    pages: hog_pages,
                    write: true,
                    think: 0,
                    stride: 1,
                    repeats: 1,
                },
                MemOp::Compute {
                    cycles: 40_000_000_000,
                },
            ],
        ));
    }
    let pid = sim.spawn(Box::new(RedisKv::new(64 * 1024, script(), 31)));
    // Run the loaded phases; measure the final serve phase throughput by
    // time difference around the last 200k requests.
    sim.run_while(|m| {
        m.process(pid)
            .map(|p| p.stats().touches < (24 * 1024 + 20_000) as u64)
            .unwrap_or(false)
    });
    let t0 = sim.machine().now();
    let touches0 = sim
        .machine()
        .process(pid)
        .expect("redis process exists")
        .stats()
        .touches;
    // Finish all but the last 2k requests, then read memory while the
    // server is still live (RSS is meaningless after exit).
    sim.run_while(|m| {
        m.process(pid)
            .map(|p| p.stats().touches < (24 * 1024 + 20_000 + 198_000) as u64)
            .unwrap_or(false)
    });
    let hog_rss: u64 = sim
        .machine()
        .pids()
        .iter()
        .filter_map(|p| sim.machine().process(*p))
        .filter(|p| p.name() == "hog")
        .map(|p| p.space().rss_pages())
        .sum();
    let mem_mib =
        (sim.machine().pm().allocated_pages() - hog_rss) as f64 * 4096.0 / (1024.0 * 1024.0);
    // Capture throughput *now*, before draining unrelated processes.
    let dt = (sim.machine().now() - t0).as_secs();
    let reqs = sim
        .machine()
        .process(pid)
        .expect("redis process exists")
        .stats()
        .touches
        - touches0;
    let kops = reqs as f64 / dt.max(1e-9) / 1e3;
    sim.run();
    (mem_mib, kops)
}

/// Builds the `table7` report: Redis memory vs throughput under bloat recovery.
pub fn report(run: &mut Run) -> Report {
    let scenarios: Vec<Scenario<Row>> = [
        (PolicyKind::Linux4k, "No", 0u64),
        (PolicyKind::Linux2m, "No", 0),
        (PolicyKind::Ingens90, "No", 0),
        (PolicyKind::Ingens50, "No", 0),
        (PolicyKind::HawkEyeG, "Yes (no pressure)", 0),
        (PolicyKind::HawkEyeG, "Yes (pressure)", 60 * 1024),
    ]
    .into_iter()
    .map(|(kind, tuning, hog)| {
        Scenario::new(format!("{} {tuning}", kind.label()), move || {
            let (mem, kops) = simulate(kind, 384, hog);
            Row::new(vec![
                kind.label().to_string(),
                tuning.to_string(),
                format!("{mem:.0}"),
                format!("{kops:.1}"),
            ])
            .with_json(Json::obj(vec![
                ("kernel", Json::str(kind.label())),
                ("self_tuning", Json::str(tuning)),
                ("memory_mib", Json::num(mem)),
                ("throughput_kops", Json::num(kops)),
            ]))
        })
    })
    .collect();
    let mut report = Report::new(
        "table7_bloat_recovery",
        "Table 7: Redis memory vs throughput (96 MiB dataset, 60% deleted)",
        vec![
            "Kernel",
            "Self-tuning",
            "Memory (MiB)",
            "Throughput (Kops/s)",
        ],
    );
    report.extend(run.scenarios(scenarios));
    report.footer(
        "(paper, Table 7: Linux-4KB 16.2GB/106K; Linux-2MB 33.2GB/113.8K;\n\
         Ingens-90% 16.3GB/106.8K; Ingens-50% 33.1GB/113.4K;\n\
         HawkEye no-pressure 33.2GB/113.6K; HawkEye pressure 16.2GB/105.8K)",
    );
    report
}
