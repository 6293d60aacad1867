//! Serial-vs-multicore differential across the nine evaluated policies.
//!
//! The determinism contract of the multi-core machine:
//!
//! * `cores = 1` (the default) IS the serial engine — no recorder exists,
//!   no `lock.*` key appears, no `contention` event is journaled;
//! * `cores = N` runs the identical serial logical simulation — every
//!   aggregate work observable (kernel stats, per-process stats, PMU
//!   counters, simulated time, non-`lock` registry counters, and the
//!   journal minus `contention` records) is bit-identical with the
//!   `cores = 1` run;
//! * for a fixed `N`, the contention outputs themselves are deterministic:
//!   two N-core runs produce byte-identical registries and journals
//!   including every `lock.*` counter and `contention` record;
//! * on a contending workload the modeled CAS-retry counter is positive —
//!   a counter-based smoke check, independent of host speed.

use hawkeye_core::{HawkEye, HawkEyeConfig};
use hawkeye_kernel::workload::script;
use hawkeye_kernel::{
    BasePagesOnly, HugePagePolicy, KernelConfig, MemOp, Simulator,
};
use hawkeye_policies::{FreeBsd, Ingens, IngensConfig, LinuxThp};
use hawkeye_trace::{Journal, TraceEvent, TraceRecord};
use hawkeye_vm::{Vpn, VmaKind};

/// The nine evaluated policies (the bench suite's `PolicyKind` matrix),
/// built fresh per run.
fn nine_policies(i: usize) -> (&'static str, Box<dyn HugePagePolicy>) {
    match i {
        0 => ("Linux-4KB", Box::new(BasePagesOnly)),
        1 => ("Linux-2MB", Box::new(LinuxThp::default())),
        2 => ("FreeBSD", Box::new(FreeBsd::default())),
        3 => ("Ingens", Box::new(Ingens::default())),
        4 => ("Ingens-90%", Box::new(Ingens::new(IngensConfig::fixed_90()))),
        5 => ("Ingens-50%", Box::new(Ingens::new(IngensConfig::fixed_50()))),
        6 => ("HawkEye-G", Box::new(HawkEye::new(HawkEyeConfig::default()))),
        7 => ("HawkEye-PMU", Box::new(HawkEye::new(HawkEyeConfig::pmu()))),
        _ => (
            "HawkEye-4KB",
            Box::new(HawkEye::new(HawkEyeConfig { huge_faults: false, ..Default::default() })),
        ),
    }
}

/// A workload that makes daemons and app cores touch the same regions:
/// fault a few MiB, idle long enough for promotion/dedup ticks to chew on
/// those regions, release some, and re-touch.
fn contending_workload(tag: &str) -> Box<dyn hawkeye_kernel::Workload> {
    let pages: u64 = 8 * 512;
    script(
        tag,
        vec![
            MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon },
            MemOp::TouchRange { start: Vpn(0), pages, write: true, think: 50, stride: 1, repeats: 1 },
            // Idle across many policy ticks: khugepaged promotes/scans the
            // regions the faults above just touched.
            MemOp::Compute { cycles: 120_000_000 },
            // Release two regions (madvise → app-core lock traffic), then
            // refault them while the daemons keep scanning.
            MemOp::Madvise { start: Vpn(0), pages: 1024 },
            MemOp::TouchRange { start: Vpn(0), pages, write: false, think: 0, stride: 1, repeats: 2 },
            MemOp::Compute { cycles: 60_000_000 },
        ],
    )
}

struct RunOut {
    stats: String,
    proc_stats: String,
    now: u64,
    journal: Journal,
    registry_debug: String,
    /// Non-`lock.*` counters of machine 0, in key order.
    work_counters: Vec<(String, u64)>,
    lock_counters: Vec<(String, u64)>,
}

fn run(cores: u32, policy: Box<dyn HugePagePolicy>, tag: &str) -> RunOut {
    hawkeye_metrics::registry::scope::begin();
    hawkeye_trace::scope::begin(1 << 18);
    let mut cfg = KernelConfig::small();
    cfg.cores = cores;
    let mut sim = Simulator::new(cfg, policy);
    let pid = sim.spawn(contending_workload(tag));
    sim.run();
    let journal = hawkeye_trace::scope::end().expect("trace scope active");
    let registry = hawkeye_metrics::registry::scope::end().expect("registry scope active");
    let m0 = registry.machine(0).expect("machine attached");
    let (mut work, mut lock) = (Vec::new(), Vec::new());
    for (k, v) in m0.counters() {
        if k.starts_with("lock.") {
            lock.push((k.to_string(), v));
        } else {
            work.push((k.to_string(), v));
        }
    }
    RunOut {
        stats: format!("{:?}", sim.machine().stats()),
        proc_stats: format!("{:?}", sim.machine().process(pid).map(|p| p.stats())),
        now: sim.machine().now().get(),
        journal,
        registry_debug: format!("{registry:?}"),
        work_counters: work,
        lock_counters: lock,
    }
}

/// The journal with `contention` records removed (the only records a
/// multi-core run may add).
fn without_contention(j: &Journal) -> Vec<TraceRecord> {
    j.records
        .iter()
        .filter(|r| !matches!(r.event, TraceEvent::Contention { .. }))
        .cloned()
        .collect()
}

#[test]
fn multicore_pins_aggregate_work_for_all_nine_policies() {
    for i in 0..9 {
        let (name, p1) = nine_policies(i);
        let (_, p4) = nine_policies(i);
        let serial = run(1, p1, "diff");
        let quad = run(4, p4, "diff");
        // The serial engine never grows contention artifacts.
        assert!(serial.lock_counters.is_empty(), "{name}: lock.* at cores=1");
        assert!(
            without_contention(&serial.journal).len() == serial.journal.records.len(),
            "{name}: contention events at cores=1"
        );
        // Aggregate work is pinned exactly across core counts.
        assert_eq!(serial.stats, quad.stats, "{name}: kernel stats differ");
        assert_eq!(serial.proc_stats, quad.proc_stats, "{name}: process stats differ");
        assert_eq!(serial.now, quad.now, "{name}: simulated time differs");
        assert_eq!(
            serial.work_counters, quad.work_counters,
            "{name}: non-lock registry counters differ"
        );
        assert_eq!(serial.journal.dropped, quad.journal.dropped, "{name}: dropped records");
        assert_eq!(
            without_contention(&serial.journal),
            without_contention(&quad.journal),
            "{name}: journals differ beyond contention records"
        );
    }
}

#[test]
fn multicore_contention_outputs_are_deterministic() {
    // Same policy, same core count, twice: byte-identical everything,
    // including every lock.* counter, histogram bucket and contention
    // record. (Covers 2, 4 and 8 cores — both daemon-core layouts.)
    for cores in [2u32, 4, 8] {
        let (_, pa) = nine_policies(6);
        let (_, pb) = nine_policies(6);
        let a = run(cores, pa, "det");
        let b = run(cores, pb, "det");
        assert_eq!(a.registry_debug, b.registry_debug, "cores={cores}: registries differ");
        assert_eq!(a.journal.records, b.journal.records, "cores={cores}: journals differ");
    }
}

#[test]
fn contending_daemons_retry_cas_here() {
    // Guard against the differentials passing vacuously: under HawkEye on
    // the contending workload, khugepaged ops overlap app faults on the
    // same regions, so the *modeled* CAS-retry counter must be positive.
    // Counter-based and derived from the deterministic replay — no
    // dependence on host speed.
    let (_, policy) = nine_policies(6);
    let out = run(4, policy, "smoke");
    let get = |k: &str| {
        out.lock_counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or(0)
    };
    assert!(get("lock.acquisitions") > 0, "no lock traffic recorded: {:?}", out.lock_counters);
    assert!(
        get("lock.cas_retries") > 0,
        "no CAS retries under the contending workload: {:?}",
        out.lock_counters
    );
    assert!(get("lock.stall_cycles") > 0, "no stalls: {:?}", out.lock_counters);
    // Contention records landed in the journal with matching totals.
    let traced: u64 = out
        .journal
        .records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Contention { cas_retries, .. } => Some(cas_retries),
            _ => None,
        })
        .sum();
    assert_eq!(traced, get("lock.cas_retries"), "journal and registry disagree");
}
