//! Shared experiment drivers for the HawkEye bench harness.
//!
//! Every paper table and figure is a [`suite`] target that prints its
//! reproduction as a text table; the one `suite` bench runs them by name
//! (`cargo bench -p hawkeye-bench --bench suite -- <target>...`, all of
//! them when no name is given). The helpers here keep those targets
//! small: policy construction by name, standard fragmented-machine
//! setup, single-workload runs, and steady-state ("dirty free memory")
//! preparation for the fast-fault experiments.
//!
//! Since the scenario-engine port, every target expresses its policy ×
//! workload × config matrix as [`Scenario`]s run through a [`Run`]:
//! independent simulations fan out across cores via the in-tree worker
//! pool ([`hawkeye_fleet::pool`]) and reassemble in submission order, so
//! output is byte-identical at any `HAWKEYE_BENCH_THREADS` setting while
//! the suite's wall-clock scales with core count. A target's run comes
//! back as one [`TargetRun`] value — [`Report`] plus journals,
//! registries and timings — which [`write_json_in`] persists
//! (`target/bench-results/<target>.json` and its siblings).

#![warn(missing_docs)]

pub mod scenario;
pub mod suite;

pub use scenario::{cycles_json, write_json_in, Report, Row, Run, Scenario, TargetRun};

// The codec and the trace writer under their historical paths, kept for
// the standalone `perf/` benchmark crate; workspace code imports them
// from `hawkeye_metrics::json` and `hawkeye_trace`.
pub use hawkeye_metrics::json::Json;
pub use hawkeye_trace::trace_json;

use hawkeye_core::{HawkEye, HawkEyeConfig};
use hawkeye_kernel::{BasePagesOnly, HugePagePolicy, KernelConfig, Machine, Simulator, Workload};
use hawkeye_mem::{AllocPref, PageContent, Pfn};
use hawkeye_metrics::Cycles;
use hawkeye_policies::{FreeBsd, Ingens, IngensConfig, LinuxThp};

/// The policies the evaluation compares, by paper name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No THP ("Linux-4KB").
    Linux4k,
    /// Linux THP ("Linux-2MB").
    Linux2m,
    /// FreeBSD reservations.
    FreeBsd,
    /// Ingens, adaptive FMFI threshold.
    Ingens,
    /// Ingens fixed 90 % threshold.
    Ingens90,
    /// Ingens fixed 50 % threshold.
    Ingens50,
    /// HawkEye, access-coverage estimation.
    HawkEyeG,
    /// HawkEye, hardware-counter driven.
    HawkEyePmu,
    /// HawkEye with base-page faults only (async pre-zeroing isolated).
    HawkEye4k,
}

impl PolicyKind {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Linux4k => "Linux-4KB",
            PolicyKind::Linux2m => "Linux-2MB",
            PolicyKind::FreeBsd => "FreeBSD",
            PolicyKind::Ingens => "Ingens",
            PolicyKind::Ingens90 => "Ingens-90%",
            PolicyKind::Ingens50 => "Ingens-50%",
            PolicyKind::HawkEyeG => "HawkEye-G",
            PolicyKind::HawkEyePmu => "HawkEye-PMU",
            PolicyKind::HawkEye4k => "HawkEye-4KB",
        }
    }

    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn HugePagePolicy> {
        match self {
            PolicyKind::Linux4k => Box::new(BasePagesOnly),
            PolicyKind::Linux2m => Box::new(LinuxThp::default()),
            PolicyKind::FreeBsd => Box::new(FreeBsd::default()),
            PolicyKind::Ingens => Box::new(Ingens::default()),
            PolicyKind::Ingens90 => Box::new(Ingens::new(IngensConfig::fixed_90())),
            PolicyKind::Ingens50 => Box::new(Ingens::new(IngensConfig::fixed_50())),
            PolicyKind::HawkEyeG => Box::new(HawkEye::new(HawkEyeConfig::default())),
            PolicyKind::HawkEyePmu => Box::new(HawkEye::new(HawkEyeConfig::pmu())),
            PolicyKind::HawkEye4k => Box::new(HawkEye::new(HawkEyeConfig {
                huge_faults: false,
                ..Default::default()
            })),
        }
    }

    /// Whether the policy maintains the pre-zeroed pool (buddy cross-merge
    /// off).
    pub fn wants_zero_pool(self) -> bool {
        matches!(
            self,
            PolicyKind::HawkEyeG | PolicyKind::HawkEyePmu | PolicyKind::HawkEye4k
        )
    }

    /// Kernel config matched to the policy's allocator expectations.
    pub fn config(self, mib: u64) -> KernelConfig {
        KernelConfig {
            cross_merge: !self.wants_zero_pool(),
            ..KernelConfig::with_mib(mib)
        }
    }
}

/// Result of a single-workload run.
pub struct RunOutcome {
    /// The finished simulator (for further inspection).
    pub sim: Simulator,
    /// Pid of the measured workload.
    pub pid: u32,
}

impl RunOutcome {
    /// Wall-clock completion time of the workload in simulated seconds.
    pub fn exec_secs(&self) -> f64 {
        let p = self.sim.machine().process(self.pid).expect("pid valid");
        p.finish_time()
            .unwrap_or(self.sim.machine().now())
            .as_secs()
    }

    /// CPU seconds the workload consumed.
    pub fn cpu_secs(&self) -> f64 {
        self.sim
            .machine()
            .process(self.pid)
            .expect("pid valid")
            .cpu_time()
            .as_secs()
    }

    /// Page faults taken.
    pub fn faults(&self) -> u64 {
        self.sim
            .machine()
            .process(self.pid)
            .expect("pid valid")
            .stats()
            .faults
    }

    /// Seconds spent in the fault handler.
    pub fn fault_secs(&self) -> f64 {
        self.sim
            .machine()
            .process(self.pid)
            .expect("pid valid")
            .stats()
            .fault_cycles
            .as_secs()
    }

    /// Mean fault latency in microseconds.
    pub fn avg_fault_us(&self) -> f64 {
        let s = self
            .sim
            .machine()
            .process(self.pid)
            .expect("pid valid")
            .stats();
        if s.faults == 0 {
            return 0.0;
        }
        s.fault_cycles.as_micros() / s.faults as f64
    }

    /// Lifetime MMU overhead (Table 4 formula) as a fraction.
    pub fn mmu_overhead(&self) -> f64 {
        self.sim.machine().mmu().lifetime(self.pid).mmu_overhead()
    }
}

/// Runs one workload to completion (bounded by `max_secs`) on a fresh
/// machine under `kind`'s policy. `fragment` optionally pre-fragments
/// memory with the standard antagonist (fill, free-fraction, seed 7).
pub fn run_one(
    kind: PolicyKind,
    mib: u64,
    fragment: Option<(f64, f64)>,
    max_secs: f64,
    workload: Box<dyn Workload>,
) -> RunOutcome {
    let mut cfg = kind.config(mib);
    cfg.max_time = Cycles::from_secs(max_secs);
    let mut sim = Simulator::new(cfg, kind.build());
    if let Some((fill, free)) = fragment {
        sim.machine_mut().fragment(fill, free, 7);
    }
    let pid = sim.spawn(workload);
    sim.run();
    RunOutcome { sim, pid }
}

/// Dirties all currently-free memory (allocate everything, write, free),
/// modeling a steady-state machine where freed memory is never zero —
/// the environment in which async pre-zeroing matters (Table 8).
pub fn dirty_free_memory(m: &mut Machine) {
    let mut blocks = Vec::new();
    while let Some(order) = m.pm().largest_free_order() {
        match m.pm_mut().alloc(order, AllocPref::NonZeroed) {
            Ok(a) => blocks.push(a),
            Err(_) => break,
        }
    }
    for a in &blocks {
        for i in 0..a.order.pages() {
            m.pm_mut()
                .frame_mut(Pfn(a.pfn.0 + i))
                .set_content(PageContent::non_zero(5));
        }
    }
    for a in blocks {
        m.pm_mut().free(a.pfn, a.order);
    }
    debug_assert_eq!(m.pm().zeroed_free_pages(), 0);
}

/// Formats seconds with 2 decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a speedup the way the paper does (`1.14x`).
pub fn spd(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a downsampled time series as two aligned columns (one block,
/// trailing newline included) — scenario rows carry these blocks back to
/// the ordered printer.
pub fn format_series(title: &str, series: &hawkeye_metrics::TimeSeries, points: usize) -> String {
    let mut out = format!("-- {title} --\n");
    for s in series.downsample(points) {
        out.push_str(&format!("  t={:>8.2}s  {:>14.1}\n", s.secs, s.value));
    }
    out
}

/// Prints a downsampled time series as two aligned columns.
pub fn print_series(title: &str, series: &hawkeye_metrics::TimeSeries, points: usize) {
    print!("{}", format_series(title, series, points));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_workloads::Spinup;

    #[test]
    fn all_policies_build_and_label() {
        for k in [
            PolicyKind::Linux4k,
            PolicyKind::Linux2m,
            PolicyKind::FreeBsd,
            PolicyKind::Ingens,
            PolicyKind::Ingens90,
            PolicyKind::Ingens50,
            PolicyKind::HawkEyeG,
            PolicyKind::HawkEyePmu,
            PolicyKind::HawkEye4k,
        ] {
            let p = k.build();
            assert_eq!(p.name(), k.label());
        }
    }

    #[test]
    fn run_one_completes_quick_workload() {
        let out = run_one(
            PolicyKind::Linux4k,
            64,
            None,
            10.0,
            Box::new(Spinup::new("s", 1024)),
        );
        assert!(out.exec_secs() > 0.0);
        assert_eq!(out.faults(), 1024);
        assert!(out.avg_fault_us() > 0.0);
    }

    #[test]
    fn dirty_free_memory_empties_zero_pool() {
        let mut m = Machine::new(KernelConfig::small());
        dirty_free_memory(&mut m);
        assert_eq!(m.pm().zeroed_free_pages(), 0);
        assert_eq!(m.pm().allocated_pages(), 1);
        m.pm().check_invariants();
    }

    #[test]
    fn fragmented_runs_disable_fault_time_huge_pages() {
        let out = run_one(
            PolicyKind::Linux2m,
            128,
            Some((1.0, 0.4)),
            5.0,
            Box::new(Spinup::new("s", 2048)),
        );
        let p = out.sim.machine().process(out.pid).unwrap();
        assert_eq!(
            p.stats().huge_faults,
            0,
            "no contiguity after fragmentation"
        );
    }
}
