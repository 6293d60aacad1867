//! Kernel configuration and the page-fault cost model.

use hawkeye_metrics::Cycles;
use hawkeye_tlb::TlbConfig;

/// Fault-path and daemon cost parameters, calibrated against §2.2 of the
/// paper (measured on the same Haswell generation):
///
/// * a 4 KB fault costs ≈ 3.5 µs of which ≈ 25 % is zeroing, so the
///   handler is ≈ 2.65 µs and the zeroing ≈ 0.85 µs;
/// * a 2 MB fault with a pre-zeroed frame costs ≈ 13 µs, while zeroing a
///   2 MB frame costs 512 × the base-page zeroing (≈ 450 µs — 97 % of the
///   465 µs synchronous huge fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// 4 KB fault handler, excluding zeroing.
    pub fault_base_4k: Cycles,
    /// 2 MB fault handler, excluding zeroing.
    pub fault_base_2m: Cycles,
    /// Zero-filling one 4 KB page.
    pub zero_4k: Cycles,
    /// Copying one 4 KB page (promotion collapse, migration).
    pub copy_4k: Cycles,
    /// Zero-scan cost per byte examined (bloat recovery).
    pub scan_byte: f64,
    /// Fixed cost of any memory access that hits the L1 TLB (models the
    /// data-side work of the reference itself).
    pub access: Cycles,
    /// Handling a copy-on-write fault (on top of `fault_base_4k`).
    pub cow_extra: Cycles,
    /// Reclaiming one file-cache page.
    pub reclaim_4k: Cycles,
}

impl CostModel {
    /// Costs matching the paper's measurements.
    pub fn paper() -> Self {
        CostModel {
            fault_base_4k: Cycles::from_nanos(2_650),
            fault_base_2m: Cycles::from_nanos(13_000),
            zero_4k: Cycles::from_nanos(880),
            copy_4k: Cycles::from_nanos(650),
            scan_byte: 0.25,
            access: Cycles::new(4),
            cow_extra: Cycles::from_nanos(800),
            reclaim_4k: Cycles::from_nanos(400),
        }
    }

    /// Zero-filling a 2 MB frame (512 base pages).
    pub fn zero_2m(&self) -> Cycles {
        self.zero_4k * 512
    }

    /// Zero-scan cost for `bytes` examined.
    pub fn scan(&self, bytes: u64) -> Cycles {
        Cycles::new((bytes as f64 * self.scan_byte) as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Top-level simulator configuration.
///
/// # Examples
///
/// ```
/// use hawkeye_kernel::KernelConfig;
///
/// let cfg = KernelConfig::small();
/// assert!(cfg.frames >= 1024);
/// ```
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Physical memory size in 4 KB frames.
    pub frames: u64,
    /// TLB/MMU geometry.
    pub tlb: TlbConfig,
    /// Run with nested (two-dimensional) page walks.
    pub nested: bool,
    /// Buddy-allocator cross-zero-ness merging (see
    /// [`hawkeye_mem::PhysMemory::with_cross_merge`]). Baselines that do
    /// not maintain a zero pool should set this true.
    pub cross_merge: bool,
    /// Per-round execution quantum for each runnable process.
    pub quantum: Cycles,
    /// Period between policy ticks (daemon scheduling granularity).
    pub tick_period: Cycles,
    /// Period between metric samples (0 disables sampling).
    pub sample_period: Cycles,
    /// Hard stop for [`crate::Simulator::run`].
    pub max_time: Cycles,
    /// Cost model.
    pub costs: CostModel,
    /// Enable the simulator's fast path: batched `TouchRange`/`TouchList`
    /// execution. The fast path is exact — every counter is bit-identical with it off — so
    /// this switch exists only for differential testing.
    pub fast_path: bool,
    /// Simulated cores (1–8). At 1 (the default) the machine is the
    /// classic serial engine, bit-identical with every pre-multicore
    /// artifact. Above 1 the last two cores host khugepaged and the
    /// pre-zeroing daemon while app processes spread over the rest, and
    /// the machine records a per-core lock/allocator access plan replayed
    /// by [`crate::multicore`] into `lock.*` contention metrics (the only
    /// counters allowed to differ across core counts — aggregate work
    /// counters stay pinned exactly).
    pub cores: u32,
}

impl KernelConfig {
    /// A 256 MiB machine for unit tests and quick examples.
    pub fn small() -> Self {
        KernelConfig {
            frames: 64 * 1024,
            tlb: TlbConfig::haswell(),
            nested: false,
            cross_merge: false,
            quantum: Cycles::from_millis(2),
            tick_period: Cycles::from_millis(10),
            sample_period: Cycles::from_millis(100),
            max_time: Cycles::from_secs(300.0),
            costs: CostModel::paper(),
            fast_path: true,
            cores: 1,
        }
    }

    /// A machine with `mib` MiB of physical memory (other parameters as
    /// [`KernelConfig::small`]).
    pub fn with_mib(mib: u64) -> Self {
        KernelConfig { frames: mib * 256, ..Self::small() }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs_match_section_2_2() {
        let c = CostModel::paper();
        // Full synchronous 4 KB fault ≈ 3.5 µs, zeroing ≈ 25 % of it.
        let full_4k = c.fault_base_4k + c.zero_4k;
        assert!((full_4k.as_micros() - 3.53).abs() < 0.05, "{}", full_4k.as_micros());
        let frac = c.zero_4k.as_micros() / full_4k.as_micros();
        assert!((0.2..=0.3).contains(&frac), "{frac}");
        // Full synchronous 2 MB fault ≈ 465 µs, zeroing ≈ 97 % of it.
        let full_2m = c.fault_base_2m + c.zero_2m();
        assert!((455.0..480.0).contains(&full_2m.as_micros()), "{}", full_2m.as_micros());
        let frac = c.zero_2m().as_micros() / full_2m.as_micros();
        assert!(frac > 0.95, "{frac}");
    }

    #[test]
    fn scan_cost_proportional_to_bytes() {
        let c = CostModel::paper();
        assert_eq!(c.scan(0), Cycles::ZERO);
        assert_eq!(c.scan(4096).get(), 1024);
        // An average in-use page (10 bytes) is ~400x cheaper than a bloat
        // page (4096 bytes) — the property §3.2 relies on.
        assert!(c.scan(4096).get() > 100 * c.scan(10).get().max(1));
    }

    #[test]
    fn with_mib_sets_frames() {
        assert_eq!(KernelConfig::with_mib(512).frames, 512 * 256);
        assert_eq!(KernelConfig::default().frames, KernelConfig::small().frames);
    }
}
