//! The async pre-zeroing daemon (§3.1).
//!
//! A rate-limited background thread transfers pages from the buddy
//! allocator's non-zero free lists to the zero lists, clearing them with
//! non-temporal stores so the shared LLC is not polluted (Fig. 10
//! quantifies the temporal-store alternative). Because allocation prefers
//! the zero lists, fault-time zeroing — 97 % of a 2 MB fault's latency —
//! disappears in the common case.

use hawkeye_kernel::Machine;
use hawkeye_metrics::Cycles;
use hawkeye_policies::TokenBucket;
use hawkeye_tlb::StoreMode;

/// The pre-zeroing daemon state.
///
/// # Examples
///
/// ```
/// use hawkeye_core::PrezeroDaemon;
/// use hawkeye_tlb::StoreMode;
///
/// let d = PrezeroDaemon::new(10_000.0, StoreMode::NonTemporal);
/// assert_eq!(d.pages_zeroed(), 0);
/// ```
#[derive(Debug)]
pub struct PrezeroDaemon {
    budget: TokenBucket,
    mode: StoreMode,
    pages_zeroed: u64,
}

impl PrezeroDaemon {
    /// Creates a daemon zeroing at most `pages_per_sec`, using `mode`
    /// stores.
    pub fn new(pages_per_sec: f64, mode: StoreMode) -> Self {
        PrezeroDaemon {
            budget: TokenBucket::new(pages_per_sec).with_cap(pages_per_sec / 10.0),
            mode,
            pages_zeroed: 0,
        }
    }

    /// The store flavour in use (drives the Fig. 10 interference model).
    pub fn store_mode(&self) -> StoreMode {
        self.mode
    }

    /// Total pages zeroed so far.
    pub fn pages_zeroed(&self) -> u64 {
        self.pages_zeroed
    }

    /// Runs one tick at simulated time `now`: zeroes up to the accrued
    /// budget. Returns pages zeroed this tick.
    pub fn tick(&mut self, m: &mut Machine, now: Cycles) -> u64 {
        self.budget.refill(now);
        let budget = self.budget.available().floor();
        if budget < 1.0 {
            return 0;
        }
        let zeroed = m.prezero(budget as u64);
        let _ = self.budget.take(zeroed as f64);
        self.pages_zeroed += zeroed;
        zeroed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_kernel::KernelConfig;
    use hawkeye_mem::{AllocPref, PageContent, Pfn, MAX_ORDER};

    fn dirty_machine() -> Machine {
        let mut m = Machine::new(KernelConfig::small());
        // Dirty a chunk of free memory.
        let a = m.pm_mut().alloc(MAX_ORDER, AllocPref::Zeroed).unwrap();
        for i in 0..MAX_ORDER.pages() {
            m.pm_mut().frame_mut(Pfn(a.pfn.0 + i)).set_content(PageContent::non_zero(3));
        }
        m.pm_mut().free(a.pfn, a.order);
        m
    }

    #[test]
    fn rate_limit_bounds_work_per_tick() {
        let mut m = dirty_machine();
        let mut d = PrezeroDaemon::new(1000.0, StoreMode::NonTemporal);
        // 100 ms of budget = 100 pages.
        let z = d.tick(&mut m, Cycles::from_millis(100));
        assert!(z <= 100, "{z}");
        assert!(z > 0);
        assert_eq!(d.pages_zeroed(), z);
    }

    #[test]
    fn converges_and_then_idles() {
        let mut m = dirty_machine();
        let mut d = PrezeroDaemon::new(1e9, StoreMode::NonTemporal);
        let z = d.tick(&mut m, Cycles::from_secs(1.0));
        assert_eq!(z, MAX_ORDER.pages());
        assert_eq!(m.pm().nonzeroed_free_pages(), 0);
        let z2 = d.tick(&mut m, Cycles::from_secs(2.0));
        assert_eq!(z2, 0, "nothing left to zero");
    }

    #[test]
    fn fractional_budget_waits() {
        let mut m = dirty_machine();
        let mut d = PrezeroDaemon::new(10.0, StoreMode::Temporal);
        assert_eq!(d.tick(&mut m, Cycles::from_millis(50)), 0, "0.5 tokens: wait");
        assert_eq!(d.store_mode(), StoreMode::Temporal);
        assert!(d.tick(&mut m, Cycles::from_millis(200)) >= 1);
    }

    #[test]
    fn stats_flow_to_kernel() {
        let mut m = dirty_machine();
        let mut d = PrezeroDaemon::new(1e9, StoreMode::NonTemporal);
        d.tick(&mut m, Cycles::from_secs(1.0));
        assert_eq!(m.stats().prezeroed_pages, MAX_ORDER.pages());
        assert!(m.stats().daemon_cycles > Cycles::ZERO);
    }
}
