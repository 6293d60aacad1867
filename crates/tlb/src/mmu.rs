//! The MMU front end: TLB hierarchy + walker + PMU.
//!
//! Every simulated memory access consults the L1 TLB for its page size,
//! then the unified L2, then walks the page table. Walk durations are
//! charged to the per-process PMU counters exactly as the paper's Table 4
//! methodology expects.

use crate::config::TlbConfig;
use crate::pmu::{Pmu, PmuWindow};
use crate::tlb::SetAssocTlb;
use crate::walker::PageWalker;
use hawkeye_metrics::Cycles;
use hawkeye_vm::{PageSize, Vpn};

/// Timing outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Translation overhead beyond an L1 TLB hit (L2 lookup + walk).
    pub cycles: Cycles,
    /// Whether the access missed both TLB levels and walked.
    pub tlb_miss: bool,
    /// The walk portion of `cycles` (what the PMU counters see).
    pub walk_cycles: Cycles,
}

/// The per-socket MMU model.
///
/// # Examples
///
/// ```
/// use hawkeye_tlb::{Mmu, TlbConfig};
/// use hawkeye_vm::{Vpn, PageSize};
///
/// let mut mmu = Mmu::new(TlbConfig::haswell());
/// // A 2 MB mapping covers all 512 base pages with one entry:
/// mmu.access(1, Vpn(0), PageSize::Huge, false);
/// let o = mmu.access(1, Vpn(511), PageSize::Huge, true);
/// assert!(!o.tlb_miss);
/// ```
#[derive(Debug, Clone)]
pub struct Mmu {
    l1_4k: SetAssocTlb,
    l1_2m: SetAssocTlb,
    l2: SetAssocTlb,
    walker: PageWalker,
    pmu: Pmu,
    nested: bool,
    l2_lookup_cycles: u64,
}

impl Mmu {
    /// Creates an MMU with the given geometry, in native (non-nested)
    /// mode.
    pub fn new(cfg: TlbConfig) -> Self {
        Mmu {
            l1_4k: SetAssocTlb::new(cfg.l1_4k_entries, cfg.l1_4k_assoc),
            l1_2m: SetAssocTlb::new(cfg.l1_2m_entries, cfg.l1_2m_assoc),
            l2: SetAssocTlb::new(cfg.l2_entries, cfg.l2_assoc),
            walker: PageWalker::new(&cfg),
            pmu: Pmu::new(),
            nested: false,
            l2_lookup_cycles: cfg.l2_lookup_cycles,
        }
    }

    /// Switches two-dimensional (nested) paging on or off. Virtualized
    /// experiments run with nested walks; see Fig. 9.
    pub fn set_nested(&mut self, nested: bool) {
        self.nested = nested;
    }

    /// Whether nested paging is enabled.
    pub fn nested(&self) -> bool {
        self.nested
    }

    /// Install the event-journal sink (forwarded to the PMU for
    /// `QuantumEnd` snapshots).
    pub fn set_trace_sink(&mut self, trace: hawkeye_trace::TraceSink) {
        self.pmu.set_trace_sink(trace);
    }

    /// Install the cycle-attribution sink (forwarded to the PMU for the
    /// walk-duration histogram).
    pub fn set_metrics_sink(&mut self, metrics: hawkeye_metrics::MetricsSink) {
        self.pmu.set_metrics_sink(metrics);
    }

    // L2 is unified across page sizes; tag keys with the size so a 4 KB
    // and a 2 MB entry for overlapping ranges never alias.
    #[inline]
    fn l2_key(key: u64, size: PageSize) -> u64 {
        (key << 1) | matches!(size, PageSize::Huge) as u64
    }

    /// Simulates the translation of one access to `vpn`, mapped at `size`.
    /// Returns the translation timing; walk durations are charged to the
    /// PMU (`write` selects the store-walk counter).
    pub fn access(&mut self, pid: u32, vpn: Vpn, size: PageSize, write: bool) -> AccessOutcome {
        let key = match size {
            PageSize::Base => vpn.0,
            PageSize::Huge => vpn.hvpn().0,
        };
        let l1 = match size {
            PageSize::Base => &mut self.l1_4k,
            PageSize::Huge => &mut self.l1_2m,
        };
        if l1.lookup(pid, key) {
            return AccessOutcome { cycles: Cycles::ZERO, tlb_miss: false, walk_cycles: Cycles::ZERO };
        }
        let l2_cost = Cycles::new(self.l2_lookup_cycles);
        if self.l2.lookup(pid, Self::l2_key(key, size)) {
            // The L1 lookup above just missed and nothing touched L1 since.
            l1.insert_absent(pid, key);
            return AccessOutcome { cycles: l2_cost, tlb_miss: false, walk_cycles: Cycles::ZERO };
        }
        let walk = self.walker.walk(pid, vpn, size, self.nested);
        self.pmu.record_walk(pid, walk, write);
        let l1 = match size {
            PageSize::Base => &mut self.l1_4k,
            PageSize::Huge => &mut self.l1_2m,
        };
        // Both lookups above missed; the walk touches only the PWCs.
        l1.insert_absent(pid, key);
        self.l2.insert_absent(pid, Self::l2_key(key, size));
        AccessOutcome { cycles: l2_cost + walk, tlb_miss: true, walk_cycles: walk }
    }

    /// Records `n` consecutive guaranteed L1 hits on one entry in a
    /// single step — equivalent to `n` [`Mmu::access`] calls that would
    /// each hit L1 (each such call returns `AccessOutcome::ZERO`-like
    /// timing and touches no other structure). Returns `false` without
    /// any state change when the entry is not resident in L1; the caller
    /// must then fall back to per-access modeling.
    pub fn record_l1_hits(&mut self, pid: u32, vpn: Vpn, size: PageSize, n: u64) -> bool {
        let (l1, key) = match size {
            PageSize::Base => (&mut self.l1_4k, vpn.0),
            PageSize::Huge => (&mut self.l1_2m, vpn.hvpn().0),
        };
        l1.record_hits(pid, key, n)
    }

    /// Charges executed (unhalted) cycles to a process — the denominator
    /// of the Table 4 overhead formula.
    pub fn record_unhalted(&mut self, pid: u32, cycles: Cycles) {
        self.pmu.record_unhalted(pid, cycles);
    }

    /// Flushes walk durations batched since the last call into the
    /// registry's `walk_cycles` histogram (see [`Pmu::flush_metrics`]).
    pub fn flush_metrics(&mut self) {
        self.pmu.flush_metrics();
    }

    /// Lifetime counters for `pid`.
    pub fn lifetime(&self, pid: u32) -> PmuWindow {
        self.pmu.lifetime(pid)
    }

    /// Reads and resets the current measurement window for `pid`
    /// (HawkEye-PMU sampling).
    pub fn sample_window(&mut self, pid: u32) -> PmuWindow {
        self.pmu.sample_window(pid)
    }

    /// Reads the current window without resetting.
    pub fn window(&self, pid: u32) -> PmuWindow {
        self.pmu.window(pid)
    }

    /// TLB shootdown for a single base page (unmap / remap / migration).
    pub fn invalidate_page(&mut self, pid: u32, vpn: Vpn) {
        self.l1_4k.invalidate(pid, vpn.0);
        self.l2.invalidate(pid, Self::l2_key(vpn.0, PageSize::Base));
    }

    /// TLB shootdown for a huge region: drops the 2 MB entry, every 4 KB
    /// entry inside, and the walker's PWC entry (promotion, demotion,
    /// region unmap).
    pub fn invalidate_region(&mut self, pid: u32, hvpn: u64) {
        self.l1_2m.invalidate(pid, hvpn);
        self.l2.invalidate(pid, Self::l2_key(hvpn, PageSize::Huge));
        let lo = hvpn << 9;
        let hi = lo + 512;
        self.l1_4k.invalidate_if(pid, |k| k >= lo && k < hi);
        self.l2.invalidate_if(pid, |k| {
            (k & 1 == 0) && {
                let v = k >> 1;
                v >= lo && v < hi
            }
        });
        self.walker.invalidate_region(pid, hvpn);
    }

    /// Drops a process's cached translations (exit, full flush) while
    /// keeping its PMU counters readable for post-mortem reporting.
    pub fn flush_translations(&mut self, pid: u32) {
        self.l1_4k.invalidate_pid(pid);
        self.l1_2m.invalidate_pid(pid);
        self.l2.invalidate_pid(pid);
        self.walker.invalidate_pid(pid);
    }

    /// Drops all of a process's translations *and* counters.
    pub fn remove_process(&mut self, pid: u32) {
        self.flush_translations(pid);
        self.pmu.remove(pid);
    }

    /// Total page walks performed.
    pub fn total_walks(&self) -> u64 {
        self.walker.walks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut mmu = Mmu::new(TlbConfig::haswell());
        let a = mmu.access(1, Vpn(5), PageSize::Base, false);
        assert!(a.tlb_miss);
        assert!(a.walk_cycles > Cycles::ZERO);
        let b = mmu.access(1, Vpn(5), PageSize::Base, false);
        assert!(!b.tlb_miss);
        assert_eq!(b.cycles, Cycles::ZERO);
    }

    #[test]
    fn huge_entry_covers_region() {
        let mut mmu = Mmu::new(TlbConfig::haswell());
        mmu.access(1, Vpn(0), PageSize::Huge, false);
        for vpn in [1u64, 100, 511] {
            assert!(!mmu.access(1, Vpn(vpn), PageSize::Huge, false).tlb_miss);
        }
        assert!(mmu.access(1, Vpn(512), PageSize::Huge, false).tlb_miss);
    }

    #[test]
    fn huge_reach_exceeds_base_reach() {
        // Touch 256 MB worth of pages: 4 KB pages thrash the TLBs, 2 MB
        // pages fit easily.
        let pages_2m = 128u64;
        let mut base_misses = 0;
        let mut huge_misses = 0;
        let mut mb = Mmu::new(TlbConfig::haswell());
        let mut mh = Mmu::new(TlbConfig::haswell());
        for round in 0..3 {
            let _ = round;
            for h in 0..pages_2m {
                for p in (0..512).step_by(64) {
                    let vpn = Vpn(h * 512 + p);
                    base_misses += mb.access(1, vpn, PageSize::Base, false).tlb_miss as u64;
                    huge_misses += mh.access(1, vpn, PageSize::Huge, false).tlb_miss as u64;
                }
            }
        }
        assert!(huge_misses * 10 < base_misses, "base {base_misses} huge {huge_misses}");
    }

    #[test]
    fn pmu_sees_walk_cycles() {
        let mut mmu = Mmu::new(TlbConfig::haswell());
        let o = mmu.access(9, Vpn(1000), PageSize::Base, true);
        mmu.record_unhalted(9, Cycles::new(1000));
        let w = mmu.lifetime(9);
        assert_eq!(w.store_walk, o.walk_cycles);
        assert_eq!(w.load_walk, Cycles::ZERO);
        assert!(w.mmu_overhead() > 0.0);
    }

    #[test]
    fn region_invalidation_forces_miss() {
        let mut mmu = Mmu::new(TlbConfig::haswell());
        mmu.access(1, Vpn(3), PageSize::Base, false);
        mmu.access(1, Vpn(0), PageSize::Huge, false);
        mmu.invalidate_region(1, 0);
        assert!(mmu.access(1, Vpn(3), PageSize::Base, false).tlb_miss);
        assert!(mmu.access(1, Vpn(0), PageSize::Huge, false).tlb_miss);
    }

    #[test]
    fn nested_mode_doubles_down_on_walk_cost() {
        let mut native = Mmu::new(TlbConfig::haswell());
        let mut virt = Mmu::new(TlbConfig::haswell());
        virt.set_nested(true);
        assert!(virt.nested());
        let n = native.access(1, Vpn(777), PageSize::Base, false);
        let v = virt.access(1, Vpn(777), PageSize::Base, false);
        assert!(v.walk_cycles > n.walk_cycles);
    }

    #[test]
    fn process_removal_clears_counters() {
        let mut mmu = Mmu::new(TlbConfig::haswell());
        mmu.access(1, Vpn(1), PageSize::Base, false);
        mmu.remove_process(1);
        assert_eq!(mmu.lifetime(1).walks, 0);
        assert!(mmu.access(1, Vpn(1), PageSize::Base, false).tlb_miss);
    }

    #[test]
    fn record_l1_hits_matches_serial_accesses() {
        let mut bulk = Mmu::new(TlbConfig::haswell());
        let mut serial = Mmu::new(TlbConfig::haswell());
        // Warm both with the same miss.
        bulk.access(1, Vpn(0), PageSize::Huge, false);
        serial.access(1, Vpn(0), PageSize::Huge, false);
        assert!(bulk.record_l1_hits(1, Vpn(7), PageSize::Huge, 100));
        for i in 0..100u64 {
            let o = serial.access(1, Vpn(i % 512), PageSize::Huge, false);
            assert!(!o.tlb_miss);
            assert_eq!(o.cycles, Cycles::ZERO);
        }
        // Same lifetime PMU state (no walks recorded by hits) and same
        // subsequent behavior.
        assert_eq!(bulk.lifetime(1).walks, serial.lifetime(1).walks);
        let b = bulk.access(1, Vpn(512), PageSize::Huge, false);
        let s = serial.access(1, Vpn(512), PageSize::Huge, false);
        assert_eq!(b, s);
        // Cold entry: refused, untouched.
        assert!(!bulk.record_l1_hits(2, Vpn(0), PageSize::Base, 5));
    }

    #[test]
    fn l2_and_l1_sizes_do_not_alias() {
        let mut mmu = Mmu::new(TlbConfig::haswell());
        // hvpn 5 and vpn 5 must be distinct L2 entries.
        mmu.access(1, Vpn(5 * 512), PageSize::Huge, false);
        let o = mmu.access(1, Vpn(5), PageSize::Base, false);
        assert!(o.tlb_miss);
    }
}
