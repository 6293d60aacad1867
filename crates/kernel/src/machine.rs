//! The simulated machine: physical memory + MMU + processes.
//!
//! `Machine` exposes the mechanism layer that huge-page *policies* are
//! composed from, mirroring the kernel facilities HawkEye patches:
//!
//! * fault-time allocation of base/huge frames (with pre-zeroed-list
//!   preference and synchronous-zeroing cost accounting),
//! * promotion — collapsing a region's base pages into a huge page
//!   (khugepaged's `collapse_huge_page`),
//! * demotion — splitting a huge mapping back to base pages,
//! * zero-page de-duplication — HawkEye's bloat recovery primitive,
//! * compaction, file-cache reclaim, and the async pre-zeroing step,
//! * `madvise(MADV_DONTNEED)` with THP splitting and TLB shootdowns.

use crate::config::KernelConfig;
use crate::multicore::{page_key, ConcRecorder};
use crate::process::Process;
use crate::rng::SplitMix64;
use crate::stats::KernelStats;
use crate::workload::Workload;
use hawkeye_mem::{
    compact, AllocPref, Allocation, FrameKind, Order, OwnerTag, PageContent, Pfn, PhysMemory,
    HUGE_ORDER,
};
use hawkeye_metrics::{Cycles, MetricsSink, Recorder, SimClock, Subsystem, UNHALTED};
use hawkeye_mem::fmfi::fmfi;
use hawkeye_tlb::Mmu;
use hawkeye_trace::{TraceEvent, TraceSink};
use hawkeye_vm::{Hvpn, PageSize, Vpn};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Error from a promotion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteError {
    /// No such process.
    NoProcess,
    /// The region is not fully covered by a huge-eligible VMA.
    NotPromotable,
    /// The region is already mapped huge.
    AlreadyHuge,
    /// Nothing is mapped in the region.
    EmptyRegion,
    /// No contiguous 2 MB block could be allocated.
    NoContiguousMemory,
}

impl fmt::Display for PromoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PromoteError::NoProcess => "no such process",
            PromoteError::NotPromotable => "region is not fully covered by an anonymous vma",
            PromoteError::AlreadyHuge => "region is already mapped huge",
            PromoteError::EmptyRegion => "region has no mapped pages",
            PromoteError::NoContiguousMemory => "no contiguous huge block available",
        };
        f.write_str(s)
    }
}

impl Error for PromoteError {}

/// Outcome of a successful promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promoted {
    /// Pages copied from existing base mappings.
    pub copied_pages: u32,
    /// Previously-unmapped pages now implicitly resident (bloat risk).
    pub filled_pages: u32,
    /// Daemon cycles charged.
    pub cycles: Cycles,
}

/// Outcome of a bloat-recovery scan of one huge page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupOutcome {
    /// Below the threshold: the huge page was kept.
    Kept {
        /// Zero-filled base pages found.
        zero_pages: u32,
        /// Scan cycles charged.
        cycles: Cycles,
    },
    /// Demoted and de-duplicated: zero pages now share the canonical zero
    /// page and their frames were freed (pre-zeroed, conveniently).
    Deduped {
        /// Zero pages de-duplicated.
        zero_pages: u32,
        /// Cycles charged (scan + demotion + remap).
        cycles: Cycles,
    },
}

/// Out-of-memory error: allocation failed even after reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("out of memory")
    }
}

impl Error for OutOfMemory {}

/// The simulated machine.
pub struct Machine {
    config: KernelConfig,
    pm: PhysMemory,
    mmu: Mmu,
    clock: SimClock,
    processes: BTreeMap<u32, Process>,
    next_pid: u32,
    zero_pfn: Pfn,
    file_pages: BTreeSet<Pfn>,
    stats: KernelStats,
    recorder: Recorder,
    trace: TraceSink,
    metrics: MetricsSink,
    /// Multi-core access-plan recorder; `None` at `cores = 1`, where the
    /// machine is exactly the serial engine (no recording, no overhead).
    conc: Option<ConcRecorder>,
}

impl Machine {
    /// Boots a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configured frame count is not a valid
    /// [`PhysMemory`] size.
    pub fn new(config: KernelConfig) -> Self {
        // One sink per machine, attached to the current thread's trace
        // scope (disabled otherwise); clones share its simulated clock.
        // The metrics sink mirrors the pattern for the cycle-attribution
        // registry; both hand out per-scope machine ids in creation order.
        let trace = TraceSink::attach_current();
        let metrics = MetricsSink::attach_current();
        let mut pm = PhysMemory::with_cross_merge(config.frames, config.cross_merge);
        pm.set_trace_sink(trace.clone());
        pm.set_metrics_sink(metrics.clone());
        let mut mmu = Mmu::new(config.tlb);
        mmu.set_nested(config.nested);
        mmu.set_trace_sink(trace.clone());
        mmu.set_metrics_sink(metrics.clone());
        // Reserve the canonical zero page.
        let z = pm.alloc(Order(0), AllocPref::Zeroed).expect("boot memory");
        pm.set_kind(z.pfn, FrameKind::Pinned);
        let conc = (config.cores > 1).then(|| ConcRecorder::new(config.cores));
        Machine {
            config,
            pm,
            mmu,
            clock: SimClock::new(),
            processes: BTreeMap::new(),
            next_pid: 1,
            zero_pfn: z.pfn,
            file_pages: BTreeSet::new(),
            stats: KernelStats::default(),
            recorder: Recorder::new(),
            trace,
            metrics,
            conc,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Advances simulated time. The [`crate::Simulator`] does this once
    /// per scheduler round; custom drivers (e.g. the virtualization layer
    /// advancing a host machine in lockstep with guests) use it directly.
    pub fn advance(&mut self, d: Cycles) {
        self.clock.advance(d);
        self.trace.set_now(self.clock.now());
    }

    /// The configuration the machine was booted with.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Kernel-wide statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The machine's event-journal sink (disabled no-op handle unless a
    /// trace scope was active when the machine booted).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The machine's cycle-attribution sink (disabled no-op handle unless
    /// a registry scope was active when the machine booted). Policies and
    /// daemons use it for counters/histograms; cycle charges flow through
    /// the fault primitives and [`Machine::record_unhalted`].
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Credits one scheduler quantum's executed cycles to `pid`'s PMU
    /// window and the machine's `CPU_CLK_UNHALTED` counter. The simulator
    /// calls this once per quantum, after attributing the same cycles by
    /// subsystem — keeping `Σ cycles.cpu.* == cycles.unhalted` exact.
    pub fn record_unhalted(&mut self, pid: u32, spent: Cycles) {
        self.mmu.record_unhalted(pid, spent);
        self.metrics.add(UNHALTED, spent.get());
    }

    /// Physical memory state.
    pub fn pm(&self) -> &PhysMemory {
        &self.pm
    }

    /// Mutable physical memory (frame metadata edits by policies).
    pub fn pm_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }

    /// The MMU model (PMU counters live here).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable MMU (HawkEye-PMU samples counter windows).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The canonical zero page's frame.
    pub fn zero_pfn(&self) -> Pfn {
        self.zero_pfn
    }

    /// Metric recorder (time series for the figures).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records a metric sample at the current time.
    pub fn record(&mut self, name: &str, value: f64) {
        let now = self.clock.now();
        self.recorder.record_at(name, now, value);
    }

    /// Fraction of physical memory allocated.
    pub fn utilization(&self) -> f64 {
        self.pm.utilization()
    }

    /// Free-memory fragmentation index at the huge-page order.
    pub fn fmfi(&self) -> f64 {
        fmfi(&self.pm, HUGE_ORDER)
    }

    /// Creates a process running `workload`. Returns its pid.
    pub fn spawn(&mut self, workload: Box<dyn Workload>) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.insert(pid, Process::new(pid, workload));
        pid
    }

    /// All pids ever spawned, in order.
    pub fn pids(&self) -> Vec<u32> {
        self.processes.keys().copied().collect()
    }

    /// Pids of processes still running.
    pub fn running_pids(&self) -> Vec<u32> {
        self.processes.values().filter(|p| !p.is_finished()).map(Process::pid).collect()
    }

    /// Looks up a process.
    pub fn process(&self, pid: u32) -> Option<&Process> {
        self.processes.get(&pid)
    }

    /// Looks up a process mutably.
    pub fn process_mut(&mut self, pid: u32) -> Option<&mut Process> {
        self.processes.get_mut(&pid)
    }

    /// Split borrow for the touch hot path: one process lookup hands the
    /// run loop every piece a mapped touch needs (address space, MMU
    /// model, frame contents, cost table) as disjoint borrows.
    pub(crate) fn touch_parts(
        &mut self,
        pid: u32,
    ) -> Option<(&mut Process, &mut Mmu, &mut PhysMemory, &KernelConfig)> {
        let p = self.processes.get_mut(&pid)?;
        Some((p, &mut self.mmu, &mut self.pm, &self.config))
    }

    // ---- allocation & fault primitives -----------------------------------

    /// Allocates a user block, reclaiming file-cache pages on pressure.
    /// Returns the allocation and the reclaim cycles incurred (if any).
    pub fn alloc_user(&mut self, order: Order, pref: AllocPref) -> Option<(Allocation, Cycles)> {
        if let Ok(a) = self.pm.alloc(order, pref) {
            return Some((a, Cycles::ZERO));
        }
        // Direct reclaim: drop file pages and retry.
        let want = (order.pages() * 4).max(1024);
        let reclaimed = self.reclaim_file_pages(want);
        if reclaimed == 0 {
            return None;
        }
        let cost = self.config.costs.reclaim_4k * reclaimed;
        self.pm.alloc(order, pref).ok().map(|a| (a, cost))
    }

    /// Maps a freshly allocated base page at `vpn` for `pid`, charging the
    /// fault handler plus synchronous zeroing if the frame was dirty.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] if no frame could be allocated even after reclaim.
    pub fn fault_map_base(&mut self, pid: u32, vpn: Vpn) -> Result<Cycles, OutOfMemory> {
        let (a, reclaim_cost) = self.alloc_user(Order(0), AllocPref::Zeroed).ok_or(OutOfMemory)?;
        let mut cost = self.config.costs.fault_base_4k + reclaim_cost;
        self.metrics.charge_cpu(Subsystem::Fault, cost);
        if !a.was_zeroed {
            cost += self.zero_sync(a.pfn, Order(0));
        }
        self.finish_map_base(pid, vpn, a.pfn);
        self.conc_app(pid, vpn.hvpn(), cost, true);
        Ok(cost)
    }

    /// Maps a policy-provided frame (FreeBSD-style reservations) at `vpn`.
    pub fn fault_map_base_at(&mut self, pid: u32, vpn: Vpn, pfn: Pfn) -> Cycles {
        let mut cost = self.config.costs.fault_base_4k;
        self.metrics.charge_cpu(Subsystem::Fault, cost);
        if !self.pm.frame(pfn).is_zeroed() {
            cost += self.zero_sync(pfn, Order(0));
        }
        self.finish_map_base(pid, vpn, pfn);
        self.conc_app(pid, vpn.hvpn(), cost, false);
        cost
    }

    /// Zeroes a dirty block synchronously on the fault path: clears its
    /// frames, counts them in `sync_zeroed_pages` and charges the zeroing
    /// to the CPU's `Zero` ledger. Returns the cycles charged.
    fn zero_sync(&mut self, pfn: Pfn, order: Order) -> Cycles {
        self.pm.zero_block(pfn, order);
        self.stats.sync_zeroed_pages += order.pages();
        let cost = self.config.costs.zero_4k * order.pages();
        self.metrics.charge_cpu(Subsystem::Zero, cost);
        cost
    }

    fn finish_map_base(&mut self, pid: u32, vpn: Vpn, pfn: Pfn) {
        self.pm.set_kind(pfn, FrameKind::Anon);
        self.pm.frame_mut(pfn).set_owner(Some(OwnerTag { pid, vpn: vpn.0 }));
        self.pm.set_movable(pfn, true);
        let p = self.processes.get_mut(&pid).expect("faulting process exists");
        p.space_mut().map_base(vpn, pfn).expect("fault target is valid and unmapped");
    }

    /// Maps a huge page over `vpn`'s region, charging the huge fault
    /// handler plus synchronous zeroing if needed. Falls back to a base
    /// mapping when no contiguous block is available (Linux behaviour).
    ///
    /// Returns `(cycles, was_huge)`.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] if neither a huge nor a base frame could be
    /// allocated.
    pub fn fault_map_huge(&mut self, pid: u32, vpn: Vpn) -> Result<(Cycles, bool), OutOfMemory> {
        let hvpn = vpn.hvpn();
        let promotable = self
            .processes
            .get(&pid)
            .map(|p| p.space().region_promotable(hvpn))
            .unwrap_or(false);
        // Any existing base mapping in the region forbids a huge fault.
        let region_empty = self
            .processes
            .get(&pid)
            .map(|p| p.space().page_table().region_mapped_count(hvpn) == 0)
            .unwrap_or(false);
        if !promotable || !region_empty {
            return self.fault_map_base(pid, vpn).map(|c| (c, false));
        }
        let Ok(a) = self.pm.alloc(HUGE_ORDER, AllocPref::Zeroed) else {
            return self.fault_map_base(pid, vpn).map(|c| (c, false));
        };
        let mut cost = self.config.costs.fault_base_2m;
        self.metrics.charge_cpu(Subsystem::Fault, cost);
        if !a.was_zeroed {
            cost += self.zero_sync(a.pfn, HUGE_ORDER);
        }
        self.install_huge_frames(pid, hvpn, a.pfn);
        let p = self.processes.get_mut(&pid).expect("faulting process exists");
        p.space_mut().map_huge(hvpn, a.pfn).expect("region checked promotable and empty");
        self.conc_app(pid, hvpn, cost, true);
        Ok((cost, true))
    }

    fn install_huge_frames(&mut self, pid: u32, hvpn: Hvpn, base_pfn: Pfn) {
        for i in 0..512u64 {
            let pfn = Pfn(base_pfn.0 + i);
            self.pm.set_kind(pfn, FrameKind::Anon);
            self.pm.frame_mut(pfn).set_owner(Some(OwnerTag { pid, vpn: hvpn.vpn_at(i).0 }));
            self.pm.set_movable(pfn, false);
        }
    }

    /// Handles a write to a zero-COW mapping: allocates a private zeroed
    /// frame and remaps. Returns the fault cycles.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] on allocation failure.
    pub fn cow_fault(&mut self, pid: u32, vpn: Vpn) -> Result<Cycles, OutOfMemory> {
        let (a, reclaim_cost) = self.alloc_user(Order(0), AllocPref::Zeroed).ok_or(OutOfMemory)?;
        let mut cost =
            self.config.costs.fault_base_4k + self.config.costs.cow_extra + reclaim_cost;
        self.metrics.charge_cpu(Subsystem::Fault, cost);
        if !a.was_zeroed {
            cost += self.zero_sync(a.pfn, Order(0));
        }
        self.pm.set_kind(a.pfn, FrameKind::Anon);
        self.pm.frame_mut(a.pfn).set_owner(Some(OwnerTag { pid, vpn: vpn.0 }));
        let p = self.processes.get_mut(&pid).expect("faulting process exists");
        let space = p.space_mut();
        space.unmap_base(vpn).expect("zero-cow entry exists");
        space.map_base(vpn, a.pfn).expect("just unmapped");
        self.mmu.invalidate_page(pid, vpn);
        let p = self.processes.get_mut(&pid).expect("exists");
        p.stats_mut().cow_faults += 1;
        self.conc_app(pid, vpn.hvpn(), cost, true);
        Ok(cost)
    }

    // ---- promotion / demotion / de-duplication ---------------------------

    /// Collapses a region's base mappings into a huge page (khugepaged).
    /// Charged to daemon time.
    ///
    /// # Errors
    ///
    /// See [`PromoteError`].
    pub fn promote(&mut self, pid: u32, hvpn: Hvpn) -> Result<Promoted, PromoteError> {
        let p = self.processes.get(&pid).ok_or(PromoteError::NoProcess)?;
        let space = p.space();
        if space.page_table().huge_entry(hvpn).is_some() {
            return Err(PromoteError::AlreadyHuge);
        }
        if !space.region_promotable(hvpn) {
            return Err(PromoteError::NotPromotable);
        }
        if space.page_table().region_mapped_count(hvpn) == 0 {
            return Err(PromoteError::EmptyRegion);
        }
        let a = self
            .pm
            .alloc(HUGE_ORDER, AllocPref::Zeroed)
            .map_err(|_| PromoteError::NoContiguousMemory)?;

        let p = self.processes.get_mut(&pid).expect("checked above");
        let mut cost = Cycles::ZERO;
        let mut copied = 0u32;
        let mut taken = 0u32;
        let mut covered = [false; 512];
        // Copy mapped pages into the huge frame; free their old frames.
        // (Callback drain: the entries never materialize in a Vec.)
        let pm = &mut self.pm;
        let mmu = &mut self.mmu;
        let costs = &self.config.costs;
        p.space_mut().page_table_mut().take_base_entries_in_region(hvpn, |vpn, e| {
            let off = vpn.huge_offset();
            covered[off as usize] = true;
            taken += 1;
            let dst = Pfn(a.pfn.0 + off);
            if e.zero_cow {
                // Shared zero page: the destination must be zero.
                if !pm.frame(dst).is_zeroed() {
                    pm.zero_block(dst, Order(0));
                    cost += costs.zero_4k;
                }
            } else {
                let content = pm.frame(e.pfn).content();
                pm.frame_mut(dst).set_content(content);
                pm.free(e.pfn, Order(0));
                cost += costs.copy_4k;
                copied += 1;
            }
            mmu.invalidate_page(pid, vpn);
        });
        // Previously-unmapped tail: must read as zero (bloat risk).
        let filled = 512 - taken;
        if !a.was_zeroed {
            for (i, covered) in covered.iter().enumerate() {
                if *covered {
                    continue;
                }
                let dst = Pfn(a.pfn.0 + i as u64);
                if !self.pm.frame(dst).is_zeroed() {
                    self.pm.zero_block(dst, Order(0));
                    cost += self.config.costs.zero_4k;
                }
            }
        }
        self.install_huge_frames(pid, hvpn, a.pfn);
        let p = self.processes.get_mut(&pid).expect("exists");
        p.space_mut().map_huge(hvpn, a.pfn).expect("entries taken, region covered");
        self.mmu.invalidate_region(pid, hvpn.0);
        self.stats.promotions += 1;
        self.stats.promote_copied_pages += copied as u64;
        // Attribute the promotion's copy and zero portions separately;
        // together they are exactly `cost`.
        let copy_cost = self.config.costs.copy_4k * copied as u64;
        self.charge_daemon(Subsystem::Copy, copy_cost);
        self.charge_daemon(Subsystem::Zero, cost - copy_cost);
        self.metrics.observe("promote_cycles", cost.get());
        self.trace.emit(
            pid,
            TraceEvent::Promote { hvpn: hvpn.0, copied, filled, cycles: cost.get() },
        );
        self.conc_khugepaged(pid, hvpn, cost, true);
        Ok(Promoted { copied_pages: copied, filled_pages: filled, cycles: cost })
    }

    /// Promotes a region whose 512 base mappings already sit on one
    /// contiguous, aligned huge block (FreeBSD-style reservations): no
    /// copying — the base PTEs are replaced by a single huge PTE.
    ///
    /// # Errors
    ///
    /// [`PromoteError::EmptyRegion`] unless all 512 pages are mapped;
    /// [`PromoteError::NotPromotable`] if the mappings are not contiguous
    /// on an aligned block (or VMA coverage fails);
    /// [`PromoteError::AlreadyHuge`] / [`PromoteError::NoProcess`] as for
    /// [`Machine::promote`].
    pub fn promote_in_place(&mut self, pid: u32, hvpn: Hvpn) -> Result<(), PromoteError> {
        let p = self.processes.get(&pid).ok_or(PromoteError::NoProcess)?;
        let space = p.space();
        if space.page_table().huge_entry(hvpn).is_some() {
            return Err(PromoteError::AlreadyHuge);
        }
        if !space.region_promotable(hvpn) {
            return Err(PromoteError::NotPromotable);
        }
        if space.page_table().region_mapped_count(hvpn) != 512 {
            return Err(PromoteError::EmptyRegion);
        }
        // Verify physical contiguity and alignment.
        let first = space
            .page_table()
            .base_entry(hvpn.base_vpn())
            .ok_or(PromoteError::EmptyRegion)?
            .pfn;
        if !first.is_aligned(HUGE_ORDER) {
            return Err(PromoteError::NotPromotable);
        }
        for i in 0..512u64 {
            let e = space
                .page_table()
                .base_entry(hvpn.vpn_at(i))
                .ok_or(PromoteError::EmptyRegion)?;
            if e.zero_cow || e.pfn.0 != first.0 + i {
                return Err(PromoteError::NotPromotable);
            }
        }
        let p = self.processes.get_mut(&pid).expect("checked");
        let pt = p.space_mut().page_table_mut();
        pt.take_base_entries_in_region(hvpn, |_, _| {});
        pt.map_huge(hvpn, first).expect("entries taken");
        self.install_huge_frames(pid, hvpn, first);
        self.mmu.invalidate_region(pid, hvpn.0);
        self.stats.promotions += 1;
        let cost = self.config.costs.fault_base_4k; // PTE rewrite bookkeeping
        // Promotion work rides under `copy` even when nothing is copied,
        // keeping all promotion cycles in one report column.
        self.charge_daemon(Subsystem::Copy, cost);
        self.metrics.observe("promote_cycles", cost.get());
        self.trace.emit(
            pid,
            TraceEvent::Promote { hvpn: hvpn.0, copied: 0, filled: 0, cycles: cost.get() },
        );
        self.conc_khugepaged(pid, hvpn, cost, false);
        Ok(())
    }

    /// Splits a huge mapping back into base mappings (demotion). The
    /// physical block stays in place; its frames become individually
    /// movable.
    ///
    /// Returns the daemon cycles charged, or `None` if the region was not
    /// mapped huge.
    pub fn demote(&mut self, pid: u32, hvpn: Hvpn) -> Option<Cycles> {
        let p = self.processes.get_mut(&pid)?;
        let entry = p.space_mut().split_huge(hvpn).ok()?;
        for i in 0..512u64 {
            let pfn = Pfn(entry.pfn.0 + i);
            self.pm.set_movable(pfn, true);
            self.pm.frame_mut(pfn).set_owner(Some(OwnerTag { pid, vpn: hvpn.vpn_at(i).0 }));
        }
        self.mmu.invalidate_region(pid, hvpn.0);
        self.stats.demotions += 1;
        let cost = self.config.costs.fault_base_4k; // split bookkeeping
        self.charge_daemon(Subsystem::Fault, cost);
        self.trace.emit(pid, TraceEvent::Demote { hvpn: hvpn.0, cycles: cost.get() });
        self.conc_khugepaged(pid, hvpn, cost, false);
        Some(cost)
    }

    /// Bloat recovery on one huge page: scans the 512 constituent pages
    /// for zero content (stopping each page's scan at its first non-zero
    /// byte), and if at least `min_zero` pages are zero-filled, demotes
    /// the huge page and de-duplicates the zero pages against the
    /// canonical zero page, freeing their frames.
    ///
    /// Returns `None` if the region is not mapped huge for `pid`.
    pub fn dedup_zero_pages(&mut self, pid: u32, hvpn: Hvpn, min_zero: u32) -> Option<DedupOutcome> {
        let p = self.processes.get(&pid)?;
        let entry = *p.space().page_table().huge_entry(hvpn)?;
        self.stats.bloat_scans += 1;
        // Scan phase.
        let mut scan_bytes = 0u64;
        let mut zero_pages = 0u32;
        for i in 0..512u64 {
            let content = self.pm.frame(Pfn(entry.pfn.0 + i)).content();
            scan_bytes += content.scan_bytes();
            zero_pages += content.is_zero() as u32;
        }
        let mut cost = self.config.costs.scan(scan_bytes);
        let scan_cost = cost;
        if zero_pages < min_zero {
            self.charge_daemon(Subsystem::Scan, cost);
            self.trace.emit(
                pid,
                TraceEvent::Dedup { hvpn: hvpn.0, zero_pages, demoted: false, cycles: cost.get() },
            );
            self.conc_khugepaged(pid, hvpn, cost, false);
            return Some(DedupOutcome::Kept { zero_pages, cycles: cost });
        }
        // Demote, then replace zero pages with canonical-zero COW entries.
        let demote_cost = self.demote(pid, hvpn).expect("huge entry present");
        cost += demote_cost;
        let zero_pfn = self.zero_pfn;
        let p = self.processes.get_mut(&pid).expect("exists");
        let space = p.space_mut();
        let mut freed = Vec::new();
        for i in 0..512u64 {
            let vpn = hvpn.vpn_at(i);
            let pfn = Pfn(entry.pfn.0 + i);
            if self.pm.frame(pfn).is_zeroed() {
                space.unmap_base(vpn).expect("split created this entry");
                space.map_zero_cow(vpn, zero_pfn).expect("just unmapped");
                freed.push((vpn, pfn));
            }
        }
        for (vpn, pfn) in freed {
            self.pm.free(pfn, Order(0));
            self.mmu.invalidate_page(pid, vpn);
            cost += self.config.costs.cow_extra; // remap bookkeeping
        }
        self.stats.deduped_zero_pages += zero_pages as u64;
        // The scan portion goes under `scan`, the remap remainder under
        // `dedup`; the demotion was already charged (to `fault`) by
        // `demote` itself, so it is *excluded* here. Historically it was
        // charged twice — once inside `demote`, once again in the `dedup`
        // remainder — inflating daemon_cycles by one split cost per
        // recovery. The regression test `demote_not_double_counted` pins
        // the fixed ledger: the daemon delta equals the reported cycles.
        self.charge_daemon(Subsystem::Scan, scan_cost);
        self.charge_daemon(Subsystem::Dedup, cost - scan_cost - demote_cost);
        self.trace.emit(
            pid,
            TraceEvent::Dedup { hvpn: hvpn.0, zero_pages, demoted: true, cycles: cost.get() },
        );
        self.conc_khugepaged(pid, hvpn, cost - demote_cost, false);
        Some(DedupOutcome::Deduped { zero_pages, cycles: cost })
    }

    // ---- background machinery --------------------------------------------

    /// One step of the async pre-zeroing daemon: zero up to `pages` pages
    /// from the non-zero free lists. Returns pages zeroed.
    pub fn prezero(&mut self, pages: u64) -> u64 {
        let z = self.pm.prezero_step(pages);
        self.stats.prezeroed_pages += z;
        self.charge_daemon(Subsystem::Zero, self.config.costs.zero_4k * z);
        if z > 0 {
            if let Some(rec) = self.conc.as_mut() {
                // One arena-lock trip per huge-sized block zeroed.
                rec.prezero(z.div_ceil(512));
            }
        }
        z
    }

    /// Runs a compaction pass migrating at most `max_pages`, updating page
    /// tables and shooting down stale TLB entries.
    pub fn run_compaction(&mut self, max_pages: u64) -> hawkeye_mem::CompactionStats {
        let processes = &mut self.processes;
        let mmu = &mut self.mmu;
        let file_pages = &mut self.file_pages;
        let stats = compact::compact(&mut self.pm, max_pages, |src, dst, owner| {
            migrate_frame(processes, mmu, file_pages, src, dst, owner)
        });
        self.stats.compaction_runs += 1;
        self.stats.compaction_migrated += stats.migrated_pages;
        let cost = self.config.costs.copy_4k * stats.migrated_pages;
        self.charge_daemon(Subsystem::Compact, cost);
        if stats.migrated_pages > 0 {
            if let Some(rec) = self.conc.as_mut() {
                // Compaction serializes on one machine-wide resource.
                rec.khugepaged(crate::multicore::COMPACT_KEY, cost, false);
            }
        }
        stats
    }

    /// Reclaims up to `n` file-cache pages. Returns the count actually
    /// reclaimed.
    pub fn reclaim_file_pages(&mut self, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            let Some(pfn) = self.file_pages.pop_first() else { break };
            self.pm.free(pfn, Order(0));
            done += 1;
        }
        self.stats.reclaimed_pages += done;
        done
    }

    /// Number of file-cache pages currently held.
    pub fn file_pages(&self) -> u64 {
        self.file_pages.len() as u64
    }

    /// Fragments physical memory the way the paper's experiments do
    /// (reading files until memory fills, then releasing a scattered
    /// subset): fills free memory with file-cache pages up to `fill`
    /// utilization, then frees each with probability `free_prob`.
    pub fn fragment(&mut self, fill: f64, free_prob: f64, seed: u64) {
        let target = (self.config.frames as f64 * fill) as u64;
        let mut pages = Vec::new();
        while self.pm.allocated_pages() < target {
            let Ok(a) = self.pm.alloc(Order(0), AllocPref::NonZeroed) else { break };
            self.pm.set_kind(a.pfn, FrameKind::File);
            self.pm.frame_mut(a.pfn).set_content(PageContent::non_zero(0));
            pages.push(a.pfn);
        }
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut pages);
        let keep_from = (pages.len() as f64 * free_prob) as usize;
        for pfn in pages.drain(..keep_from) {
            self.pm.free(pfn, Order(0));
        }
        // The remainder stays resident as reclaimable file cache.
        self.file_pages.extend(pages);
    }

    /// `madvise(MADV_DONTNEED)` on `[start, start+pages)` of `pid`:
    /// releases mappings (splitting straddled huge pages), frees frames,
    /// and shoots down the TLB. Returns the kernel cycles charged to the
    /// caller.
    pub fn madvise_dontneed(&mut self, pid: u32, start: Vpn, pages: u64) -> Cycles {
        let Some(p) = self.processes.get_mut(&pid) else { return Cycles::ZERO };
        // Regions with huge mappings that will be split or removed.
        let end = Vpn(start.0 + pages);
        let touched_regions: Vec<Hvpn> = if pages == 0 {
            Vec::new()
        } else {
            (start.hvpn().0..=Vpn(end.0 - 1).hvpn().0).map(Hvpn).collect()
        };
        let had_huge: Vec<Hvpn> = touched_regions
            .iter()
            .copied()
            .filter(|h| p.space().page_table().huge_entry(*h).is_some())
            .collect();
        let freed = p.space_mut().madvise_dontneed(start, pages);
        let mut cost = Cycles::ZERO;
        let mut demotions = 0;
        for h in &had_huge {
            self.mmu.invalidate_region(pid, h.0);
            // If base entries remain in the region, it was split (partial
            // coverage): its surviving frames become individually movable.
            let p = self.processes.get(&pid).expect("exists");
            if p.space().page_table().region_mapped_count(*h) > 0 {
                demotions += 1;
                // Split cost is folded into the per-page unmap charge below.
                self.trace.emit(pid, TraceEvent::Demote { hvpn: h.0, cycles: 0 });
                let pm = &mut self.pm;
                for (_, e) in p.space().page_table().base_mappings_in_region(*h) {
                    pm.set_movable(e.pfn, true);
                }
            }
        }
        self.stats.demotions += demotions;
        for f in freed {
            cost += self.config.costs.fault_base_4k / 4; // unmap bookkeeping
            if f.zero_cow {
                continue;
            }
            match f.size {
                PageSize::Huge => {
                    self.pm.free(f.pfn, HUGE_ORDER);
                }
                PageSize::Base => {
                    self.pm.free(f.pfn, Order(0));
                    self.mmu.invalidate_page(pid, f.vpn);
                }
            }
        }
        // The caller (the simulator's syscall path) folds `cost` into the
        // faulting process's quantum; attribute it here so the CPU ledger
        // stays exact.
        self.metrics.charge_cpu(Subsystem::Fault, cost);
        if pages > 0 {
            self.conc_app(pid, start.hvpn(), cost, false);
        }
        cost
    }

    /// Tears down an exited process: unmaps everything, frees frames,
    /// drops MMU state. The process entry remains for statistics.
    pub fn exit_process(&mut self, pid: u32) {
        let Some(p) = self.processes.get_mut(&pid) else { return };
        let starts: Vec<Vpn> = p.space().vmas().map(|v| v.start()).collect();
        for start in starts {
            let p = self.processes.get_mut(&pid).expect("exists");
            let Ok(freed) = p.space_mut().munmap(start) else { continue };
            for f in freed {
                if f.zero_cow {
                    continue;
                }
                match f.size {
                    PageSize::Huge => self.pm.free(f.pfn, HUGE_ORDER),
                    PageSize::Base => self.pm.free(f.pfn, Order(0)),
                }
            }
        }
        // Keep PMU counters: tables report per-process overheads after
        // completion.
        self.mmu.flush_translations(pid);
    }

    fn charge_daemon(&mut self, sub: Subsystem, c: Cycles) {
        self.stats.daemon_cycles += c;
        self.metrics.charge_daemon(sub, c);
    }

    // ---- multi-core access plan ------------------------------------------
    //
    // Every page-state transition the real kernel takes under a page lock
    // lands in the recorder as (core, resource, hold) so the replay can
    // interleave cores. The hooks are no-ops at `cores = 1` — the serial
    // engine's counters, journal and timings are untouched.

    /// Records an app-core page operation on `pid`'s region of `vpn`.
    fn conc_app(&mut self, pid: u32, hvpn: Hvpn, hold: Cycles, alloc: bool) {
        if let Some(rec) = self.conc.as_mut() {
            rec.app(pid, page_key(pid, hvpn.0), hold, alloc);
        }
    }

    /// Records a khugepaged-core operation on `pid`'s region of `hvpn`.
    fn conc_khugepaged(&mut self, pid: u32, hvpn: Hvpn, hold: Cycles, alloc: bool) {
        if let Some(rec) = self.conc.as_mut() {
            rec.khugepaged(page_key(pid, hvpn.0), hold, alloc);
        }
    }

    /// Replays the recorded per-core plan (no-op at `cores = 1`): the
    /// deterministic interleaving publishes `lock.*` counters and
    /// [`TraceEvent::Contention`] events. The simulator calls this at
    /// run-loop exit.
    pub fn drain_concurrency(&mut self) {
        if let Some(rec) = self.conc.as_mut() {
            rec.drain(&self.metrics, &self.trace);
        }
    }

    /// The multi-core recorder, when `cores > 1` (differential tests
    /// inspect its cumulative totals).
    pub fn concurrency(&self) -> Option<&ConcRecorder> {
        self.conc.as_ref()
    }

    pub(crate) fn stats_oom(&mut self, pid: u32) {
        self.stats.oom_events += 1;
        self.trace.emit(pid, TraceEvent::Oom);
    }

    /// Records the standard per-sample series (memory, per-process RSS /
    /// huge pages). Called by the simulator on the sampling period.
    pub(crate) fn sample_metrics(&mut self) {
        let now = self.clock.now();
        let alloc = self.pm.allocated_pages() as f64;
        self.recorder.record_at("mem.allocated_pages", now, alloc);
        self.recorder.record_at("mem.zeroed_free_pages", now, self.pm.zeroed_free_pages() as f64);
        self.metrics.set_gauge("mem.utilization", self.pm.utilization());
        self.metrics.set_gauge("mem.zeroed_free_pages", self.pm.zeroed_free_pages() as f64);
        // Journal a cumulative attribution snapshot so the analyzer can
        // reconstruct cycle breakdowns over time (and check the residue).
        if self.trace.is_enabled() {
            if let Some(m) = self.metrics.snapshot() {
                self.trace.emit(
                    0,
                    TraceEvent::CycleSample {
                        walk: m.cpu_cycles(Subsystem::Walk),
                        fault: m.cpu_cycles(Subsystem::Fault),
                        zero: m.cpu_cycles(Subsystem::Zero),
                        copy: m.cpu_cycles(Subsystem::Copy),
                        scan: m.cpu_cycles(Subsystem::Scan),
                        compact: m.cpu_cycles(Subsystem::Compact),
                        dedup: m.cpu_cycles(Subsystem::Dedup),
                        idle: m.cpu_cycles(Subsystem::Idle),
                        unhalted: m.unhalted(),
                        daemon: m.daemon_total(),
                    },
                );
            }
        }
        let rows: Vec<(u32, f64, f64)> = self
            .processes
            .values()
            .map(|p| (p.pid(), p.space().rss_pages() as f64, p.space().huge_pages() as f64))
            .collect();
        for (pid, rss, huge) in rows {
            self.recorder.record_at(&format!("p{pid}.rss_pages"), now, rss);
            self.recorder.record_at(&format!("p{pid}.huge_pages"), now, huge);
            let life = self.mmu.lifetime(pid);
            self.recorder.record_at(&format!("p{pid}.mmu_overhead"), now, life.mmu_overhead());
        }
    }
}

/// Migrates one frame's mapping from `src` to `dst` during compaction,
/// using the source frame's reverse-map tag.
fn migrate_frame(
    processes: &mut BTreeMap<u32, Process>,
    mmu: &mut Mmu,
    file_pages: &mut BTreeSet<Pfn>,
    src: Pfn,
    dst: Pfn,
    owner: Option<OwnerTag>,
) -> bool {
    let Some(owner) = owner else {
        // Unowned page: file cache. Keep the reclaim index pointing at
        // the page's new home, or later reclaim would free a stale frame.
        if file_pages.remove(&src) {
            file_pages.insert(dst);
            return true;
        }
        // Unowned and not file cache (e.g. a policy-internal reservation):
        // refuse to move what we cannot re-index.
        return false;
    };
    let Some(p) = processes.get_mut(&owner.pid) else {
        return false; // stale tag: veto the move
    };
    let vpn = Vpn(owner.vpn);
    // The tag must agree with the page table; veto otherwise.
    if !p.space_mut().page_table_mut().migrate_base(vpn, src, dst) {
        return false;
    }
    mmu.invalidate_page(owner.pid, vpn);
    true
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.clock.now())
            .field("frames", &self.pm.total_frames())
            .field("allocated", &self.pm.allocated_pages())
            .field("processes", &self.processes.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::script;

    fn machine() -> Machine {
        Machine::new(KernelConfig::small())
    }

    fn spawn_with_vma(m: &mut Machine, pages: u64) -> u32 {
        let pid = m.spawn(script("t", vec![]));
        m.process_mut(pid)
            .unwrap()
            .space_mut()
            .mmap(Vpn(0), pages, hawkeye_vm::VmaKind::Anon)
            .unwrap();
        pid
    }

    #[test]
    fn boot_reserves_zero_page() {
        let m = machine();
        assert_eq!(m.pm().allocated_pages(), 1);
        assert!(m.pm().frame(m.zero_pfn()).is_zeroed());
        assert!(!m.pm().frame(m.zero_pfn()).is_movable());
    }

    #[test]
    fn base_fault_maps_and_charges() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        let c = m.fault_map_base(pid, Vpn(5)).unwrap();
        assert!(c >= m.config().costs.fault_base_4k);
        let p = m.process(pid).unwrap();
        assert_eq!(p.space().rss_pages(), 1);
        let t = p.space().translate(Vpn(5)).unwrap();
        assert_eq!(m.pm().frame(t.pfn).owner().unwrap().pid, pid);
    }

    #[test]
    fn huge_fault_maps_whole_region() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        let (c, huge) = m.fault_map_huge(pid, Vpn(700)).unwrap();
        assert!(huge);
        assert!(c >= m.config().costs.fault_base_2m);
        let p = m.process(pid).unwrap();
        assert_eq!(p.space().huge_pages(), 1);
        assert!(p.space().translate(Vpn(512)).is_some());
        assert!(p.space().translate(Vpn(100)).is_none());
    }

    #[test]
    fn huge_fault_falls_back_on_partial_region() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_base(pid, Vpn(600)).unwrap();
        let (_, huge) = m.fault_map_huge(pid, Vpn(700)).unwrap();
        assert!(!huge, "existing base mapping forbids huge fault");
    }

    #[test]
    fn promote_collapses_and_frees_old_frames() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        for i in 0..100 {
            m.fault_map_base(pid, Vpn(512 + i)).unwrap();
        }
        let before = m.pm().allocated_pages();
        let out = m.promote(pid, Hvpn(1)).unwrap();
        assert_eq!(out.copied_pages, 100);
        assert_eq!(out.filled_pages, 412);
        // 512 new - 100 freed.
        assert_eq!(m.pm().allocated_pages(), before + 412);
        assert_eq!(m.process(pid).unwrap().space().huge_pages(), 1);
        assert_eq!(m.stats().promotions, 1);
        // Promoting again fails.
        assert_eq!(m.promote(pid, Hvpn(1)), Err(PromoteError::AlreadyHuge));
        m.pm().check_invariants();
    }

    #[test]
    fn promote_requires_mapped_pages_and_vma() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        assert_eq!(m.promote(pid, Hvpn(1)), Err(PromoteError::EmptyRegion));
        assert_eq!(m.promote(pid, Hvpn(5)), Err(PromoteError::NotPromotable));
        assert_eq!(m.promote(99, Hvpn(0)), Err(PromoteError::NoProcess));
    }

    #[test]
    fn demote_splits_mapping_in_place() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        let c = m.demote(pid, Hvpn(0));
        assert!(c.is_some());
        let p = m.process(pid).unwrap();
        assert_eq!(p.space().huge_pages(), 0);
        assert_eq!(p.space().rss_pages(), 512);
        assert_eq!(m.stats().demotions, 1);
        assert!(m.demote(pid, Hvpn(0)).is_none(), "already split");
    }

    #[test]
    fn dedup_reclaims_zero_pages() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        // Dirty 100 pages; 412 remain zero (bloat).
        let base_pfn = m.process(pid).unwrap().space().translate(Vpn(0)).unwrap().pfn;
        for i in 0..100u64 {
            m.pm_mut().frame_mut(Pfn(base_pfn.0 + i)).set_content(PageContent::non_zero(9));
        }
        let before = m.pm().allocated_pages();
        let out = m.dedup_zero_pages(pid, Hvpn(0), 256).unwrap();
        match out {
            DedupOutcome::Deduped { zero_pages, .. } => assert_eq!(zero_pages, 412),
            other => panic!("expected dedup, got {other:?}"),
        }
        assert_eq!(m.pm().allocated_pages(), before - 412);
        // Freed frames return to the *zeroed* pool.
        assert!(m.pm().zeroed_free_pages() >= 412);
        let p = m.process(pid).unwrap();
        // RSS unchanged (zero-cow entries still count), huge gone.
        assert_eq!(p.space().huge_pages(), 0);
        assert_eq!(p.space().rss_pages(), 512);
        // A write to a deduped page takes a COW fault.
        assert!(p.space().translate(Vpn(200)).unwrap().zero_cow);
        m.pm().check_invariants();
    }

    #[test]
    fn dedup_respects_threshold() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        let base_pfn = m.process(pid).unwrap().space().translate(Vpn(0)).unwrap().pfn;
        for i in 0..400u64 {
            m.pm_mut().frame_mut(Pfn(base_pfn.0 + i)).set_content(PageContent::non_zero(9));
        }
        let out = m.dedup_zero_pages(pid, Hvpn(0), 256).unwrap();
        assert!(matches!(out, DedupOutcome::Kept { zero_pages: 112, .. }));
        assert_eq!(m.process(pid).unwrap().space().huge_pages(), 1);
    }

    #[test]
    fn demote_not_double_counted() {
        // Regression: dedup recovery used to fold the demotion cycles into
        // its `dedup` daemon charge even though `demote` had already
        // charged them under `fault`, so `daemon_cycles` grew by one extra
        // split cost per recovered huge page. The ledger must advance by
        // exactly the cycles the outcome reports.
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        let base_pfn = m.process(pid).unwrap().space().translate(Vpn(0)).unwrap().pfn;
        for i in 0..100u64 {
            m.pm_mut().frame_mut(Pfn(base_pfn.0 + i)).set_content(PageContent::non_zero(9));
        }
        let before = m.stats().daemon_cycles;
        let out = m.dedup_zero_pages(pid, Hvpn(0), 256).unwrap();
        let DedupOutcome::Deduped { cycles, .. } = out else { panic!("expected dedup: {out:?}") };
        assert_eq!(m.stats().daemon_cycles - before, cycles, "daemon ledger == reported cycles");
        // A plain demotion also charges exactly what it reports.
        m.fault_map_huge(pid, Vpn(512)).unwrap();
        let before = m.stats().daemon_cycles;
        let c = m.demote(pid, Hvpn(1)).unwrap();
        assert_eq!(m.stats().daemon_cycles - before, c);
    }

    #[test]
    fn multicore_recording_leaves_serial_state_identical() {
        // The recorder observes the serial engine; it must never perturb
        // it. Identical op sequences at 1 and 4 cores leave identical
        // machine state (the differential test pins whole policies).
        let run = |cores: u32| {
            let mut cfg = KernelConfig::small();
            cfg.cores = cores;
            let mut m = Machine::new(cfg);
            let pid = spawn_with_vma(&mut m, 2048);
            for i in 0..512u64 {
                m.fault_map_base(pid, Vpn(i)).unwrap();
            }
            m.promote(pid, Hvpn(0)).unwrap();
            m.demote(pid, Hvpn(0));
            m.fault_map_huge(pid, Vpn(512)).unwrap();
            m.dedup_zero_pages(pid, Hvpn(1), 1).unwrap();
            m.prezero(64);
            m.run_compaction(128);
            (format!("{:?}", m.stats()), m.pm().allocated_pages(), m.pm().zeroed_free_pages())
        };
        assert_eq!(run(1), run(4));
        // ...and at 4 cores a contention plan was actually recorded.
        let mut cfg = KernelConfig::small();
        cfg.cores = 4;
        let mut m = Machine::new(cfg);
        let pid = spawn_with_vma(&mut m, 1024);
        for i in 0..512u64 {
            m.fault_map_base(pid, Vpn(i)).unwrap();
        }
        m.promote(pid, Hvpn(0)).unwrap();
        assert!(m.concurrency().is_some());
        m.drain_concurrency();
        let rec = m.concurrency().unwrap();
        let acq: u64 = rec.totals().iter().map(|c| c.acquisitions).sum();
        assert!(acq >= 513, "512 faults + 1 promotion recorded, got {acq}");
    }

    #[test]
    fn cow_fault_allocates_private_copy() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        m.dedup_zero_pages(pid, Hvpn(0), 1).unwrap();
        let before = m.pm().allocated_pages();
        let c = m.cow_fault(pid, Vpn(7)).unwrap();
        assert!(c > m.config().costs.fault_base_4k);
        assert_eq!(m.pm().allocated_pages(), before + 1);
        let t = m.process(pid).unwrap().space().translate(Vpn(7)).unwrap();
        assert!(!t.zero_cow);
        assert_ne!(t.pfn, m.zero_pfn());
    }

    #[test]
    fn madvise_frees_huge_and_base() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 2048);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        m.fault_map_base(pid, Vpn(512)).unwrap();
        let before = m.pm().allocated_pages();
        m.madvise_dontneed(pid, Vpn(0), 1024);
        assert_eq!(m.pm().allocated_pages(), before - 513);
        assert_eq!(m.process(pid).unwrap().space().rss_pages(), 0);
        m.pm().check_invariants();
    }

    #[test]
    fn madvise_partial_huge_splits_and_counts_demotion() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        m.madvise_dontneed(pid, Vpn(0), 64);
        assert_eq!(m.stats().demotions, 1);
        let p = m.process(pid).unwrap();
        assert_eq!(p.space().rss_pages(), 448);
        // Remaining frames are movable again.
        let t = p.space().translate(Vpn(100)).unwrap();
        assert!(m.pm().frame(t.pfn).is_movable());
        m.pm().check_invariants();
    }

    #[test]
    fn fragmentation_and_reclaim() {
        let mut m = machine();
        m.fragment(0.9, 0.5, 42);
        assert!(m.fmfi() > 0.5, "fmfi {}", m.fmfi());
        assert!(m.file_pages() > 0);
        let freed = m.reclaim_file_pages(100);
        assert_eq!(freed, 100);
        m.pm().check_invariants();
    }

    #[test]
    fn alloc_user_reclaims_under_pressure() {
        let mut m = machine();
        m.fragment(1.0, 0.0, 7); // everything is file cache
        assert_eq!(m.pm().free_pages(), 0);
        let (a, cost) = m.alloc_user(Order(0), AllocPref::Zeroed).expect("reclaim saves us");
        assert!(cost > Cycles::ZERO);
        let _ = a;
        assert!(m.stats().reclaimed_pages > 0);
    }

    #[test]
    fn exit_frees_everything() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 1024);
        m.fault_map_huge(pid, Vpn(0)).unwrap();
        m.fault_map_base(pid, Vpn(600)).unwrap();
        m.exit_process(pid);
        assert_eq!(m.pm().allocated_pages(), 1); // just the zero page
        m.pm().check_invariants();
    }

    #[test]
    fn compaction_assembles_huge_blocks_and_remaps() {
        let mut m = machine();
        let pid = spawn_with_vma(&mut m, 8192);
        // Scatter base pages widely.
        m.fragment(0.8, 0.7, 3);
        for i in 0..64 {
            m.fault_map_base(pid, Vpn(i * 7)).unwrap();
        }
        let stats = m.run_compaction(u64::MAX);
        // Whatever was migrated, translations must still resolve.
        for i in 0..64 {
            let t = m.process(pid).unwrap().space().translate(Vpn(i * 7)).unwrap();
            assert!(!m.pm().frame(t.pfn).is_free());
            assert_eq!(m.pm().frame(t.pfn).owner().map(|o| o.pid), Some(pid));
        }
        let _ = stats;
        m.pm().check_invariants();
    }
}
