//! FreeBSD-style reservation-based superpage management (Navarro et al.),
//! as summarized in the paper's §1.
//!
//! On the first fault in a huge-eligible region, a contiguous 2 MB block
//! is *reserved* but only the faulting base page is mapped (and zeroed).
//! Subsequent faults in the region fill in base pages from the
//! reservation. Only when **all 512** pages are populated is the region
//! promoted — by rewriting PTEs in place, since the frames are already
//! contiguous. Under memory pressure, partially-filled reservations are
//! broken and their unused frames returned to the allocator.
//!
//! This is memory-conservative (no bloat) but pays more page faults and
//! delays huge mappings — the trade-off Table 1 and §2.1 explore.

use hawkeye_kernel::{FaultAction, HugePagePolicy, Machine};
use hawkeye_mem::{AllocPref, FrameKind, Order, OwnerTag, Pfn, HUGE_ORDER};
use hawkeye_vm::{Hvpn, Vpn};
use std::collections::BTreeMap;

/// Tunables of the FreeBSD policy.
#[derive(Debug, Clone, Copy)]
pub struct FreeBsdConfig {
    /// Utilization above which partially-filled reservations are broken.
    pub pressure_watermark: f64,
    /// Reservations broken per tick under pressure.
    pub breaks_per_tick: usize,
}

impl Default for FreeBsdConfig {
    fn default() -> Self {
        FreeBsdConfig { pressure_watermark: 0.90, breaks_per_tick: 16 }
    }
}

#[derive(Debug, Clone)]
struct Reservation {
    pfn: Pfn,
    populated: Box<[bool; 512]>,
    count: u32,
}

/// The FreeBSD reservation policy.
///
/// # Examples
///
/// ```
/// use hawkeye_policies::FreeBsd;
/// use hawkeye_kernel::HugePagePolicy;
///
/// assert_eq!(FreeBsd::default().name(), "FreeBSD");
/// ```
#[derive(Debug, Default)]
pub struct FreeBsd {
    cfg: FreeBsdConfig,
    reservations: BTreeMap<(u32, Hvpn), Reservation>,
}

impl FreeBsd {
    /// Creates the policy with explicit tunables.
    pub fn new(cfg: FreeBsdConfig) -> Self {
        FreeBsd { cfg, reservations: BTreeMap::new() }
    }

    /// Number of live (un-promoted, un-broken) reservations.
    pub fn reservations(&self) -> usize {
        self.reservations.len()
    }

    /// Returns unused frames of a reservation to the allocator.
    fn break_reservation(m: &mut Machine, r: &Reservation) {
        for (i, populated) in r.populated.iter().enumerate() {
            if !populated {
                m.pm_mut().free(Pfn(r.pfn.0 + i as u64), Order(0));
            }
        }
    }
}

impl HugePagePolicy for FreeBsd {
    fn name(&self) -> &str {
        "FreeBSD"
    }

    fn on_fault(&mut self, m: &mut Machine, pid: u32, vpn: Vpn) -> FaultAction {
        let hvpn = vpn.hvpn();
        let off = vpn.huge_offset() as usize;
        if let Some(r) = self.reservations.get_mut(&(pid, hvpn)) {
            debug_assert!(!r.populated[off], "fault on populated page");
            r.populated[off] = true;
            r.count += 1;
            let pfn = Pfn(r.pfn.0 + off as u64);
            return FaultAction::MapBaseAt(pfn);
        }
        // New region: try to reserve a contiguous block.
        let promotable = m
            .process(pid)
            .map(|p| {
                p.space().region_promotable(hvpn)
                    && p.space().page_table().region_mapped_count(hvpn) == 0
            })
            .unwrap_or(false);
        if !promotable {
            return FaultAction::MapBase;
        }
        let Ok(a) = m.pm_mut().alloc(HUGE_ORDER, AllocPref::Zeroed) else {
            return FaultAction::MapBase;
        };
        // Tag the reserved frames so compaction leaves them alone.
        let pm = m.pm_mut();
        for i in 0..512u64 {
            let pfn = Pfn(a.pfn.0 + i);
            pm.set_kind(pfn, FrameKind::Anon);
            pm.set_owner(pfn, Some(OwnerTag { pid, vpn: hvpn.vpn_at(i).0 }));
            pm.set_movable(pfn, false);
        }
        let mut populated = Box::new([false; 512]);
        populated[off] = true;
        self.reservations
            .insert((pid, hvpn), Reservation { pfn: a.pfn, populated, count: 1 });
        FaultAction::MapBaseAt(Pfn(a.pfn.0 + off as u64))
    }

    fn on_tick(&mut self, m: &mut Machine) {
        // Promote fully-populated reservations in place.
        let full: Vec<(u32, Hvpn)> = self
            .reservations
            .iter()
            .filter(|(_, r)| r.count == 512)
            .map(|(k, _)| *k)
            .collect();
        for (pid, hvpn) in full {
            if m.promote_in_place(pid, hvpn).is_ok() {
                self.reservations.remove(&(pid, hvpn));
            }
        }
        // Under pressure, break the least-populated reservations.
        if m.utilization() > self.cfg.pressure_watermark {
            let mut partial: Vec<((u32, Hvpn), u32)> = self
                .reservations
                .iter()
                .map(|(k, r)| (*k, r.count))
                .collect();
            partial.sort_by_key(|(_, count)| *count);
            for ((pid, hvpn), _) in partial.into_iter().take(self.cfg.breaks_per_tick) {
                let r = self.reservations.remove(&(pid, hvpn)).expect("key just listed");
                Self::break_reservation(m, &r);
                // Populated pages stay mapped as ordinary base pages,
                // individually movable from now on.
                for (i, populated) in r.populated.iter().enumerate() {
                    if *populated {
                        m.pm_mut().set_movable(Pfn(r.pfn.0 + i as u64), true);
                    }
                }
            }
        }
    }

    fn on_release(&mut self, m: &mut Machine, pid: u32, start: Vpn, pages: u64) {
        if pages == 0 {
            return;
        }
        let first = start.hvpn().0;
        let last = Vpn(start.0 + pages - 1).hvpn().0;
        let keys: Vec<(u32, Hvpn)> = self
            .reservations
            .range((pid, Hvpn(first))..=(pid, Hvpn(last)))
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            let r = self.reservations.remove(&key).expect("key just listed");
            let hvpn = key.1;
            for i in 0..512u64 {
                let vpn = hvpn.vpn_at(i);
                let covered = vpn >= start && vpn.0 < start.0 + pages;
                if r.populated[i as usize] {
                    // Covered populated pages were unmapped and freed by
                    // the kernel; surviving ones become plain movable base
                    // pages.
                    if !covered {
                        m.pm_mut().set_movable(Pfn(r.pfn.0 + i), true);
                    }
                } else {
                    // Never populated: still reservation-held — return it.
                    m.pm_mut().free(Pfn(r.pfn.0 + i), Order(0));
                }
            }
        }
    }

    fn on_exit(&mut self, m: &mut Machine, pid: u32) {
        let keys: Vec<(u32, Hvpn)> = self
            .reservations
            .keys()
            .filter(|(p, _)| *p == pid)
            .copied()
            .collect();
        for key in keys {
            let r = self.reservations.remove(&key).expect("key just listed");
            // Populated frames were freed by process teardown; return the
            // never-populated remainder.
            Self::break_reservation(m, &r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_kernel::{workload::script, KernelConfig, MemOp, Simulator};
    use hawkeye_metrics::Cycles;
    use hawkeye_vm::VmaKind;

    #[test]
    fn partial_population_stays_base_mapped() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(FreeBsd::default()));
        let pid = sim.spawn(script(
            "partial",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 512, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages: 256, write: true, think: 0, stride: 1 , repeats: 1},
                MemOp::Compute { cycles: 3_000_000_000 },
            ],
        ));
        sim.run_for(Cycles::from_secs(1.0));
        let p = sim.machine().process(pid).unwrap();
        assert_eq!(p.space().huge_pages(), 0, "no promotion before full population");
        assert_eq!(p.space().rss_pages(), 256, "no bloat");
        // But the whole block is reserved (physically allocated).
        assert_eq!(sim.machine().pm().allocated_pages(), 513);
    }

    #[test]
    fn full_population_promotes_in_place() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(FreeBsd::default()));
        let pid = sim.spawn(script(
            "full",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 1024, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages: 1024, write: true, think: 0, stride: 1 , repeats: 1},
                MemOp::Compute { cycles: 3_000_000_000 },
            ],
        ));
        sim.run_for(Cycles::from_secs(1.0));
        let p = sim.machine().process(pid).unwrap();
        assert_eq!(p.space().huge_pages(), 2, "both regions promoted");
        assert_eq!(p.stats().faults, 1024, "one fault per base page, unlike THP");
        assert_eq!(sim.machine().stats().promote_copied_pages, 0, "in-place: no copies");
    }

    #[test]
    fn reservations_break_under_pressure() {
        let mut cfg = KernelConfig::small();
        cfg.frames = 2048; // 8 MiB machine: 4 huge regions
        let mut sim = Simulator::new(cfg, Box::new(FreeBsd::default()));
        // Sparse toucher: 1 page per region over 3 regions reserves 3*512
        // frames; a second allocation wave then forces pressure.
        let pid = sim.spawn(script(
            "sparse",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 3 * 512, kind: VmaKind::Anon },
                MemOp::Touch { vpn: Vpn(0), write: true, repeats: 1, think: 0 },
                MemOp::Touch { vpn: Vpn(512), write: true, repeats: 1, think: 0 },
                MemOp::Touch { vpn: Vpn(1024), write: true, repeats: 1, think: 0 },
                MemOp::Compute { cycles: 3_000_000_000 },
            ],
        ));
        sim.run_for(Cycles::from_millis(50));
        assert_eq!(sim.machine().pm().allocated_pages(), 3 * 512 + 1);
        // Pressure: utilization (75%) below watermark, so nothing breaks
        // yet; lower the watermark via a new policy to force it.
        let _ = pid;
        let mut sim2 = Simulator::new(
            KernelConfig { frames: 2048, ..KernelConfig::small() },
            Box::new(FreeBsd::new(FreeBsdConfig { pressure_watermark: 0.5, breaks_per_tick: 16 })),
        );
        let pid2 = sim2.spawn(script(
            "sparse",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 3 * 512, kind: VmaKind::Anon },
                MemOp::Touch { vpn: Vpn(0), write: true, repeats: 1, think: 0 },
                MemOp::Touch { vpn: Vpn(512), write: true, repeats: 1, think: 0 },
                MemOp::Touch { vpn: Vpn(1024), write: true, repeats: 1, think: 0 },
                MemOp::Compute { cycles: 3_000_000_000 },
            ],
        ));
        sim2.run_for(Cycles::from_millis(100));
        // Reservations broken: only the 3 mapped pages remain (plus zero page).
        assert_eq!(sim2.machine().pm().allocated_pages(), 4);
        assert_eq!(sim2.machine().process(pid2).unwrap().space().rss_pages(), 3);
        sim2.machine().pm().check_invariants();
    }

    #[test]
    fn madvise_returns_reserved_frames() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(FreeBsd::default()));
        let pid = sim.spawn(script(
            "release",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 512, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages: 100, write: true, think: 0, stride: 1 , repeats: 1},
                MemOp::Madvise { start: Vpn(0), pages: 50 },
                MemOp::Compute { cycles: 1_000_000_000 },
            ],
        ));
        sim.run_for(Cycles::from_millis(100));
        let p = sim.machine().process(pid).unwrap();
        // 50 pages mapped; reservation fully broken: 50 frames + zero page.
        assert_eq!(p.space().rss_pages(), 50);
        assert_eq!(sim.machine().pm().allocated_pages(), 51);
        sim.machine().pm().check_invariants();
    }

    #[test]
    fn exit_returns_reservation_remainder() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(FreeBsd::default()));
        let _pid = sim.spawn(script(
            "exit",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 512, kind: VmaKind::Anon },
                MemOp::Touch { vpn: Vpn(5), write: true, repeats: 1, think: 0 },
            ],
        ));
        sim.run();
        assert_eq!(sim.machine().pm().allocated_pages(), 1, "only the zero page survives");
        sim.machine().pm().check_invariants();
    }
}
