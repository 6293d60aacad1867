//! The two-level virtualization driver.
//!
//! Each VM is a full guest [`Simulator`] (its own kernel, policy and
//! workloads) whose physical frames are guest-physical addresses. A host
//! [`Machine`] backs each VM with one host process whose virtual pages
//! *are* the VM's guest-physical pages, so the host's huge-page policy
//! manages EPT mappings exactly like process memory. An
//! [`hawkeye_kernel::AccessHook`] bridges every guest touch to the host:
//! EPT faults on first access, copy-on-write when host KSM merged the
//! frame into the zero page, swap-in when the frame was evicted, and the
//! extra nested-walk cost whenever the host side maps the frame with base
//! pages. The bridge borrows the host for one guest round at a time
//! ([`Simulator::round_with`]), so the host is plain owned data of the
//! [`VirtSystem`].

use hawkeye_kernel::machine::OutOfMemory;
use hawkeye_kernel::{AccessHook, HugePagePolicy, KernelConfig, Machine, Simulator, Workload};
use hawkeye_mem::{PageContent, Pfn};
use hawkeye_metrics::Cycles;
use hawkeye_trace::TraceEvent;
use hawkeye_vm::{Hvpn, PageSize, VmaKind, Vpn};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Error from the host side of the virtualization bridge.
///
/// These conditions used to abort the whole process (`unwrap`/`assert!` in
/// the bridge path); they now propagate so a finished or missing guest
/// process degrades gracefully — the touch is dropped, the error counted in
/// [`VirtStats::bridge_errors`], and the suite keeps running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtError {
    /// The host process backing a VM does not exist (e.g. already exited).
    NoProcess {
        /// Host pid that was expected to back the VM.
        pid: u32,
    },
    /// The host fault loop did not converge for a guest-physical address.
    FaultLoopDiverged {
        /// Guest-physical address (frame number) that kept faulting.
        gpa: u64,
    },
    /// The host ran out of memory with nothing left to evict.
    NothingEvictable,
    /// Repeated eviction could not free enough memory to map a page.
    Thrashing {
        /// Guest-physical page that could not be mapped.
        gpa: u64,
    },
}

impl fmt::Display for VirtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VirtError::NoProcess { pid } => write!(f, "no host process with pid {pid}"),
            VirtError::FaultLoopDiverged { gpa } => {
                write!(f, "host fault loop did not converge at gpa {gpa:#x}")
            }
            VirtError::NothingEvictable => {
                f.write_str("host out of memory with nothing evictable")
            }
            VirtError::Thrashing { gpa } => {
                write!(f, "host thrashing: could not free memory for gpa {gpa:#x}")
            }
        }
    }
}

impl Error for VirtError {}

/// Size of one VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmSpec {
    /// Guest-physical frames (4 KB each).
    pub frames: u64,
}

/// Handle to a VM inside a [`VirtSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmId(pub usize);

/// Host-side virtualization tunables.
#[derive(Debug, Clone, Copy)]
pub struct VirtConfig {
    /// Enable host-side same-page merging of zero guest pages (the
    /// balloon-free memory sharing of Fig. 11).
    pub ksm: bool,
    /// KSM scan budget per host tick, in guest pages.
    pub ksm_pages_per_tick: u64,
    /// Enable the paravirtual balloon baseline: guest-free frames are
    /// periodically returned to the host.
    pub balloon: bool,
    /// Balloon scan budget per host tick, in guest pages.
    pub balloon_pages_per_tick: u64,
    /// Cost of evicting one page to swap.
    pub swap_out: Cycles,
    /// Cost of faulting one page back from swap.
    pub swap_in: Cycles,
    /// Fraction of the guest walk duration charged *extra* when the host
    /// maps the frame with base pages (longer EPT legs of the 2-D walk).
    pub host_base_walk_penalty: f64,
    /// Zero pages per huge page required before host KSM demotes it.
    pub dedup_min_zero: u32,
}

impl Default for VirtConfig {
    fn default() -> Self {
        VirtConfig {
            ksm: false,
            ksm_pages_per_tick: 8192,
            balloon: false,
            balloon_pages_per_tick: 8192,
            swap_out: Cycles::from_micros(60),
            swap_in: Cycles::from_micros(100),
            host_base_walk_penalty: 0.5,
            dedup_min_zero: 64,
        }
    }
}

/// Host-side event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtStats {
    /// EPT (host) faults taken on guest accesses.
    pub ept_faults: u64,
    /// Host copy-on-write faults (writes to KSM-merged pages).
    pub host_cow_faults: u64,
    /// Pages swapped out under host pressure.
    pub swap_outs: u64,
    /// Pages faulted back from swap.
    pub swap_ins: u64,
    /// Guest pages merged into the host zero page by KSM.
    pub ksm_merged: u64,
    /// Guest-free pages returned to the host by the balloon.
    pub ballooned: u64,
    /// Guest touches dropped because the host bridge hit a [`VirtError`]
    /// (missing process, eviction failure); nonzero values mean the run
    /// degraded rather than aborting.
    pub bridge_errors: u64,
}

struct HostSide {
    machine: Machine,
    policy: Box<dyn HugePagePolicy>,
    cfg: VirtConfig,
    swapped: HashSet<(u32, u64)>,
    host_pids: Vec<u32>,
    evict_rr: usize,
    stats: VirtStats,
}

impl HostSide {
    /// The bridge target: one guest page touch.
    ///
    /// # Errors
    ///
    /// See [`VirtError`]; the bridge counts the error and drops the touch.
    fn guest_touch(
        &mut self,
        host_pid: u32,
        gpa: u64,
        write: bool,
        walk: Cycles,
    ) -> Result<Cycles, VirtError> {
        let vpn = Vpn(gpa);
        let mut cost = Cycles::ZERO;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 6 {
                return Err(VirtError::FaultLoopDiverged { gpa });
            }
            let tr = {
                let p = self
                    .machine
                    .process_mut(host_pid)
                    .ok_or(VirtError::NoProcess { pid: host_pid })?;
                p.space_mut().access(vpn, write)
            };
            match tr {
                Some(t) => {
                    if walk > Cycles::ZERO {
                        // Nested-walk surcharge: host base mappings make
                        // the EPT legs long; host huge mappings keep them
                        // short.
                        if t.size == PageSize::Base {
                            cost += Cycles::new(
                                (walk.get() as f64 * self.cfg.host_base_walk_penalty) as u64,
                            );
                        }
                    }
                    if write {
                        self.machine
                            .pm_mut()
                            .frame_mut(t.pfn)
                            .set_content(PageContent::non_zero(6));
                    }
                    return Ok(cost);
                }
                None => {
                    // Unmapped, swapped, or a write to a KSM-merged page.
                    let zero_cow = self
                        .machine
                        .process(host_pid)
                        .and_then(|p| p.space().translate(vpn))
                        .map(|t| t.zero_cow)
                        .unwrap_or(false);
                    if write && zero_cow {
                        let (c, _) =
                            self.fallible(host_pid, vpn, |m| m.cow_fault(host_pid, vpn).map(|c| (c, false)))?;
                        cost += c;
                        self.stats.host_cow_faults += 1;
                        self.machine.metrics().add("virt.host_cow_faults", 1);
                        self.machine.trace().emit(
                            host_pid,
                            TraceEvent::Fault { vpn: gpa, huge: false, cow: true, cycles: c.get() },
                        );
                        continue;
                    }
                    if self.swapped.remove(&(host_pid, gpa)) {
                        cost += self.cfg.swap_in;
                        self.stats.swap_ins += 1;
                        self.machine.metrics().add("virt.swap_ins", 1);
                    }
                    // EPT violation: ask the host policy.
                    let action = self.policy.on_fault(&mut self.machine, host_pid, vpn);
                    let (c, huge) = self.fallible(host_pid, vpn, |m| m.map_fault(host_pid, vpn, action))?;
                    cost += c;
                    self.stats.ept_faults += 1;
                    self.machine.metrics().add("virt.ept_faults", 1);
                    self.machine.trace().emit(
                        host_pid,
                        TraceEvent::Fault { vpn: gpa, huge, cow: false, cycles: c.get() },
                    );
                }
            }
        }
    }

    /// Runs a fallible host mapping operation for `pid`'s `vpn`, swapping
    /// other pages out and retrying on memory exhaustion. Returns the
    /// operation's cost plus the swap-outs' and whether it mapped huge.
    ///
    /// # Errors
    ///
    /// [`VirtError::NothingEvictable`] when eviction frees nothing;
    /// [`VirtError::Thrashing`] when retries exhaust without mapping.
    fn fallible(
        &mut self,
        pid: u32,
        vpn: Vpn,
        mut op: impl FnMut(&mut Machine) -> Result<(Cycles, bool), OutOfMemory>,
    ) -> Result<(Cycles, bool), VirtError> {
        let mut cost = Cycles::ZERO;
        for _ in 0..64 {
            match op(&mut self.machine) {
                Ok((c, huge)) => return Ok((cost + c, huge)),
                Err(OutOfMemory) => {
                    let evicted = self.swap_out(1024, (pid, vpn.0));
                    if evicted == 0 {
                        return Err(VirtError::NothingEvictable);
                    }
                    cost += self.cfg.swap_out * evicted;
                }
            }
        }
        Err(VirtError::Thrashing { gpa: vpn.0 })
    }

    /// Evicts up to `want` host base pages to swap, round-robin across
    /// VMs, never evicting `protect`.
    fn swap_out(&mut self, want: u64, protect: (u32, u64)) -> u64 {
        let mut evicted = 0;
        let nvms = self.host_pids.len().max(1);
        let mut attempts = 0;
        while evicted < want && attempts < nvms * 2 {
            let pid = self.host_pids[self.evict_rr % nvms];
            self.evict_rr += 1;
            attempts += 1;
            // Demote one huge mapping if no base pages are available.
            let Some(p) = self.machine.process(pid) else { continue };
            let victims: Vec<Vpn> = p
                .space()
                .page_table()
                .base_mappings()
                .filter(|(v, e)| !(e.zero_cow || (pid == protect.0 && v.0 == protect.1)))
                .map(|(v, _)| v)
                .take((want - evicted) as usize)
                .collect();
            if victims.is_empty() {
                let huge: Option<Hvpn> = self
                    .machine
                    .process(pid)
                    .and_then(|p| p.space().page_table().huge_mappings().map(|(h, _)| h).next());
                if let Some(h) = huge {
                    self.machine.demote(pid, h);
                }
                continue;
            }
            for v in victims {
                let Some(p) = self.machine.process_mut(pid) else { break };
                let Ok(e) = p.space_mut().unmap_base(v) else { continue };
                self.machine.pm_mut().free(e.pfn, hawkeye_mem::Order(0));
                self.machine.mmu_mut().invalidate_page(pid, v);
                self.swapped.insert((pid, v.0));
                evicted += 1;
                self.stats.swap_outs += 1;
            }
        }
        evicted
    }
}

/// The access hook a guest round borrows the host through.
struct HostBridge<'a> {
    host: &'a mut HostSide,
    host_pid: u32,
}

impl AccessHook for HostBridge<'_> {
    fn on_touch(
        &mut self,
        _pid: u32,
        _vpn: Vpn,
        pfn: Pfn,
        _size: PageSize,
        write: bool,
        walk: Cycles,
    ) -> Cycles {
        match self.host.guest_touch(self.host_pid, pfn.0, write, walk) {
            Ok(cost) => cost,
            Err(_) => {
                // Degrade instead of aborting the suite: the touch is
                // dropped and the error surfaces in the stats.
                self.host.stats.bridge_errors += 1;
                Cycles::ZERO
            }
        }
    }
}

struct VmEntry {
    sim: Simulator,
    host_pid: u32,
    ksm_cursor: u64,
    balloon_cursor: u64,
}

/// A host plus a set of VMs.
pub struct VirtSystem {
    host: HostSide,
    vms: Vec<VmEntry>,
    guest_template: KernelConfig,
    next_tick: Cycles,
}

impl VirtSystem {
    /// Boots the host with `host_cfg` and `host_policy`, default
    /// [`VirtConfig`].
    pub fn new(host_cfg: KernelConfig, host_policy: Box<dyn HugePagePolicy>) -> Self {
        Self::with_virt_config(host_cfg, host_policy, VirtConfig::default())
    }

    /// Boots the host with explicit virtualization tunables.
    pub fn with_virt_config(
        host_cfg: KernelConfig,
        host_policy: Box<dyn HugePagePolicy>,
        vcfg: VirtConfig,
    ) -> Self {
        let guest_template = host_cfg.clone();
        let next_tick = guest_template.tick_period;
        let machine = Machine::new(host_cfg);
        VirtSystem {
            host: HostSide {
                machine,
                policy: host_policy,
                cfg: vcfg,
                swapped: HashSet::new(),
                host_pids: Vec::new(),
                evict_rr: 0,
                stats: VirtStats::default(),
            },
            vms: Vec::new(),
            guest_template,
            next_tick,
        }
    }

    /// Creates a VM of `spec.frames` guest-physical frames running
    /// `guest_policy` in its kernel.
    pub fn add_vm(&mut self, spec: VmSpec, guest_policy: Box<dyn HugePagePolicy>) -> VmId {
        let host = &mut self.host;
        let host_pid = host.machine.spawn(hawkeye_kernel::workload::script("vm", vec![]));
        host.machine
            .process_mut(host_pid)
            .expect("just spawned")
            .space_mut()
            .mmap(Vpn(0), spec.frames, VmaKind::Anon)
            .expect("fresh space");
        host.host_pids.push(host_pid);
        let mut guest_cfg = self.guest_template.clone();
        guest_cfg.frames = spec.frames;
        guest_cfg.nested = true; // two-dimensional walks
        let sim = Simulator::new(guest_cfg, guest_policy);
        self.vms.push(VmEntry { sim, host_pid, ksm_cursor: 0, balloon_cursor: 0 });
        VmId(self.vms.len() - 1)
    }

    /// Spawns a workload inside a VM's guest kernel. Returns the guest
    /// pid.
    pub fn spawn_in_vm(&mut self, vm: VmId, workload: Box<dyn Workload>) -> u32 {
        self.vms[vm.0].sim.spawn(workload)
    }

    /// The guest machine of a VM.
    pub fn guest(&self, vm: VmId) -> &Machine {
        self.vms[vm.0].sim.machine()
    }

    /// Mutable guest machine (experiment setup).
    pub fn guest_mut(&mut self, vm: VmId) -> &mut Machine {
        self.vms[vm.0].sim.machine_mut()
    }

    /// The host machine.
    pub fn host(&self) -> &Machine {
        &self.host.machine
    }

    /// Mutable host machine (experiment setup: fragmentation etc.).
    pub fn host_mut(&mut self) -> &mut Machine {
        &mut self.host.machine
    }

    /// Host-side virtualization counters.
    pub fn virt_stats(&self) -> VirtStats {
        self.host.stats
    }

    /// Runs until every guest workload completes (or each guest hits its
    /// configured `max_time`).
    pub fn run(&mut self) -> Cycles {
        self.run_while(|_| true)
    }

    /// Runs while the predicate over the host machine holds.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&Machine) -> bool) -> Cycles {
        loop {
            if !keep_going(&self.host.machine) {
                break;
            }
            let mut any = false;
            for vm in &mut self.vms {
                let mut bridge = HostBridge { host: &mut self.host, host_pid: vm.host_pid };
                any |= vm.sim.round_with(Some(&mut bridge));
            }
            if !any {
                break;
            }
            self.host_round();
            if self.host.machine.now() >= self.guest_template.max_time {
                break;
            }
        }
        self.host.machine.now()
    }

    fn host_round(&mut self) {
        let host = &mut self.host;
        host.machine.advance(self.guest_template.quantum);
        if host.machine.now() < self.next_tick {
            return;
        }
        self.next_tick += self.guest_template.tick_period;
        host.policy.on_tick(&mut host.machine);
        let VirtConfig { ksm, balloon, ksm_pages_per_tick, balloon_pages_per_tick, .. } = host.cfg;
        for i in 0..self.vms.len() {
            if balloon {
                self.balloon_pass(i, balloon_pages_per_tick);
            }
            if ksm {
                self.ksm_pass(i, ksm_pages_per_tick);
            }
        }
    }

    /// Balloon: return guest-free frames to the host.
    fn balloon_pass(&mut self, vm: usize, budget: u64) {
        let host_pid = self.vms[vm].host_pid;
        let frames = self.vms[vm].sim.machine().pm().total_frames();
        let host = &mut self.host;
        let mut cursor = self.vms[vm].balloon_cursor;
        for _ in 0..budget {
            let gpa = cursor % frames;
            cursor += 1;
            let guest_free = self.vms[vm].sim.machine().pm().frame(Pfn(gpa)).is_free();
            if !guest_free {
                continue;
            }
            host.swapped.remove(&(host_pid, gpa));
            let vpn = Vpn(gpa);
            let mapping = host
                .machine
                .process(host_pid)
                .and_then(|p| p.space().translate(vpn).map(|t| (t.pfn, t.size, t.zero_cow)));
            let Some((pfn, size, zero_cow)) = mapping else { continue };
            match size {
                PageSize::Huge => {
                    // Ballooning base pages out of a host huge mapping
                    // splits it first (exactly the paper's observation
                    // that ballooning and THP conflict).
                    host.machine.demote(host_pid, vpn.hvpn());
                    let Some(p) = host.machine.process_mut(host_pid) else { continue };
                    let Ok(e) = p.space_mut().unmap_base(vpn) else { continue };
                    host.machine.pm_mut().free(e.pfn, hawkeye_mem::Order(0));
                }
                PageSize::Base => {
                    let Some(p) = host.machine.process_mut(host_pid) else { continue };
                    let Ok(_) = p.space_mut().unmap_base(vpn) else { continue };
                    if !zero_cow {
                        host.machine.pm_mut().free(pfn, hawkeye_mem::Order(0));
                    }
                }
            }
            host.machine.mmu_mut().invalidate_page(host_pid, vpn);
            host.stats.ballooned += 1;
            host.machine.metrics().add("virt.ballooned_pages", 1);
        }
        self.vms[vm].balloon_cursor = cursor;
    }

    /// KSM: merge zero guest pages into the host zero page. Zero-ness is
    /// judged from the *guest* frame contents (the authoritative data),
    /// mirrored onto host frames before de-duplication.
    fn ksm_pass(&mut self, vm: usize, budget: u64) {
        let host_pid = self.vms[vm].host_pid;
        let frames = self.vms[vm].sim.machine().pm().total_frames();
        let min_zero = self.host.cfg.dedup_min_zero;
        let mut scanned = 0u64;
        let mut cursor = self.vms[vm].ksm_cursor;
        while scanned < budget {
            let region = Hvpn((cursor / 512) % (frames / 512).max(1));
            cursor = (region.0 + 1) * 512;
            scanned += 512;
            // Mirror guest content onto host frames for this region: bit
            // `i` of `zero` is set when the region's page `i` is a zeroed
            // guest frame.
            let mut zero = [0u64; 8];
            {
                let guest_pm = self.vms[vm].sim.machine().pm();
                for i in 0..512u64 {
                    let gpa = region.vpn_at(i).0;
                    if gpa < frames && guest_pm.frame(Pfn(gpa)).is_zeroed() {
                        zero[(i / 64) as usize] |= 1 << (i % 64);
                    }
                }
            }
            let is_zero = |i: u64| zero[(i / 64) as usize] & (1 << (i % 64)) != 0;
            let host = &mut self.host;
            let host_huge =
                host.machine.process(host_pid).map(|p| {
                    p.space().page_table().huge_entry(region).is_some()
                }).unwrap_or(false);
            if host_huge {
                // Sync content, then let the kernel primitive do the work.
                let mapping = host
                    .machine
                    .process(host_pid)
                    .and_then(|p| p.space().translate(region.base_vpn()));
                let Some(t) = mapping else { continue };
                let base_pfn = t.pfn;
                for i in 0..512u64 {
                    let content = if is_zero(i) {
                        PageContent::Zero
                    } else {
                        PageContent::non_zero(6)
                    };
                    host.machine.pm_mut().frame_mut(Pfn(base_pfn.0 + i)).set_content(content);
                }
                if let Some(hawkeye_kernel::DedupOutcome::Deduped { zero_pages, .. }) =
                    host.machine.dedup_zero_pages(host_pid, region, min_zero)
                {
                    host.stats.ksm_merged += zero_pages as u64;
                    host.machine.metrics().add("virt.ksm_merged_pages", zero_pages as u64);
                }
            } else {
                // Base mappings: merge zero pages individually, in
                // ascending order.
                for i in (0..512u64).filter(|&i| is_zero(i)) {
                    let vpn = region.vpn_at(i);
                    let entry = host
                        .machine
                        .process(host_pid)
                        .and_then(|p| p.space().page_table().base_entry(vpn));
                    let Some(e) = entry else { continue };
                    if e.zero_cow {
                        continue;
                    }
                    let zero_pfn = host.machine.zero_pfn();
                    let Some(p) = host.machine.process_mut(host_pid) else { continue };
                    let space = p.space_mut();
                    if space.unmap_base(vpn).is_err() {
                        continue;
                    }
                    let Ok(()) = space.map_zero_cow(vpn, zero_pfn) else { continue };
                    host.machine.pm_mut().free(e.pfn, hawkeye_mem::Order(0));
                    host.machine.mmu_mut().invalidate_page(host_pid, vpn);
                    host.stats.ksm_merged += 1;
                    host.machine.metrics().add("virt.ksm_merged_pages", 1);
                }
            }
            if cursor / 512 >= (frames / 512).max(1) && scanned >= budget {
                break;
            }
        }
        self.vms[vm].ksm_cursor = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_core::{HawkEye, HawkEyeConfig};
    use hawkeye_kernel::{workload::script, BasePagesOnly, MemOp};
    use hawkeye_policies::LinuxThp;

    fn touch_workload(pages: u64) -> Box<dyn Workload> {
        script(
            "guest-touch",
            vec![
                MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages, write: true, think: 60, stride: 1, repeats: 1 },
            ],
        )
    }

    /// Compile-time check: the whole virtualization stack must stay
    /// `Send` so bench scenarios can run `VirtSystem`s on worker threads.
    #[allow(dead_code)]
    fn assert_send<T: Send>() {}

    #[test]
    fn virt_system_is_send() {
        assert_send::<VirtSystem>();
        assert_send::<HostSide>();
        assert_send::<VirtStats>();
    }

    #[test]
    fn missing_host_process_degrades_instead_of_panicking() {
        // Regression: a bridge touch against a pid the host never spawned
        // used to abort via `.expect("vm process")`. It must now count a
        // bridge error, charge zero cycles, and leave the system usable.
        let mut sys = VirtSystem::new(KernelConfig::small(), Box::new(LinuxThp::default()));
        let mut bridge = HostBridge { host: &mut sys.host, host_pid: 999 };
        let cost = bridge.on_touch(1, Vpn(0), Pfn(0), PageSize::Base, true, Cycles::ZERO);
        assert_eq!(cost, Cycles::ZERO);
        assert_eq!(sys.virt_stats().bridge_errors, 1);
        // The underlying error is typed and printable.
        let err = sys.host.guest_touch(999, 0, false, Cycles::ZERO).unwrap_err();
        assert_eq!(err, VirtError::NoProcess { pid: 999 });
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn guest_accesses_back_host_memory() {
        let mut sys = VirtSystem::new(KernelConfig::small(), Box::new(LinuxThp::default()));
        let vm = sys.add_vm(VmSpec { frames: 8 * 1024 }, Box::new(BasePagesOnly));
        let gpid = sys.spawn_in_vm(vm, touch_workload(2048));
        sys.run();
        let guest = sys.guest(vm);
        assert!(guest.process(gpid).unwrap().is_finished());
        assert!(sys.virt_stats().ept_faults > 0);
        // Host memory is held even after the guest process exits (the
        // guest kernel keeps the freed frames; no balloon).
        let allocated = sys.host().pm().allocated_pages();
        assert!(allocated > 2048, "{allocated}");
    }

    #[test]
    fn host_linux_maps_guest_memory_huge() {
        let mut sys = VirtSystem::new(KernelConfig::small(), Box::new(LinuxThp::default()));
        let vm = sys.add_vm(VmSpec { frames: 8 * 1024 }, Box::new(BasePagesOnly));
        sys.spawn_in_vm(vm, touch_workload(2048));
        sys.run();
        let huge = sys.host().process(1).unwrap().space().huge_pages();
        assert!(huge >= 4, "host THP should back the VM hugely: {huge}");
    }

    #[test]
    fn ksm_recovers_guest_zeroed_memory() {
        let mut vcfg = VirtConfig { ksm: true, ..Default::default() };
        vcfg.dedup_min_zero = 64;
        let mut sys = VirtSystem::with_virt_config(
            KernelConfig::small(),
            Box::new(LinuxThp::default()),
            vcfg,
        );
        // Guest runs HawkEye: its pre-zeroing daemon cleans freed pages,
        // making them mergeable at the host.
        let vm = sys.add_vm(VmSpec { frames: 16 * 1024 }, Box::new(HawkEye::new(HawkEyeConfig::default())));
        sys.spawn_in_vm(
            vm,
            script(
                "alloc-free",
                vec![
                    MemOp::Mmap { start: Vpn(0), pages: 8 * 512, kind: VmaKind::Anon },
                    MemOp::TouchRange { start: Vpn(0), pages: 8 * 512, write: true, think: 0, stride: 1, repeats: 1 },
                    MemOp::Madvise { start: Vpn(0), pages: 8 * 512 },
                    MemOp::Compute { cycles: 8_000_000_000 },
                ],
            ),
        );
        sys.run();
        let stats = sys.virt_stats();
        assert!(stats.ksm_merged > 2048, "host reclaimed guest-freed memory: {stats:?}");
        sys.host().pm().check_invariants();
    }

    #[test]
    fn balloon_returns_free_guest_memory() {
        let vcfg = VirtConfig { balloon: true, ..Default::default() };
        let mut sys = VirtSystem::with_virt_config(
            KernelConfig::small(),
            Box::new(LinuxThp::default()),
            vcfg,
        );
        let vm = sys.add_vm(VmSpec { frames: 16 * 1024 }, Box::new(BasePagesOnly));
        sys.spawn_in_vm(
            vm,
            script(
                "alloc-free",
                vec![
                    MemOp::Mmap { start: Vpn(0), pages: 4 * 512, kind: VmaKind::Anon },
                    MemOp::TouchRange { start: Vpn(0), pages: 4 * 512, write: true, think: 0, stride: 1, repeats: 1 },
                    MemOp::Madvise { start: Vpn(0), pages: 4 * 512 },
                    MemOp::Compute { cycles: 5_000_000_000 },
                ],
            ),
        );
        sys.run();
        assert!(sys.virt_stats().ballooned >= 2048, "{:?}", sys.virt_stats());
        sys.host().pm().check_invariants();
    }

    #[test]
    fn overcommit_swaps_instead_of_crashing() {
        // Host: 16 MiB; two VMs of 12 MiB each, both touching everything.
        let mut cfg = KernelConfig::small();
        cfg.frames = 4096;
        let mut sys = VirtSystem::new(cfg, Box::new(BasePagesOnly));
        let a = sys.add_vm(VmSpec { frames: 3072 }, Box::new(BasePagesOnly));
        let b = sys.add_vm(VmSpec { frames: 3072 }, Box::new(BasePagesOnly));
        sys.spawn_in_vm(a, touch_workload(2560));
        sys.spawn_in_vm(b, touch_workload(2560));
        sys.run();
        let stats = sys.virt_stats();
        assert!(stats.swap_outs > 0, "overcommit must swap: {stats:?}");
        for vm in [a, b] {
            assert!(sys.guest(vm).process(1).unwrap().is_finished());
            assert!(!sys.guest(vm).process(1).unwrap().is_oom());
        }
        sys.host().pm().check_invariants();
    }

    #[test]
    fn nested_walks_cost_more_under_host_base_pages() {
        // Same guest workload; host policy differs (base vs huge).
        let run = |host_policy: Box<dyn HugePagePolicy>| {
            let mut sys = VirtSystem::new(KernelConfig::with_mib(512), host_policy);
            let vm = sys.add_vm(VmSpec { frames: 64 * 1024 }, Box::new(BasePagesOnly));
            let pid = sys.spawn_in_vm(
                vm,
                Box::new(hawkeye_workloads::PatternScan::random(48 * 1024, 300_000, 50)),
            );
            sys.run();
            sys.guest(vm).process(pid).unwrap().cpu_time()
        };
        let host_base = run(Box::new(BasePagesOnly));
        #[allow(clippy::box_default)] // coerces to Box<dyn HugePagePolicy>
        let host_huge = run(Box::new(LinuxThp::default()));
        assert!(
            host_huge < host_base,
            "host huge pages must shorten nested walks: {host_huge} vs {host_base}"
        );
    }
}
