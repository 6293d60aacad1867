//! The simulation run loop.
//!
//! Processes run on their own cores: each round grants every runnable
//! process one quantum of cycles, then wall-clock simulated time advances
//! by that quantum. Policy ticks (background daemon work) and metric
//! sampling happen on their configured periods.

use crate::config::KernelConfig;
use crate::machine::{Machine, OutOfMemory};
use crate::policy::{FaultAction, HugePagePolicy, Steering};
use crate::process::OpCursor;
use crate::workload::{MemOp, Workload};
use hawkeye_mem::Pfn;
use hawkeye_metrics::{Cycles, Subsystem};
use hawkeye_trace::TraceEvent;
use hawkeye_vm::{PageSize, Vpn};

/// Interposer on the touch path, invoked once per page touch after
/// translation. The virtualization layer uses this to model the host side
/// of two-level translation: EPT faults on first access to a
/// guest-physical frame, copy-on-write on KSM-merged pages, swap-ins, and
/// the extra nested-walk cost when the host maps the frame with base
/// pages.
///
/// `Send` is a supertrait so a hooked simulator stays movable across
/// threads (the virtualization bridge shares its host behind a mutex).
pub trait AccessHook: Send {
    /// Returns extra cycles charged to the access. `pfn` is the backing
    /// frame of the specific page; `walk` is the walk duration of this
    /// access (zero on TLB hits).
    fn on_touch(
        &mut self,
        pid: u32,
        vpn: Vpn,
        pfn: Pfn,
        size: PageSize,
        write: bool,
        walk: Cycles,
    ) -> Cycles;
}

/// The simulator: a [`Machine`] plus a policy and the scheduler state.
///
/// # Examples
///
/// ```
/// use hawkeye_kernel::{KernelConfig, Simulator, BasePagesOnly, MemOp, workload::script};
/// use hawkeye_vm::{Vpn, VmaKind};
///
/// let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
/// let pid = sim.spawn(script("w", vec![
///     MemOp::Mmap { start: Vpn(0), pages: 64, kind: VmaKind::Anon },
///     MemOp::TouchRange { start: Vpn(0), pages: 64, write: true, think: 50, stride: 1 , repeats: 1},
/// ]));
/// sim.run();
/// let p = sim.machine().process(pid).unwrap();
/// assert_eq!(p.stats().faults, 64);
/// ```
pub struct Simulator {
    machine: Machine,
    policy: Option<Box<dyn HugePagePolicy>>,
    next_tick: Cycles,
    next_sample: Cycles,
    hook: Option<Box<dyn AccessHook>>,
    /// Scheduler quanta executed so far (see [`Simulator::quanta`]).
    quanta: u64,
}

/// Per-quantum CPU-side cycle attribution, accumulated alongside `spent`
/// and flushed to the machine's metrics sink when the quantum ends. The
/// fault primitives charge their own costs at the call site (they know
/// their zero/fault split); the ledger covers what the run loop itself
/// adds to `spent`, so per quantum
/// `machine charges + ledger == spent == CPU_CLK_UNHALTED delta`.
#[derive(Debug, Default, Clone, Copy)]
struct CpuLedger {
    /// TLB-miss translation cycles (page walks plus L2-lookup cost).
    walk: Cycles,
    /// Syscall entry and access-hook (EPT/nested) cycles.
    fault: Cycles,
    /// Application compute: think time, in-core accesses, spin loops.
    idle: Cycles,
}

/// The page sequence a guaranteed-L1-hit streak covers.
#[derive(Clone, Copy)]
enum StreakShape<'a> {
    /// Consecutive pages after `after` within its huge region
    /// (`TouchRange` with stride 1).
    Consecutive { after: Vpn, region_pfn: Pfn },
    /// The leading entries of a `TouchList` tail — all one base page, or
    /// all inside one huge region.
    Listed { vpns: &'a [Vpn], size: PageSize, region_pfn: Pfn },
}

impl Simulator {
    /// Boots a machine and installs a policy.
    pub fn new(config: KernelConfig, policy: Box<dyn HugePagePolicy>) -> Self {
        let next_tick = config.tick_period;
        let next_sample = config.sample_period;
        Simulator {
            machine: Machine::new(config),
            policy: Some(policy),
            next_tick,
            next_sample,
            hook: None,
            quanta: 0,
        }
    }

    /// Scheduler quanta this simulator has executed: every round that
    /// found a runnable process, whether driven by a run call or through
    /// [`Simulator::round`] directly. Counted per instance, so concurrent
    /// simulators never see each other's quanta.
    pub fn quanta(&self) -> u64 {
        self.quanta
    }

    /// Installs (or clears) the per-touch interposer.
    pub fn set_access_hook(&mut self, hook: Option<Box<dyn AccessHook>>) {
        self.hook = hook;
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (experiment setup: fragmentation, VMAs...).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The installed policy's name.
    pub fn policy_name(&self) -> String {
        self.policy.as_ref().map(|p| p.name().to_string()).unwrap_or_default()
    }

    /// Spawns a process running `workload`.
    pub fn spawn(&mut self, workload: Box<dyn Workload>) -> u32 {
        self.machine.spawn(workload)
    }

    /// Applies an external steering decision to the installed policy
    /// (fleet hook API). Call at quantum boundaries only — between
    /// [`Simulator::run_for`] slices — never mid-run.
    pub fn steer(&mut self, s: &Steering) {
        let mut policy = self.policy.take().expect("policy installed");
        policy.on_steer(&mut self.machine, s);
        self.policy = Some(policy);
    }

    /// Force-terminates `pid` (fleet migration: the tenant leaves this
    /// host), freeing its memory and notifying the policy exactly as a
    /// natural exit would. No-op for unknown or already-finished pids.
    pub fn kill(&mut self, pid: u32) {
        let running = self.machine.process(pid).is_some_and(|p| !p.is_finished());
        if !running {
            return;
        }
        self.machine.exit_process(pid);
        let at = self.machine.now();
        self.machine.process_mut(pid).expect("exists").mark_finished(at, false);
        let mut policy = self.policy.take().expect("policy installed");
        policy.on_exit(&mut self.machine, pid);
        self.policy = Some(policy);
    }

    /// Balloons `pages` pages out of `pid` starting at `start`
    /// (`madvise(DONTNEED)` driven by the host, not the guest), notifying
    /// the policy's release hook. Returns the simulated cost charged.
    pub fn balloon(&mut self, pid: u32, start: Vpn, pages: u64) -> Cycles {
        let cost = self.machine.madvise_dontneed(pid, start, pages);
        let mut policy = self.policy.take().expect("policy installed");
        policy.on_release(&mut self.machine, pid, start, pages);
        self.policy = Some(policy);
        cost
    }

    /// Runs until every process finishes or `max_time` elapses. Returns
    /// the final simulated time.
    pub fn run(&mut self) -> Cycles {
        self.run_while(|_| true)
    }

    /// Runs for at most `dur` more simulated time.
    pub fn run_for(&mut self, dur: Cycles) -> Cycles {
        let deadline = self.machine.now() + dur;
        self.run_while(move |m| m.now() < deadline)
    }

    /// Runs while `keep_going(machine)` holds (checked before every
    /// quantum), every process is not yet finished, and `max_time` has
    /// not elapsed.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&Machine) -> bool) -> Cycles {
        while keep_going(&self.machine)
            && self.machine.now() < self.machine.config().max_time
            && self.round()
        {}
        self.machine.mmu_mut().flush_metrics();
        self.machine.drain_concurrency();
        self.machine.now()
    }

    /// Executes one scheduler round and counts it as a quantum. Returns
    /// false, counting nothing, when no process is runnable.
    pub fn round(&mut self) -> bool {
        let pids = self.machine.running_pids();
        if pids.is_empty() {
            return false;
        }
        let quantum = self.machine.config().quantum;
        let mut policy = self.policy.take().expect("policy installed");
        for pid in pids {
            self.step_process(&mut *policy, pid, quantum);
        }
        // Drain walk durations batched during the quantum into the
        // registry (additive merge — readers see exactly what per-walk
        // observation would have produced, without its per-touch cost).
        self.machine.mmu_mut().flush_metrics();
        self.machine.advance(quantum);
        let now = self.machine.now();
        if now >= self.next_tick {
            policy.on_tick(&mut self.machine);
            self.next_tick += self.machine.config().tick_period;
        }
        let sample_period = self.machine.config().sample_period;
        if sample_period > Cycles::ZERO && now >= self.next_sample {
            self.machine.sample_metrics();
            self.next_sample += sample_period;
        }
        self.policy = Some(policy);
        self.quanta += 1;
        crate::sched_stats::count_quantum();
        true
    }

    /// Runs one process for (up to) a quantum of its own CPU.
    fn step_process(&mut self, policy: &mut dyn HugePagePolicy, pid: u32, quantum: Cycles) {
        let base_now = self.machine.now();
        let mut spent = Cycles::ZERO;
        let mut ledger = CpuLedger::default();
        let mut finished = false;
        let mut oom = false;
        while spent < quantum {
            let cursor = {
                let p = self.machine.process_mut(pid).expect("running process");
                match p.pending.take() {
                    Some(c) => Some(c),
                    None => p.next_op().map(|op| OpCursor { op, progress: 0 }),
                }
            };
            let Some(cursor) = cursor else {
                finished = true;
                break;
            };
            match self.exec_slice(policy, pid, cursor, quantum, &mut spent, &mut ledger) {
                Ok(Some(rest)) => {
                    self.machine.process_mut(pid).expect("exists").pending = Some(rest);
                }
                Ok(None) => {}
                Err(OutOfMemory) => {
                    finished = true;
                    oom = true;
                    break;
                }
            }
        }
        {
            // Attribute the run loop's share of this quantum; the fault
            // primitives charged theirs already. Together they sum to
            // `spent`, which `record_unhalted` credits below.
            let m = self.machine.metrics();
            m.charge_cpu(Subsystem::Walk, ledger.walk);
            m.charge_cpu(Subsystem::Fault, ledger.fault);
            m.charge_cpu(Subsystem::Idle, ledger.idle);
        }
        let p = self.machine.process_mut(pid).expect("exists");
        p.charge(spent);
        self.machine.record_unhalted(pid, spent);
        if finished {
            if oom {
                self.machine.stats_oom(pid);
            }
            self.machine.exit_process(pid);
            let at = base_now + spent;
            self.machine.process_mut(pid).expect("exists").mark_finished(at, oom);
            policy.on_exit(&mut self.machine, pid);
        }
    }

    /// Executes (part of) one op; returns the remaining cursor when the
    /// quantum expires mid-op.
    fn exec_slice(
        &mut self,
        policy: &mut dyn HugePagePolicy,
        pid: u32,
        mut cursor: OpCursor,
        quantum: Cycles,
        spent: &mut Cycles,
        ledger: &mut CpuLedger,
    ) -> Result<Option<OpCursor>, OutOfMemory> {
        let syscall_cost = Cycles::from_nanos(500);
        match &cursor.op {
            MemOp::Mmap { start, pages, kind } => {
                let p = self.machine.process_mut(pid).expect("exists");
                p.space_mut().mmap(*start, *pages, *kind).expect("workload mmap is valid");
                *spent += syscall_cost;
                ledger.fault += syscall_cost;
                Ok(None)
            }
            MemOp::Munmap { start } => {
                let start = *start;
                let range = self
                    .machine
                    .process(pid)
                    .and_then(|p| p.space().find_vma(start).map(|v| (v.start(), v.pages())));
                if let Some((s, pages)) = range {
                    // The madvise cost is attributed inside the machine;
                    // only the syscall entry is the run loop's to tag.
                    *spent += self.machine.madvise_dontneed(pid, s, pages) + syscall_cost;
                    ledger.fault += syscall_cost;
                    let p = self.machine.process_mut(pid).expect("exists");
                    let _ = p.space_mut().munmap(s);
                    policy.on_release(&mut self.machine, pid, s, pages);
                }
                Ok(None)
            }
            MemOp::Madvise { start, pages } => {
                let (start, pages) = (*start, *pages);
                *spent += self.machine.madvise_dontneed(pid, start, pages) + syscall_cost;
                ledger.fault += syscall_cost;
                policy.on_release(&mut self.machine, pid, start, pages);
                Ok(None)
            }
            MemOp::Compute { cycles } => {
                let total = Cycles::new(*cycles);
                let done = Cycles::new(cursor.progress);
                let left = total.saturating_sub(done);
                let room = quantum.saturating_sub(*spent);
                if left <= room {
                    *spent += left;
                    ledger.idle += left;
                    Ok(None)
                } else {
                    *spent += room;
                    ledger.idle += room;
                    cursor.progress += room.get();
                    Ok(Some(cursor))
                }
            }
            MemOp::Touch { vpn, write, repeats, think } => {
                let (vpn, write, repeats, think) = (*vpn, *write, *repeats, *think);
                self.touch_page(policy, pid, vpn, write, repeats, think, spent, ledger)?;
                Ok(None)
            }
            MemOp::TouchRange { start, pages, write, think, stride, repeats } => {
                let (start, pages, write, think, stride, repeats) =
                    (*start, *pages, *write, *think, (*stride).max(1), (*repeats).max(1));
                let fast = self.fast_path_on() && stride == 1;
                let mut i = cursor.progress;
                while i < pages {
                    if *spent >= quantum {
                        cursor.progress = i;
                        return Ok(Some(cursor));
                    }
                    let vpn = Vpn(start.0 + i * stride);
                    let tr = self.touch_page(policy, pid, vpn, write, repeats, think, spent, ledger)?;
                    i += 1;
                    if fast && tr.size == PageSize::Huge && i < pages {
                        // The rest of this huge region is resident behind
                        // the L1 entry the touch above just used: charge
                        // the guaranteed-hit streak in closed form.
                        let max = (pages - i).min(511 - vpn.huge_offset());
                        i += self.charge_streak(
                            pid,
                            StreakShape::Consecutive { after: vpn, region_pfn: Pfn(tr.pfn.0 - vpn.huge_offset()) },
                            write,
                            repeats,
                            think,
                            max,
                            quantum,
                            spent,
                            ledger,
                        );
                    }
                }
                Ok(None)
            }
            MemOp::TouchList { vpns, write, think } => {
                let (write, think) = (*write, *think);
                let fast = self.fast_path_on();
                let mut i = cursor.progress as usize;
                while i < vpns.len() {
                    if *spent >= quantum {
                        cursor.progress = i as u64;
                        return Ok(Some(cursor));
                    }
                    let vpn = vpns[i];
                    let tr = self.touch_page(policy, pid, vpn, write, 1, think, spent, ledger)?;
                    i += 1;
                    if fast {
                        // Later list entries guaranteed to hit the same L1
                        // entry: repeats of this page, or (for a huge
                        // mapping) any page of the same region.
                        let run = vpns[i..]
                            .iter()
                            .take_while(|v| match tr.size {
                                PageSize::Huge => v.hvpn() == vpn.hvpn(),
                                PageSize::Base => **v == vpn,
                            })
                            .count() as u64;
                        if run > 0 {
                            let region_pfn = match tr.size {
                                PageSize::Huge => Pfn(tr.pfn.0 - vpn.huge_offset()),
                                PageSize::Base => tr.pfn,
                            };
                            let n = self.charge_streak(
                                pid,
                                StreakShape::Listed { vpns: &vpns[i..], size: tr.size, region_pfn },
                                write,
                                1,
                                think,
                                run,
                                quantum,
                                spent,
                                ledger,
                            );
                            i += n as usize;
                        }
                    }
                }
                Ok(None)
            }
        }
    }

    /// Whether batched streak execution applies: the fast path is on and
    /// no access hook is interposing (hooks must see every touch).
    fn fast_path_on(&self) -> bool {
        self.machine.config().fast_path && self.hook.is_none()
    }

    /// Charges up to `max` touches that are each guaranteed to hit the L1
    /// TLB on the entry used by the touch just executed, without walking
    /// the per-access model. Returns how many touches were charged (0
    /// falls the caller back to per-access execution).
    ///
    /// Exactness argument, piece by piece against what `max` per-access
    /// iterations would do:
    /// * *page table*: every page in the streak is mapped by the entry the
    ///   preceding touch translated through, whose accessed bit (and dirty
    ///   bit, for writes) that touch already set — the per-access
    ///   `AddressSpace::access` calls would be state no-ops, and cannot
    ///   fault (a huge mapping covers its region; a resolved base page
    ///   stays resolved; COW writes never enter a streak because the
    ///   leading touch replaced the zero-COW mapping).
    /// * *TLB/PMU*: `Mmu::record_l1_hits` advances the LRU clock and hit
    ///   counters exactly as `n` hitting lookups would, and refuses
    ///   (returning 0 here) if the entry is somehow not resident.
    /// * *cycles*: an L1 hit's `AccessOutcome` charges zero, so each touch
    ///   costs exactly `(access + think) × repeats`.
    /// * *quantum*: the per-access loop stops before the first touch at
    ///   which `spent ≥ quantum`; with per-touch cost `c`, that is
    ///   `⌈(quantum − spent)/c⌉` more touches (all of them when `c = 0`).
    /// * *content*: `dirt_offset()` is drawn once per write touch in op
    ///   order (it advances the workload's RNG), and each touched frame
    ///   gets its sample; no observer runs mid-streak (policy ticks only
    ///   happen between rounds, and hooks disable batching).
    #[allow(clippy::too_many_arguments)]
    fn charge_streak(
        &mut self,
        pid: u32,
        shape: StreakShape<'_>,
        write: bool,
        repeats: u32,
        think: u32,
        max: u64,
        quantum: Cycles,
        spent: &mut Cycles,
        ledger: &mut CpuLedger,
    ) -> u64 {
        if max == 0 {
            return 0;
        }
        let (p, mmu, pm, config) = self.machine.touch_parts(pid).expect("exists");
        let c_touch = (config.costs.access + Cycles::new(think as u64)) * repeats as u64;
        let n = if c_touch > Cycles::ZERO {
            let room = quantum.saturating_sub(*spent);
            if room == Cycles::ZERO {
                return 0;
            }
            max.min(room.get().div_ceil(c_touch.get()))
        } else {
            max
        };
        let (probe_vpn, size) = match shape {
            StreakShape::Consecutive { after, .. } => (Vpn(after.0 + 1), PageSize::Huge),
            StreakShape::Listed { vpns, size, .. } => (vpns[0], size),
        };
        if !mmu.record_l1_hits(pid, probe_vpn, size, n) {
            return 0;
        }
        *spent += c_touch * n;
        ledger.idle += c_touch * n;
        if write {
            // One dirt draw per touch, in op order; frame contents never
            // feed back into the workload RNG, so draw-then-apply per
            // touch matches the per-access order.
            for j in 0..n {
                let dirt = p.dirt_offset();
                let pfn = match shape {
                    StreakShape::Consecutive { after, region_pfn } => {
                        Pfn(region_pfn.0 + Vpn(after.0 + 1 + j).huge_offset())
                    }
                    StreakShape::Listed { vpns, size, region_pfn } => match size {
                        PageSize::Huge => Pfn(region_pfn.0 + vpns[j as usize].huge_offset()),
                        PageSize::Base => region_pfn,
                    },
                };
                pm.frame_mut(pfn).set_content(hawkeye_mem::PageContent::non_zero(dirt));
            }
        }
        let st = p.stats_mut();
        st.touches += n;
        st.accesses += repeats as u64 * n;
        n
    }

    /// One page touch: [`Simulator::touch_mapped`] (translation with TLB
    /// timing, content dirtying, repeat accesses), taking one fault via
    /// the policy each time it finds no usable mapping. Costs accumulate
    /// directly into `spent` (and their attribution into `ledger`), so
    /// fault work done before a mid-touch OOM stays counted in the
    /// quantum — matching the registry charges the fault primitives
    /// already made. Returns the translation the touch resolved to (streak
    /// batching uses it to extend over the rest of a huge region).
    ///
    /// # Fault accounting
    ///
    /// Every trip around the fault loop — a missing mapping resolved by
    /// the policy *or* a write hitting a zero-COW page — charges one
    /// `ProcStats::faults` and its handler cost to
    /// `ProcStats::fault_cycles`. COW resolutions are additionally
    /// counted in `ProcStats::cow_faults`, so COW faults are a *subset*
    /// of `faults`, not a separate pool. A touch
    /// can legitimately fault twice (unmapped, then the policy maps the
    /// region zero-COW and a write must immediately COW), which is why
    /// the loop guard allows a few iterations.
    #[allow(clippy::too_many_arguments)]
    fn touch_page(
        &mut self,
        policy: &mut dyn HugePagePolicy,
        pid: u32,
        vpn: Vpn,
        write: bool,
        repeats: u32,
        think: u32,
        spent: &mut Cycles,
        ledger: &mut CpuLedger,
    ) -> Result<hawkeye_vm::Translation, OutOfMemory> {
        let repeats = repeats.max(1);
        let mut guard = 0;
        loop {
            if let Some(tr) = self.touch_mapped(pid, vpn, write, repeats, think, spent, ledger) {
                return Ok(tr);
            }
            guard += 1;
            assert!(guard <= 3, "fault loop did not converge at {vpn}");
            // Distinguish zero-COW writes from missing mappings.
            let zero_cow = self
                .machine
                .process(pid)
                .and_then(|p| p.space().translate(vpn))
                .map(|t| t.zero_cow)
                .unwrap_or(false);
            let (fault_cost, huge) = if write && zero_cow {
                (self.machine.cow_fault(pid, vpn)?, false)
            } else {
                let action = policy.on_fault(&mut self.machine, pid, vpn);
                self.apply_fault_action(pid, vpn, action)?
            };
            *spent += fault_cost;
            let p = self.machine.process_mut(pid).expect("exists");
            let st = p.stats_mut();
            st.faults += 1;
            st.fault_cycles += fault_cost;
            self.machine.metrics().observe("fault_cycles", fault_cost.get());
            self.machine.trace().emit(
                pid,
                TraceEvent::Fault {
                    vpn: vpn.0,
                    huge,
                    cow: write && zero_cow,
                    cycles: fault_cost.get(),
                },
            );
        }
    }

    /// One touch of a mapped page (for writes, resolved past any
    /// zero-COW): one process lookup serves the translation, the MMU
    /// access, the dirt draw and the stats update. Returns `None` — with
    /// no state change beyond the side-effect-free failed translation —
    /// when a fault is needed; [`Simulator::touch_page`] takes it and
    /// retries.
    #[allow(clippy::too_many_arguments)]
    fn touch_mapped(
        &mut self,
        pid: u32,
        vpn: Vpn,
        write: bool,
        repeats: u32,
        think: u32,
        spent: &mut Cycles,
        ledger: &mut CpuLedger,
    ) -> Option<hawkeye_vm::Translation> {
        let (p, mmu, pm, config) = self.machine.touch_parts(pid).expect("running process");
        let translation = p.space_mut().access(vpn, write)?;
        let out = mmu.access(pid, vpn, translation.size, write);
        let compute = (config.costs.access + Cycles::new(think as u64)) * repeats as u64;
        *spent += out.cycles + compute;
        ledger.walk += out.cycles;
        ledger.idle += compute;
        if let Some(hook) = self.hook.as_mut() {
            let hook_cost =
                hook.on_touch(pid, vpn, translation.pfn, translation.size, write, out.walk_cycles);
            *spent += hook_cost;
            ledger.fault += hook_cost;
        }
        if write && !translation.zero_cow {
            let dirt = p.dirt_offset();
            pm.frame_mut(translation.pfn).set_content(hawkeye_mem::PageContent::non_zero(dirt));
        }
        let st = p.stats_mut();
        st.touches += 1;
        st.accesses += repeats as u64;
        Some(translation)
    }

    /// Returns the fault cost and whether the fault was served huge.
    fn apply_fault_action(
        &mut self,
        pid: u32,
        vpn: Vpn,
        action: FaultAction,
    ) -> Result<(Cycles, bool), OutOfMemory> {
        match action {
            FaultAction::MapBase => Ok((self.machine.fault_map_base(pid, vpn)?, false)),
            FaultAction::MapHuge => {
                let (cost, huge) = self.machine.fault_map_huge(pid, vpn)?;
                if huge {
                    let p = self.machine.process_mut(pid).expect("exists");
                    p.stats_mut().huge_faults += 1;
                }
                Ok((cost, huge))
            }
            FaultAction::MapBaseAt(pfn) => {
                Ok((self.machine.fault_map_base_at(pid, vpn, pfn), false))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BasePagesOnly;
    use crate::workload::script;
    use hawkeye_vm::VmaKind;

    /// A policy that always tries huge faults (Linux-2MB with THP=always).
    struct AlwaysHuge;
    impl HugePagePolicy for AlwaysHuge {
        fn name(&self) -> &str {
            "always-huge"
        }
        fn on_fault(&mut self, _m: &mut Machine, _pid: u32, _vpn: Vpn) -> FaultAction {
            FaultAction::MapHuge
        }
    }

    fn touch_workload(pages: u64, write: bool) -> Box<dyn Workload> {
        script(
            "touch",
            vec![
                MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages, write, think: 100, stride: 1 , repeats: 1},
            ],
        )
    }

    /// Compile-time check: simulations must be movable to worker threads
    /// (the bench scenario engine fans independent runs across cores).
    #[allow(dead_code)]
    fn assert_send<T: Send>() {}

    #[test]
    fn simulator_is_send() {
        assert_send::<Simulator>();
        assert_send::<Machine>();
        assert_send::<Box<dyn HugePagePolicy>>();
        assert_send::<Box<dyn Workload>>();
        assert_send::<Box<dyn AccessHook>>();
    }

    #[test]
    fn base_policy_faults_once_per_page() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid = sim.spawn(touch_workload(2048, true));
        sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert!(p.is_finished());
        assert!(!p.is_oom());
        assert_eq!(p.stats().faults, 2048);
        assert_eq!(p.stats().huge_faults, 0);
        assert_eq!(p.stats().touches, 2048);
        // Memory was freed at exit.
        assert_eq!(sim.machine().pm().allocated_pages(), 1);
    }

    #[test]
    fn huge_policy_reduces_faults_512x() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
        let pid = sim.spawn(touch_workload(2048, true));
        sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert_eq!(p.stats().faults, 4, "one fault per 2 MB region");
        assert_eq!(p.stats().huge_faults, 4);
    }

    #[test]
    fn huge_faults_faster_overall_for_spatial_workloads() {
        // Table 1's core claim, in miniature: despite higher per-fault
        // latency, huge faults win on total time for sequential touch.
        let mut sim_base = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid_b = sim_base.spawn(touch_workload(16 * 512, true));
        sim_base.run();
        let mut sim_huge = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
        let pid_h = sim_huge.spawn(touch_workload(16 * 512, true));
        sim_huge.run();
        let tb = sim_base.machine().process(pid_b).unwrap().cpu_time();
        let th = sim_huge.machine().process(pid_h).unwrap().cpu_time();
        assert!(
            th.get() * 2 < tb.get(),
            "huge {th} should beat base {tb} by >2x (sync zeroing dominates either way)"
        );
    }

    #[test]
    fn time_advances_by_quanta_and_finish_time_recorded() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid = sim.spawn(touch_workload(64, false));
        let end = sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert!(p.finish_time().unwrap() <= end);
        assert!(p.cpu_time() > Cycles::ZERO);
    }

    #[test]
    fn oom_is_detected_and_marked() {
        let mut cfg = KernelConfig::small();
        cfg.frames = 1024; // 4 MiB machine
        let mut sim = Simulator::new(cfg, Box::new(BasePagesOnly));
        let pid = sim.spawn(touch_workload(4096, true)); // wants 16 MiB
        sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert!(p.is_finished());
        assert!(p.is_oom());
        assert_eq!(sim.machine().stats().oom_events, 1);
    }

    #[test]
    fn madvise_then_retouch_faults_again() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid = sim.spawn(script(
            "cycle",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 128, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages: 128, write: true, think: 0, stride: 1 , repeats: 1},
                MemOp::Madvise { start: Vpn(0), pages: 128 },
                MemOp::TouchRange { start: Vpn(0), pages: 128, write: true, think: 0, stride: 1 , repeats: 1},
            ],
        ));
        sim.run();
        assert_eq!(sim.machine().process(pid).unwrap().stats().faults, 256);
    }

    #[test]
    fn run_for_respects_duration() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        // Endless compute workload.
        let _pid = sim.spawn(script(
            "spin",
            vec![MemOp::Compute { cycles: u64::MAX / 2 }],
        ));
        let t = sim.run_for(Cycles::from_millis(50));
        assert!(t >= Cycles::from_millis(50));
        assert!(t < Cycles::from_millis(60));
    }

    #[test]
    fn direct_rounds_are_counted_as_quanta() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        sim.spawn(script("spin", vec![MemOp::Compute { cycles: u64::MAX / 2 }]));
        assert!(sim.round() && sim.round() && sim.round());
        assert_eq!(sim.quanta(), 3);
        sim.run_for(Cycles::from_millis(10));
        assert_eq!(sim.quanta(), 8, "2 ms quanta over 10 ms");
        let mut idle = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        assert!(!idle.round(), "no runnable process");
        assert_eq!(idle.quanta(), 0);
    }

    #[test]
    fn repeats_amortize_tlb_cost() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid = sim.spawn(script(
            "hot",
            vec![
                MemOp::Mmap { start: Vpn(0), pages: 1, kind: VmaKind::Anon },
                MemOp::Touch { vpn: Vpn(0), write: true, repeats: 1000, think: 10 },
            ],
        ));
        sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert_eq!(p.stats().touches, 1);
        assert_eq!(p.stats().accesses, 1000);
        assert_eq!(p.stats().faults, 1);
    }

    #[test]
    fn registry_breakdown_sums_to_unhalted() {
        use hawkeye_metrics::registry;
        // Both fault shapes (read faults hit the zero page, write faults
        // allocate + zero): the CPU ledger must attribute every unhalted
        // cycle either way, and the daemon ledger must match the kernel's
        // own daemon_cycles stat.
        for write in [false, true] {
            registry::scope::begin();
            let mut sim = Simulator::new(KernelConfig::small(), Box::new(AlwaysHuge));
            sim.spawn(touch_workload(2048, write));
            sim.run();
            let stats = sim.machine().stats();
            let reg = registry::scope::end().expect("registry");
            let m = reg.machine(0).expect("machine attached to scope");
            assert!(m.unhalted() > 0, "write={write}: no unhalted cycles recorded");
            assert_eq!(
                m.residue(),
                0,
                "write={write}: sum of cycles.cpu.* must equal CPU_CLK_UNHALTED"
            );
            assert_eq!(
                m.daemon_total(),
                stats.daemon_cycles.get(),
                "write={write}: daemon ledger must match stats.daemon_cycles"
            );
            assert!(m.cpu_cycles(Subsystem::Walk) > 0, "write={write}: walks charged");
            assert!(m.cpu_cycles(Subsystem::Fault) > 0, "write={write}: faults charged");
            assert!(m.cpu_cycles(Subsystem::Idle) > 0, "write={write}: compute charged");
        }
    }
}
